"""Independent checks: a run simulator and a positionwise lasso LTL walker.

Nothing here calls the program.  Arenas come from the benchmark's own game
specs, from documents read with PyYAML, or (for the orchard grid, whose
grid rules the benchmark does not restate) from the plain tables of a built
arena; formulas are the nested tuples of `inputs`.  The walker decides each subformula at each lasso position by
walking forward, without fixpoint tables or automata.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


class Arena:
    """Explicit two-or-more-agent arena indexed like the program's letters:
    a letter is the row-major index over the agents' action lists."""

    def __init__(self, states, actions, labels, table, initial):
        self.states = list(states)
        self.actions = [list(a) for a in actions]
        self.labels = [frozenset(labels.get(s, ())) for s in self.states]
        index = {s: i for i, s in enumerate(self.states)}
        self.next = []
        self.cost = []
        for s in self.states:
            row_next, row_cost = [], []
            for combo in product(*self.actions):
                target, cost = table[(s, combo)]
                row_next.append(index[target])
                row_cost.append(tuple(Fraction(c) for c in cost))
            self.next.append(row_next)
            self.cost.append(row_cost)
        self.initial = index[initial]

    @property
    def n_letters(self) -> int:
        count = 1
        for acts in self.actions:
            count *= len(acts)
        return count

    def letter(self, picks) -> int:
        letter = 0
        for acts, pick in zip(self.actions, picks):
            letter = letter * len(acts) + pick
        return letter


def spec_arena(spec: dict) -> Arena:
    return Arena(
        spec["states"], spec["actions"], spec["labels"], spec["cells"],
        spec["initial"],
    )


def document_arena(data: dict) -> Arena:
    """Arena of a parsed game document, resolving `*` rows the documented
    way: the row naming the most non-wildcard fields wins."""
    body = data["game"]
    states = body["states"]
    actions = [agent["actions"] for agent in body["agents"]]
    default = body.get("default_cost")
    best: dict = {}
    for row in body["transitions"]:
        sources = states if row["from"] == "*" else [row["from"]]
        options = [
            acts if pick == "*" else [pick]
            for acts, pick in zip(actions, row["when"])
        ]
        rank = (row["from"] != "*") + sum(p != "*" for p in row["when"])
        payload = (row["to"], row.get("cost", default))
        for source in sources:
            for combo in product(*options):
                key = (source, combo)
                if key not in best or rank > best[key][0]:
                    best[key] = (rank, payload)
    table = {key: payload for key, (_, payload) in best.items()}
    return Arena(states, actions, body.get("labels", {}), table, body["initial"])


def program_arena(arena) -> Arena:
    """Arena from the tables of a program arena: state and action names,
    labels, and successor and cost rows indexed by letter."""
    table = {}
    for s, name in enumerate(arena.states):
        for letter, combo in enumerate(product(*arena.actions)):
            target = arena.states[arena.transition[s][letter]]
            table[(name, combo)] = (target, arena.cost[s][letter])
    return Arena(
        arena.states, arena.actions, dict(zip(arena.states, arena.labels)),
        table, arena.states[arena.initial],
    )


def simulate(arena: Arena, machines) -> tuple[list, int]:
    """Steps (state, letter) of the joint run until its configuration
    repeats, and the index where the cycle starts.  machines holds
    (outputs, transitions) pairs as in profile documents."""
    config = (arena.initial, tuple(0 for _ in machines))
    seen: dict = {}
    steps = []
    while config not in seen:
        seen[config] = len(steps)
        state, memory = config
        letter = arena.letter([m[0][q] for m, q in zip(machines, memory)])
        steps.append((state, letter))
        config = (
            arena.next[state][letter],
            tuple(m[1][q][letter] for m, q in zip(machines, memory)),
        )
    return steps, seen[config]


def holds_on_lasso(formula: tuple, letters: list, wrap: int) -> bool:
    """Truth of formula at position 0 of letters[:wrap] (letters[wrap:])^w."""
    total = len(letters)
    memo: dict = {}

    def succ(k: int) -> int:
        return k + 1 if k + 1 < total else wrap

    def holds(f: tuple, k: int) -> bool:
        key = (id(f), k)
        if key in memo:
            return memo[key]
        op = f[0]
        if op == "true":
            value = True
        elif op == "var":
            value = f[1] in letters[k]
        elif op == "not":
            value = not holds(f[1], k)
        elif op == "and":
            value = holds(f[1], k) and holds(f[2], k)
        elif op == "or":
            value = holds(f[1], k) or holds(f[2], k)
        elif op == "imp":
            value = (not holds(f[1], k)) or holds(f[2], k)
        elif op == "iff":
            value = holds(f[1], k) == holds(f[2], k)
        elif op == "X":
            value = holds(f[1], succ(k))
        elif op in ("F", "G", "U"):
            # Every position from k on is among the next `total` positions.
            if op == "U":
                left, right = f[1], f[2]
            else:
                left, right = ("true",), f[1] if op == "F" else ("not", f[1])
            found, j = False, k
            for _ in range(total):
                if holds(right, j):
                    found = True
                    break
                if not holds(left, j):
                    break
                j = succ(j)
            value = (not found) if op == "G" else found
        else:
            raise ValueError(f"unknown operator {op!r}")
        memo[key] = value
        return value

    return holds(formula, 0)


def run_satisfies(arena: Arena, machines, formula: tuple) -> bool:
    steps, wrap = simulate(arena, machines)
    return holds_on_lasso(formula, [arena.labels[s] for s, _ in steps], wrap)


def limit_average(arena: Arena, machines, agent: int, tax=None) -> Fraction:
    """Mean step cost of the agent over the cycle of the joint run, with an
    optional tax machine given as (rates, next) where rates[q] maps
    (state, letter) to a cost vector."""
    steps, wrap = simulate(arena, machines)
    if tax is None:
        loop = steps[wrap:]
        return sum(
            (arena.cost[s][a][agent] for s, a in loop), Fraction(0)
        ) / len(loop)
    rates, nxt = tax
    total = len(steps)
    pair = (0, 0)
    seen: dict = {}
    order = []
    while pair not in seen:
        seen[pair] = len(order)
        order.append(pair)
        pos, q = pair
        state, letter = steps[pos]
        pair = (pos + 1 if pos + 1 < total else wrap, nxt[q][letter])
    loop = order[seen[pair]:]
    paid = Fraction(0)
    for pos, q in loop:
        state, letter = steps[pos]
        extra = rates[q].get((state, letter))
        paid += arena.cost[state][letter][agent]
        if extra is not None:
            paid += extra[agent]
    return paid / len(loop)


def document_tax(data: dict, arena: Arena):
    """(rates, next) of a dynamic tax document, wildcards resolved."""
    body = data["tax"]
    rates, nxt = [], []
    for item in body["machine"]:
        best: dict = {}
        for entry in item.get("rates", []):
            states = (
                range(len(arena.states)) if entry["state"] == "*"
                else [entry["state"]]
            )
            letters = (
                range(arena.n_letters) if entry["letter"] == "*"
                else [entry["letter"]]
            )
            rank = (entry["state"] != "*") + (entry["letter"] != "*")
            vector = tuple(Fraction(x) for x in entry["rate"])
            for cell in product(states, letters):
                if cell not in best or rank > best[cell][0]:
                    best[cell] = (rank, vector)
        rates.append({cell: v for cell, (_, v) in best.items()})
        nxt.append(item["next"])
    return rates, nxt


def profile_machines(profile_body: dict) -> list:
    return [(m["outputs"], m["transitions"]) for m in profile_body["machines"]]
