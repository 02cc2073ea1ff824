"""Shared builders and independent oracles for the test suite.

The oracles deliberately avoid the library's own algorithms: temporal
formulas are checked by walking the lasso position by position, run costs
by a Fraction walk over (run position, tax state) pairs, mean cycles by
enumerating simple cycles, strongly connected components by mutual
reachability, machine enumeration by brute force over raw
tables, and best responses by trying every small machine that reads only
the other agents' actions; exact best responses are read off the product
with the degeneralised goal automaton (a round-robin counter over the
until nodes, one acceptance set) built without the library's label guard.
The recursive-descent parser, the recursive formula comparison and the
recursive transition-table enumerator are the references for the library's
iterative versions; they recurse once per nesting level, so feed them small
inputs only.

Some functions here were public library API that only tests read: the
automaton acceptance check `buchi_accepts_lasso` (with `buchi_successors`),
`min_mean_cycle` (the library's Karp on Fraction weights), `run_at` and
`single_agent_observed_cycle`.  The first two still use the library's
Tarjan and Karp, which `reachable_components` and `simple_cycle_min_mean`
check independently.  The profile-level deviation graph
(`DeviationGraph`, `reference_deviation_graph` with its pairwise edges,
`reference_quotient`) and the eliminability search on it
(`reference_check_eliminable`) were the library's before it decided
eliminability on run classes; they are its reference now.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import lcm
from random import Random
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping

from taxgames.ltl import (
    FALSE,
    TRUE,
    LtlSyntaxError,
    UnknownVariableError,
    _NEXT,
    _NOT,
    _OR,
    _RESERVED,
    _TRUE,
    _UNTIL,
    _VAR,
    _Token,
    _compile,
    _tokenize,
)

import taxgames as tg
from taxgames._graphs import strongly_connected_components
from taxgames.equilibrium import _component_means


# ======================== Bundled example, built in code ====================


def junction_game() -> tg.Game:
    transitions = {}
    costs = {}
    for combo, target, cost in [
        (("a", "c"), "s2", (0, 0)),
        (("a", "d"), "s1", (2, 0)),
        (("b", "c"), "s1", (0, 2)),
        (("b", "d"), "s3", (2, 2)),
    ]:
        transitions[("s0", combo)] = target
        costs[("s0", combo)] = cost
    for s in ["s1", "s2", "s3"]:
        for c1 in "ab":
            for c2 in "cd":
                transitions[(s, (c1, c2))] = "s0"
                costs[(s, (c1, c2))] = (0, 0)
    arena = tg.make_arena(
        states=["s0", "s1", "s2", "s3"],
        vocabulary=["p", "q"],
        agents=["driver1", "driver2"],
        actions={"driver1": ["a", "b"], "driver2": ["c", "d"]},
        labels={"s1": ["p", "q"], "s2": ["p"], "s3": ["q"]},
        transitions=transitions,
        costs=costs,
        initial="s0",
    )
    return tg.make_game(arena, ["G F p", "G F p"])


def junction_tax() -> tg.DynamicTax:
    """Absorbing punishment unless the first joint move heads to s1."""
    zero = tg.zero_tax(2)
    punish = tg.static_tax(
        2, {(s, a): (3, 3) for s in range(4) for a in range(4)}
    )
    return tg.DynamicTax(
        outputs=(zero, zero, punish),
        transitions=((2, 1, 1, 2), (0, 0, 0, 0), (2, 2, 2, 2)),
    )


def constant_machine(action: int, n_letters: int) -> tg.StrategyMachine:
    return tg.StrategyMachine(outputs=(action,), transitions=((0,) * n_letters,))


def constant_profile(arena: tg.Arena, actions: Iterable[int]) -> tg.Profile:
    n = arena.n_letters
    return tg.Profile(tuple(constant_machine(a, n) for a in actions))


# ======================== LTL oracle ========================================


def oracle_eval(formula: tg.Formula, trace: tg.LabelTrace) -> bool:
    """Positionwise lasso evaluation by direct walking, no fixpoints."""
    letters = list(trace.prefix) + list(trace.cycle)
    total = len(letters)
    wrap = len(trace.prefix)

    def succ(k: int) -> int:
        return k + 1 if k + 1 < total else wrap

    memo: dict[tuple[int, int], bool] = {}

    def holds(f: tg.Formula, k: int) -> bool:
        key = (id(f), k)
        if key in memo:
            return memo[key]
        if isinstance(f, tg.TrueConst):
            value = True
        elif isinstance(f, tg.Var):
            value = f.name in letters[k]
        elif isinstance(f, tg.Not):
            value = not holds(f.operand, k)
        elif isinstance(f, tg.Or):
            value = holds(f.left, k) or holds(f.right, k)
        elif isinstance(f, tg.Next):
            value = holds(f.operand, succ(k))
        elif isinstance(f, tg.Until):
            value = False
            j = k
            for _ in range(total + 1):
                if holds(f.right, j):
                    value = True
                    break
                if not holds(f.left, j):
                    break
                j = succ(j)
        else:
            raise TypeError(f"unknown node {f!r}")
        memo[key] = value
        return value

    return holds(formula, 0)


# ======================== Degeneralised Buchi reference =====================


def reference_to_buchi(formula: tg.Formula) -> tg.BuchiAutomaton:
    """The declarative tableau translation with a round-robin counter over
    the until nodes: a construction independent of `to_buchi`'s on-the-fly
    one, which enumerates every truth assignment over the variable, next
    and until rows.

    States are (assignment, round) pairs reachable from the initial ones,
    and the one acceptance set holds the round-0 states whose assignment is
    in the first until node's set.  No caps.
    """
    rows = _compile(formula).rows
    free = [
        i for kind in (_VAR, _NEXT, _UNTIL) for i, row in enumerate(rows)
        if row[0] == kind
    ]
    names = [(rows[i][1], i) for i in free if rows[i][0] == _VAR]
    slot = {i: k for k, i in enumerate(free)}
    next_pairs = [(i, rows[i][1]) for i in free if rows[i][0] == _NEXT]
    until_triples = [(i, *rows[i][1:]) for i in free if rows[i][0] == _UNTIL]

    assignments: list[tuple[bool, ...]] = []
    for bits in product((False, True), repeat=len(free)):
        values: list[bool] = []
        for i, row in enumerate(rows):
            kind = row[0]
            if kind == _TRUE:
                value = True
            elif kind == _NOT:
                value = not values[row[1]]
            elif kind == _OR:
                value = values[row[1]] or values[row[2]]
            else:
                value = bits[slot[i]]
                if kind == _UNTIL and value != (
                    values[row[2]] or values[row[1]] and value
                ):
                    break
            values.append(value)
        else:
            assignments.append(tuple(values))

    def step_allowed(a: tuple[bool, ...], b: tuple[bool, ...]) -> bool:
        for node, operand in next_pairs:
            if a[node] != b[operand]:
                return False
        for node, left, right in until_triples:
            if a[left] and not a[right] and a[node] != b[node]:
                return False
        return True

    tableau_edges = [
        [j for j, b in enumerate(assignments) if step_allowed(a, b)]
        for a in assignments
    ]
    rounds = max(1, len(until_triples))
    if until_triples:
        acceptance_sets = [
            {i for i, a in enumerate(assignments) if not a[node] or a[right]}
            for node, _, right in until_triples
        ]
    else:
        acceptance_sets = [set(range(len(assignments)))]

    def next_round(i: int, k: int) -> int:
        return (k + 1) % rounds if i in acceptance_sets[k] else k

    root = len(rows) - 1
    start_pairs = [(i, 0) for i, a in enumerate(assignments) if a[root]]
    numbering: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for pair in start_pairs:
        if pair not in numbering:
            numbering[pair] = len(order)
            order.append(pair)
    for i, k in order:  # order grows while it is walked
        for j in tableau_edges[i]:
            pair = (j, next_round(i, k))
            if pair not in numbering:
                numbering[pair] = len(order)
                order.append(pair)

    sink = len(order)
    return tg.BuchiAutomaton(
        constrained=frozenset(name for name, _ in names),
        atoms=tuple(
            frozenset(name for name, node in names if assignments[i][node])
            for i, _ in order
        ) + (frozenset(),),
        edges=tuple(
            tuple(numbering[(j, next_round(i, k))] for j in tableau_edges[i])
            for i, k in order
        ) + ((sink,),),
        initial=tuple(numbering[pair] for pair in start_pairs),
        acceptance=(
            frozenset(
                idx for idx, (i, k) in enumerate(order)
                if k == 0 and i in acceptance_sets[0]
            ),
        ),
        sink=sink,
    )


def buchi_successors(
    automaton: tg.BuchiAutomaton, state: int, letter: frozenset[str]
) -> tuple[int, ...]:
    """The automaton's successors of a state on reading a letter: its
    edges when the letter agrees with the state's atom on the constrained
    variables, and otherwise, or when it has none, just the sink."""
    if state == automaton.sink:
        return (automaton.sink,)
    if (letter & automaton.constrained) != automaton.atoms[state]:
        return (automaton.sink,)
    return automaton.edges[state] or (automaton.sink,)


def buchi_accepts_lasso(automaton: tg.BuchiAutomaton, trace: tg.LabelTrace) -> bool:
    """Whether the automaton accepts the infinite word of the trace.

    Explores the product of automaton states with the canonical trace
    positions and looks for a reachable nontrivial strongly connected
    component that meets every acceptance set: it has a cycle through all
    of them.
    """
    prefix, cycle = trace
    if not cycle:
        raise ValueError("trace cycle must be nonempty")
    count = len(prefix) + len(cycle)
    wrap = len(prefix)
    letters = list(prefix) + list(cycle)

    def successors(node: tuple[int, int]) -> list[tuple[int, int]]:
        state, pos = node
        nxt = pos + 1 if pos + 1 < count else wrap
        return [
            (target, nxt)
            for target in buchi_successors(automaton, state, letters[pos])
        ]

    start = [(q, 0) for q in automaton.initial]
    seen: set[tuple[int, int]] = set(start)
    queue = list(start)
    while queue:
        for nxt in successors(queue.pop()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)

    nodes = sorted(seen)
    number = {node: i for i, node in enumerate(nodes)}
    edges = [[number[nxt] for nxt in successors(node)] for node in nodes]
    for component in strongly_connected_components(edges):
        first = component[0]
        if len(component) == 1 and first not in edges[first]:
            continue
        states = {nodes[i][0] for i in component}
        if all(not states.isdisjoint(marks) for marks in automaton.acceptance):
            return True
    return False


# ======================== Parser and structure oracles ======================
#
# Grammar, loosest to tightest:
#   iff    :=  impl ('<->' impl)*          left associative
#   impl   :=  disj ('->' impl)?           right associative
#   disj   :=  conj ('|' conj)*
#   conj   :=  until ('&' until)*
#   until  :=  unary ('U' until)?          right associative
#   unary  :=  ('!' | 'X' | 'F' | 'G' | '<>' | '[]') unary | atom
#   atom   :=  'true' | 'false' | name | '(' iff ')'


class _ReferenceParser:
    """Recursive descent, one method per grammar level."""

    def __init__(self, tokens: list[_Token], vocabulary: frozenset[str] | None):
        self.tokens = tokens
        self.pos = 0
        self.vocabulary = vocabulary

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, text: str) -> None:
        token = self.take()
        if token.text != text:
            raise LtlSyntaxError(
                f"expected {text!r} at position {token.pos}, found {token.text!r}"
            )

    def parse_iff(self) -> tg.Formula:
        left = self.parse_impl()
        while self.peek().text == "<->":
            self.take()
            left = tg.iff(left, self.parse_impl())
        return left

    def parse_impl(self) -> tg.Formula:
        left = self.parse_disj()
        if self.peek().text == "->":
            self.take()
            return tg.implies(left, self.parse_impl())
        return left

    def parse_disj(self) -> tg.Formula:
        left = self.parse_conj()
        while self.peek().text == "|":
            self.take()
            left = tg.Or(left, self.parse_conj())
        return left

    def parse_conj(self) -> tg.Formula:
        left = self.parse_until()
        while self.peek().text == "&":
            self.take()
            left = tg.and_(left, self.parse_until())
        return left

    def parse_until(self) -> tg.Formula:
        left = self.parse_unary()
        if self.peek().text == "U":
            self.take()
            return tg.Until(left, self.parse_until())
        return left

    def parse_unary(self) -> tg.Formula:
        token = self.peek()
        if token.text == "!":
            self.take()
            return tg.Not(self.parse_unary())
        if token.text == "X":
            self.take()
            return tg.Next(self.parse_unary())
        if token.text in ("F", "<>"):
            self.take()
            return tg.eventually(self.parse_unary())
        if token.text in ("G", "[]"):
            self.take()
            return tg.always(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> tg.Formula:
        token = self.take()
        if token.text == "(":
            inner = self.parse_iff()
            self.expect(")")
            return inner
        if token.kind == "name":
            if token.text == "true":
                return TRUE
            if token.text == "false":
                return FALSE
            if token.text in _RESERVED:
                raise LtlSyntaxError(
                    f"operator {token.text!r} at position {token.pos} needs an operand"
                )
            if self.vocabulary is not None and token.text not in self.vocabulary:
                raise UnknownVariableError(
                    f"unknown variable {token.text!r} at position {token.pos}"
                )
            return tg.Var(token.text)
        raise LtlSyntaxError(
            f"expected a formula at position {token.pos}, found {token.text!r}"
        )


def reference_parse(text: str, vocabulary: Iterable[str] | None = None) -> tg.Formula:
    """parse_ltl by recursive descent over the same tokens."""
    vocab = None if vocabulary is None else frozenset(vocabulary)
    parser = _ReferenceParser(_tokenize(text), vocab)
    formula = parser.parse_iff()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise LtlSyntaxError(
            f"unexpected {trailing.text!r} at position {trailing.pos}"
        )
    return formula


def structure(formula: tg.Formula) -> tuple:
    """The formula tree as nested tuples of node type name and fields."""
    if isinstance(formula, tg.TrueConst):
        return ("TrueConst",)
    if isinstance(formula, tg.Var):
        return ("Var", formula.name)
    if isinstance(formula, (tg.Not, tg.Next)):
        return (type(formula).__name__, structure(formula.operand))
    return (
        type(formula).__name__, structure(formula.left), structure(formula.right)
    )


def left_nested_or(formula: tg.Formula) -> tg.Formula:
    """The formula with every chain of disjunctions nested to the left, the
    shape parse_ltl gives `a | b | c`."""
    if isinstance(formula, (tg.TrueConst, tg.Var)):
        return formula
    if isinstance(formula, (tg.Not, tg.Next)):
        return type(formula)(left_nested_or(formula.operand))
    if isinstance(formula, tg.Until):
        return tg.Until(left_nested_or(formula.left), left_nested_or(formula.right))
    disjuncts = []
    pending = [formula]
    while pending:
        node = pending.pop()
        if isinstance(node, tg.Or):
            pending += [node.right, node.left]
        else:
            disjuncts.append(left_nested_or(node))
    result = disjuncts[0]
    for disjunct in disjuncts[1:]:
        result = tg.Or(result, disjunct)
    return result


# ======================== Machine enumeration oracle ========================


def raw_machines(
    n_actions: int, n_letters: int, max_states: int
) -> Iterator[tg.StrategyMachine]:
    """Every machine table with up to max_states states, no dedup."""
    for m in range(1, max_states + 1):
        rows = list(product(range(m), repeat=n_letters))
        for outputs in product(range(n_actions), repeat=m):
            for table in product(rows, repeat=m):
                yield tg.StrategyMachine(outputs=outputs, transitions=table)


def reference_canonical(machine: tg.StrategyMachine) -> tg.StrategyMachine:
    """Drop unreachable states and renumber by first reference."""
    order = [0]
    seen = {0}
    cursor = 0
    while cursor < len(order):
        q = order[cursor]
        cursor += 1
        for target in machine.transitions[q]:
            if target not in seen:
                seen.add(target)
                order.append(target)
    rename = {old: new for new, old in enumerate(order)}
    return tg.StrategyMachine(
        outputs=tuple(machine.outputs[q] for q in order),
        transitions=tuple(
            tuple(rename[t] for t in machine.transitions[q]) for q in order
        ),
    )


def reference_machines(
    n_actions: int, n_letters: int, memory_bound: int
) -> Iterator[tg.StrategyMachine]:
    """enumerate_machines with the transition tables filled by recursion,
    one call per cell, pruned as the library prunes."""
    for m in range(1, memory_bound + 1):
        total = m * n_letters
        cells = [0] * total

        def fill(f: int, top: int) -> Iterator[tuple[tuple[int, ...], ...]]:
            if f == total:
                if top == m - 1:
                    yield tuple(
                        tuple(cells[i * n_letters:(i + 1) * n_letters])
                        for i in range(m)
                    )
                return
            if f % n_letters == 0 and top < f // n_letters:
                return
            if (m - 1) - top > total - f:
                return
            for value in range(min(top + 1, m - 1) + 1):
                cells[f] = value
                yield from fill(f + 1, max(top, value))

        for structure in fill(0, 0):
            for outputs in product(range(n_actions), repeat=m):
                yield tg.StrategyMachine(outputs=outputs, transitions=structure)


# ======================== Mean cycle oracle =================================


def simple_cycle_min_mean(
    graph: Mapping[object, Iterable[tuple[object, Fraction]]]
) -> Fraction | None:
    """Minimum mean over all simple cycles, by explicit path enumeration."""
    nodes = list(graph)
    best: Fraction | None = None
    allowed: set = set()

    def extend(start, node, weight: Fraction, depth: int, on_path: set) -> None:
        nonlocal best
        for target, w in graph.get(node, ()):
            if target == start:
                mean = Fraction(weight + w, depth)
                if best is None or mean < best:
                    best = mean
            elif target not in on_path and target in allowed:
                on_path.add(target)
                extend(start, target, weight + w, depth + 1, on_path)
                on_path.discard(target)

    for i, start in enumerate(nodes):
        # enumerate each cycle once, rooted at its first node in list order
        allowed = set(nodes[i:])
        extend(start, start, Fraction(0), 1, {start})
    return best


def min_mean_cycle(
    graph: Mapping[object, Iterable[tuple[object, Fraction]]],
) -> Fraction | None:
    """Minimum over all directed cycles of mean edge weight, None if there
    is no cycle: the library's component walk and Karp
    (`equilibrium._component_means`) on Fraction weights, scaled to
    integers by the lcm of their denominators and divided back at the
    end."""
    adjacency = {v: [(t, Fraction(w)) for t, w in out] for v, out in graph.items()}
    index: dict[object, int] = {}
    for v, out in adjacency.items():
        index.setdefault(v, len(index))
        for t, _ in out:
            index.setdefault(t, len(index))
    scale = lcm(*(w.denominator for out in adjacency.values() for _, w in out))
    successors: list[list[int]] = [[] for _ in index]
    weights: list[list[int]] = [[] for _ in index]
    for v, out in adjacency.items():
        successors[index[v]] = [index[t] for t, _ in out]
        weights[index[v]] = [w.numerator * (scale // w.denominator) for _, w in out]
    means = [Fraction(*mean) for _, mean in _component_means(successors, weights)]
    return min(means) / scale if means else None


# ======================== Component oracle ==================================


def reachable_components(nodes: Iterable, successors) -> list[list]:
    """Strongly connected components by mutual reachability: v joins u's
    component when u reaches v and v reaches u.  Each component is the
    intersection of one forward and one backward search from its first
    node in the given order; components come in that order, and so do
    their members.  Nodes are any hashable values."""
    nodes = list(nodes)
    forward: dict = {u: list(successors(u)) for u in nodes}
    backward: dict = {}
    for u, targets in forward.items():
        for v in targets:
            backward.setdefault(v, []).append(u)

    def reach(start, edges: Mapping) -> set:
        seen = {start}
        frontier = [start]
        while frontier:
            for v in edges.get(frontier.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen

    placed: set = set()
    components = []
    for u in nodes:
        if u not in placed:
            both = reach(u, forward) & reach(u, backward)
            component = [v for v in nodes if v in both]
            placed.update(component)
            components.append(component)
    return components


# ======================== Levelling tax oracle ==============================


def reference_levelling_entries(
    arena: tg.Arena, level: Fraction | None = None
) -> tuple[tuple[int, int, tuple[Fraction, ...]], ...]:
    """The levelling tax at the given level, by default the lowest valid
    one, cell by cell: the largest cost of any agent (at least 0) from a
    scan of every cell, then one surcharge vector per cell, level - cost
    in Fractions, with all-zero vectors dropped."""
    if level is None:
        level = Fraction(0)
        for row in arena.cost:
            for vector in row:
                for x in vector:
                    level = max(level, x)
    entries = []
    for s, row in enumerate(arena.cost):
        for letter, base in enumerate(row):
            vector = tuple(level - x for x in base)
            if any(vector):
                entries.append((s, letter, vector))
    return tuple(entries)


# ======================== Random instances ==================================


def random_game(
    rng: Random,
    n_states: int = 3,
    n_actions: tuple[int, int] = (2, 2),
    max_cost: int = 10,
    goals: tuple[str, str] = ("G F p", "G F p"),
) -> tg.Game:
    states = [f"s{i}" for i in range(n_states)]
    vocabulary = ["p", "q"]
    labels = {
        name: [v for v in vocabulary if rng.random() < 0.5] for name in states
    }
    actions = {
        "agent1": [f"x{i}" for i in range(n_actions[0])],
        "agent2": [f"y{i}" for i in range(n_actions[1])],
    }
    transitions = {}
    costs = {}
    for state in states:
        for combo in product(actions["agent1"], actions["agent2"]):
            transitions[(state, combo)] = rng.choice(states)
            costs[(state, combo)] = (
                rng.randint(0, max_cost),
                rng.randint(0, max_cost),
            )
    arena = tg.make_arena(
        states=states,
        vocabulary=vocabulary,
        agents=["agent1", "agent2"],
        actions=actions,
        labels=labels,
        transitions=transitions,
        costs=costs,
        initial="s0",
    )
    return tg.make_game(arena, list(goals))


def random_static_tax(
    rng: Random, game: tg.Game, max_component: int = 10, density: float = 0.5
) -> tg.StaticTax:
    arena = game.arena
    rates = {}
    for state in range(arena.n_states):
        for letter in arena.letters():
            if rng.random() < density:
                rates[(state, letter)] = tuple(
                    rng.randint(0, max_component)
                    for _ in range(arena.n_agents)
                )
    return tg.static_tax(arena.n_agents, rates)


def rational_game(
    rng: Random,
    goals: tuple[str, str] = ("G F p", "G F p"),
    n_actions: tuple[int, int] = (2, 2),
) -> tg.Game:
    """A random game whose costs have denominators mixed from 1, 2, 3, 7."""
    game = random_game(rng, n_states=2, n_actions=n_actions, max_cost=6, goals=goals)
    cost = tuple(
        tuple(
            tuple(Fraction(x, rng.choice((1, 2, 3, 7))) for x in vector)
            for vector in row
        )
        for row in game.arena.cost
    )
    return replace(game, arena=replace(game.arena, cost=cost))


def rational_tax(rng: Random, arena: tg.Arena) -> tg.DynamicTax:
    """A random 2- or 3-state tax machine with rational rates."""
    n = rng.randint(2, 3)
    outputs = tuple(
        tg.static_tax(
            arena.n_agents,
            {
                (s, letter): tuple(
                    Fraction(rng.randint(0, 6), rng.choice((1, 2, 3, 7)))
                    for _ in range(arena.n_agents)
                )
                for s in range(arena.n_states)
                for letter in arena.letters()
                if rng.random() < 0.6
            },
        )
        for _ in range(n)
    )
    transitions = tuple(
        tuple(rng.randrange(n) for _ in arena.letters()) for _ in range(n)
    )
    return tg.DynamicTax(outputs=outputs, transitions=transitions)



# ======================== Bounded best-response oracle ======================


def lift_reduced(
    machine: tg.StrategyMachine, arena: tg.Arena, agent: int
) -> tg.StrategyMachine:
    """Expand a machine reading only the other agents' actions to one
    reading full joint profiles."""
    sizes = [len(acts) for acts in arena.actions]

    def reduced_index(letter: int) -> int:
        profile = arena.letter_profile(letter)
        index = 0
        for k, count in enumerate(sizes):
            if k == agent:
                continue
            index = index * count + profile[k]
        return index

    return tg.StrategyMachine(
        outputs=machine.outputs,
        transitions=tuple(
            tuple(row[reduced_index(letter)] for letter in arena.letters())
            for row in machine.transitions
        ),
    )


def oracle_response_values(
    game: tg.Game,
    profile: tg.Profile,
    agent: int,
    bound: int,
    tax: tg.DynamicTax | None = None,
) -> list[tg.LexValue]:
    """LexValues of every deviation to a machine with at most `bound`
    states that reads only the other agents' actions.  Against fixed
    deterministic opponents such machines induce the same runs as
    full-alphabet machines of the same size, because the full transition
    function only ever sees the machine's own output next to the others'
    actions."""
    arena = game.arena
    n_obs = 1
    for k, acts in enumerate(arena.actions):
        if k != agent:
            n_obs *= len(acts)
    values = []
    for small in raw_machines(len(arena.actions[agent]), n_obs, bound):
        lifted = lift_reduced(small, arena, agent)
        outcome = tg.evaluate(game, profile.replace(agent, lifted), tax)
        cost = reference_taxed_costs(arena, outcome.run, tax)[agent]
        values.append(tg.LexValue(goal_met=agent in outcome.winners, cost=cost))
    return values


# ======================== Run cost oracle ===================================


def run_at(run: tg.LassoRun, k: int) -> tg.RunStep:
    """Step k of the run's infinite step sequence."""
    if k < len(run.prefix):
        return run.prefix[k]
    return run.cycle[(k - len(run.prefix)) % len(run.cycle)]



def reference_taxed_costs(
    arena: tg.Arena, run: tg.LassoRun, tax: tg.DynamicTax | None = None
) -> tuple[Fraction, ...]:
    """Each agent's limit-average taxed cost along the run, on Fractions
    read straight from `arena.cost` and `StaticTax.rate`: walk (run
    position, tax state) pairs until one repeats and average the steps
    from its first visit on."""
    steps = run.prefix + run.cycle
    seen: dict[tuple[int, int], int] = {}
    walk = []
    pos = q = 0
    while (pos, q) not in seen:
        seen[(pos, q)] = len(walk)
        state, letter = steps[pos]
        cost = arena.cost[state][letter]
        if tax is not None:
            rate = tax.outputs[q].rate(state, letter)
            cost = tuple(c + r for c, r in zip(cost, rate))
            q = tax.transitions[q][letter]
        walk.append(cost)
        pos = pos + 1 if pos + 1 < len(steps) else len(run.prefix)
    loop = walk[seen[(pos, q)]:]
    return tuple(Fraction(sum(column), len(loop)) for column in zip(*loop))


def reference_running_means(
    arena: tg.Arena, run: tg.LassoRun, tax: tg.DynamicTax | None, horizon: int
) -> list[tuple[Fraction, ...]]:
    """Each agent's average taxed cost over steps 0..t, for t in
    0..horizon-1, as a Fraction running sum along the unrolled run."""
    totals = (Fraction(0),) * arena.n_agents
    means = []
    q = 0
    for t in range(horizon):
        state, letter = run_at(run, t)
        cost = arena.cost[state][letter]
        if tax is not None:
            rate = tax.outputs[q].rate(state, letter)
            cost = tuple(c + r for c, r in zip(cost, rate))
            q = tax.transitions[q][letter]
        totals = tuple(x + c for x, c in zip(totals, cost))
        means.append(tuple(total / (t + 1) for total in totals))
    return means


# ======================== Exact best-response oracle ========================

# goals for the exact best-response oracle: unsatisfiable, trivial, state
# formulas whose atom can contradict the initial label, and temporal ones
RESPONSE_GOALS = (
    "false",
    "true",
    "p",
    "!p",
    "X q",
    "G F p",
    "F G q",
    "G (p -> F q)",
    "(G F p) | (F G q)",
)


def reference_response_value(
    game: tg.Game,
    profile: tg.Profile,
    agent: int,
    tax: tg.DynamicTax | None = None,
) -> tg.LexValue:
    """The agent's best-response value on the unguarded product.

    Vertices are (arena state, others' machine states, tax state, state of
    the `reference_to_buchi` automaton), stepped through
    `buchi_successors`, so a vertex whose automaton atom contradicts its
    label stays in the graph until it steps into the sink.  Weights are
    Fractions.  The goal is attainable iff a
    strongly connected component with a cycle holds an accepting vertex;
    the cost is the least `min_mean_cycle` inside such components, or
    inside any component when none is.
    """
    arena = game.arena
    automaton = reference_to_buchi(game.goals[agent])
    machines = profile.machines
    others = [i for i in range(arena.n_agents) if i != agent]
    starts = [
        (arena.initial, (0,) * len(others), 0, b)
        for b in automaton.initial or (automaton.sink,)
    ]
    graph: dict[tuple, list[tuple[tuple, Fraction]]] = {}
    frontier = list(starts)
    while frontier:
        vertex = frontier.pop()
        if vertex in graph:
            continue
        state, memory, tax_state, b = vertex
        out = []
        for action in range(len(arena.actions[agent])):
            actions = [0] * arena.n_agents
            for i, q in zip(others, memory):
                actions[i] = machines[i].outputs[q]
            actions[agent] = action
            letter = arena.letter_of(actions)
            weight = Fraction(arena.cost[state][letter][agent])
            tax_next = 0
            if tax is not None:
                weight += tax.outputs[tax_state].rate(state, letter)[agent]
                tax_next = tax.transitions[tax_state][letter]
            memory_next = tuple(
                machines[i].transitions[q][letter] for i, q in zip(others, memory)
            )
            target = arena.transition[state][letter]
            for b_next in buchi_successors(automaton, b, arena.labels[state]):
                succ = (target, memory_next, tax_next, b_next)
                out.append((succ, weight))
                frontier.append(succ)
        graph[vertex] = out

    best = best_winning = None
    for component in reachable_components(
        graph, lambda v: [t for t, _ in graph[v]]
    ):
        members = set(component)
        mean = min_mean_cycle(
            {v: [(t, w) for t, w in graph[v] if t in members] for v in component}
        )
        if mean is None:
            continue
        best = mean if best is None else min(best, mean)
        if any(v[3] in automaton.acceptance[0] for v in component):
            best_winning = mean if best_winning is None else min(best_winning, mean)
    assert best is not None
    if best_winning is not None:
        return tg.LexValue(goal_met=True, cost=best_winning)
    return tg.LexValue(goal_met=False, cost=best)


def reference_no_agent_improves(
    responses,
    plays,
    profile: tg.Profile,
    k: int,
    index: int | None = None,
) -> bool:
    """The library's Nash test on Fractions, with its signature: each
    agent's `reference_taxed_costs` on the run of class k of plays against
    its `reference_response_value` under the responses' game and tax, with
    no memo and no shortcut.  It reads the run and its goal winners from
    the table but no rows, so index is ignored."""
    game, tax = responses.game, responses.tax
    run, winners = plays.runs[k], plays.winners[k]
    costs = reference_taxed_costs(game.arena, run, tax)
    return all(
        tg.prefers(
            reference_response_value(game, profile, agent, tax),
            tg.LexValue(goal_met=agent in winners, cost=costs[agent]),
        )
        <= 0
        for agent in range(len(profile.machines))
    )


def reference_nash_sweep(
    responses,
    memory_bound: int,
    objective: tg.Formula | None = None,
    cap: int = 10**7,
) -> Iterator[tg.Profile]:
    """The Nash sweep one profile at a time, the reference for the
    run-class sweep: each bounded profile is played, labelled and has its
    goals and the objective decided from scratch, on a one-off table of its
    own, then goes through the library's Nash test on the responses' memo,
    in enumeration order, with no index, so no row refutes it."""
    game = responses.game
    for profile in tg.enumerate_profiles(game.arena, memory_bound, cap=cap):
        plays = tg.equilibrium._Plays(game)
        k = plays.class_of(profile)
        if objective is not None and not tg.eval_on_lasso(objective, plays.traces[k]):
            continue
        if tg.equilibrium._no_agent_improves(responses, plays, profile, k):
            yield profile


def reference_is_nash(
    game: tg.Game, profile: tg.Profile, tax: tg.DynamicTax | None = None
) -> bool:
    """is_nash on Fractions through reference_no_agent_improves."""
    tg.check_profile(game.arena, profile)
    plays = tg.equilibrium._Plays(game)
    return reference_no_agent_improves(
        SimpleNamespace(game=game, tax=tax), plays, profile, plays.class_of(profile)
    )


# ======================== Deviation graph oracle ============================


@dataclass(frozen=True, eq=False)
class DeviationGraph:
    """Profiles with their canonical runs and goal verdicts, plus initial
    deviations among them as (source, target, agent) index triples."""

    nodes: tuple[tg.Profile, ...]
    runs: tuple[tg.LassoRun, ...]
    winners: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int, int], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def _reference_play(
    game: tg.Game, profile: tg.Profile
) -> tuple[tg.LassoRun, frozenset[int]]:
    run = tg.lasso_canonical(tg.generate_run(game.arena, profile))
    trace = tg.label_trace(game.arena, run)
    return run, frozenset(
        i for i, goal in enumerate(game.goals) if tg.eval_on_lasso(goal, trace)
    )


def _initial(agent: int, source, target) -> bool:
    """Whether a switch by the agent between two (run, winners) plays is
    an initial deviation: the run changes and a winner stays one."""
    return source[0] != target[0] and (agent not in source[1] or agent in target[1])


def reference_deviation_graph(
    game: tg.Game, seed_nodes: Iterable[tg.Profile], memory_bound: int
) -> DeviationGraph:
    """The profile-level deviation graph, the reference for eliminability
    on run classes.  Nodes are the canonical seeds, then every one-step
    initial deviation of a seed within the bounded machine universes, in
    the order first found (seed by seed, agent by agent, machine by
    machine); edges are all initial deviations among the nodes, found by
    comparing every pair.  Every node is played on its own."""
    arena = game.arena
    universes = [
        list(tg.enumerate_machines(len(actions), arena.n_letters, memory_bound))
        for actions in arena.actions
    ]
    seeds = [
        tg.Profile(tuple(tg.canonicalize_machine(m) for m in p.machines))
        for p in seed_nodes
    ]
    plays: dict[tg.Profile, tuple[tg.LassoRun, frozenset[int]]] = {}
    for seed in seeds:
        plays.setdefault(seed, _reference_play(game, seed))
    for seed in seeds:
        for agent, machines in enumerate(universes):
            for machine in machines:
                candidate = seed.replace(agent, machine)
                if candidate not in plays:
                    played = _reference_play(game, candidate)
                    if _initial(agent, plays[seed], played):
                        plays[candidate] = played
    nodes = list(plays)
    edges = []
    for u, source in enumerate(nodes):
        for v, target in enumerate(nodes):
            differing = [
                i
                for i in range(arena.n_agents)
                if source.machines[i] != target.machines[i]
            ]
            if len(differing) == 1 and _initial(
                differing[0], plays[source], plays[target]
            ):
                edges.append((u, v, differing[0]))
    return DeviationGraph(
        nodes=tuple(nodes),
        runs=tuple(plays[p][0] for p in nodes),
        winners=tuple(plays[p][1] for p in nodes),
        edges=tuple(edges),
    )


def reference_quotient(
    graph: DeviationGraph,
) -> tuple[list[list[int]], list[int], list[tuple[int, int, int]]]:
    """The run quotient of a deviation graph: the nodes of each run class,
    classes numbered by first occurrence of their run, each node's class,
    and the distinct class edges in edge order."""
    class_of_run: dict[tg.LassoRun, int] = {}
    class_nodes: list[list[int]] = []
    node_class: list[int] = []
    for node, run in enumerate(graph.runs):
        if run not in class_of_run:
            class_of_run[run] = len(class_nodes)
            class_nodes.append([])
        cls = class_of_run[run]
        class_nodes[cls].append(node)
        node_class.append(cls)
    class_edges: list[tuple[int, int, int]] = []
    for u, v, agent in graph.edges:
        item = (node_class[u], node_class[v], agent)
        if item not in class_edges:
            class_edges.append(item)
    return class_nodes, node_class, class_edges


def quotient_synthesis_input(
    graph: DeviationGraph,
) -> tuple[list[tg.LassoRun], list[tuple[int, int, int]]]:
    """The runs and class edges of the graph's run quotient, as
    `synthesize_eliminating_tax` takes them."""
    class_nodes, _, class_edges = reference_quotient(graph)
    return [graph.runs[members[0]] for members in class_nodes], class_edges


def reference_check_eliminable(
    game: tg.Game,
    profiles: Iterable[tg.Profile],
    memory_bound: int,
) -> tuple[DeviationGraph, tg.DynamicTax] | None:
    """The eliminability search on the profile-level deviation graph, the
    reference for `check_eliminable`: depth first over one out-edge per
    target, each target's edges in node order, pruning a choice that
    closes a single-agent cycle on runs.  A full choice is verified on
    Fractions through the public API: the tax synthesized for its run
    quotient makes each edge a strict gain, and no target is Nash under
    it.  Returns the witness graph and its tax, or None."""
    targets = [
        tg.Profile(tuple(tg.canonicalize_machine(m) for m in p.machines))
        for p in profiles
    ]
    if not targets:
        empty = DeviationGraph(nodes=(), runs=(), winners=(), edges=())
        return empty, tg.synthesize_eliminating_tax(game, (), ())
    full = reference_deviation_graph(game, targets, memory_bound)
    node_of = {profile: i for i, profile in enumerate(full.nodes)}
    target_ids = [node_of[p] for p in targets]
    choice_lists = [sorted(e for e in full.edges if e[0] == u) for u in target_ids]
    if not all(choice_lists):
        return None
    _, node_class, _ = reference_quotient(full)

    def closes_cycle(chosen: list[tuple[int, int, int]]) -> bool:
        u, v, agent = chosen[-1]
        adjacency: dict[int, set[int]] = {}
        for a, b, by in chosen[:-1]:
            if by == agent:
                adjacency.setdefault(node_class[a], set()).add(node_class[b])
        stack, seen = [node_class[v]], {node_class[v]}
        while stack:
            cls = stack.pop()
            if cls == node_class[u]:
                return True
            for nxt in adjacency.get(cls, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def verify(chosen) -> tuple[DeviationGraph, tg.DynamicTax] | None:
        kept = sorted({u for u, _, _ in chosen} | {v for _, v, _ in chosen})
        renumber = {old: new for new, old in enumerate(kept)}
        candidate = DeviationGraph(
            nodes=tuple(full.nodes[i] for i in kept),
            runs=tuple(full.runs[i] for i in kept),
            winners=tuple(full.winners[i] for i in kept),
            edges=tuple((renumber[u], renumber[v], a) for u, v, a in sorted(chosen)),
        )
        try:
            tax = tg.synthesize_eliminating_tax(
                game, *quotient_synthesis_input(candidate)
            )
        except (ValueError, tg.ResourceLimitError):
            return None

        def value(node: int, agent: int) -> tg.LexValue:
            return tg.LexValue(
                goal_met=agent in candidate.winners[node],
                cost=tg.taxed_cost(game, candidate.runs[node], tax, agent),
            )

        for u, v, agent in candidate.edges:
            if tg.prefers(value(v, agent), value(u, agent)) <= 0:
                return None
        if any(tg.is_nash(game, target, tax) for target in targets):
            return None
        return candidate, tax

    def search(chosen: list[tuple[int, int, int]]):
        if len(chosen) == len(choice_lists):
            return verify(chosen)
        for edge in choice_lists[len(chosen)]:
            if not closes_cycle(chosen + [edge]):
                found = search(chosen + [edge])
                if found is not None:
                    return found
        return None

    return search([])


def single_agent_observed_cycle(
    graph: DeviationGraph,
) -> tuple[int, tuple[int, ...]] | None:
    """A cycle in the run quotient whose edges all carry one agent, as
    (agent, class cycle), or None.  Classes are numbered as
    `reference_quotient` numbers them.  Self-loops cannot occur because
    edges require distinct runs, so exactly the strongly connected
    components of two or more classes hold cycles."""
    class_nodes, _, class_edges = reference_quotient(graph)
    n_agents = len(graph.nodes[0].machines) if graph.nodes else 0
    for agent in range(n_agents):
        adjacency: list[list[int]] = [[] for _ in class_nodes]
        for source, target, by in class_edges:
            if by == agent:
                adjacency[source].append(target)
        for component in strongly_connected_components(adjacency):
            if len(component) > 1:
                # every member has a successor inside the component, so a
                # walk that stays inside must revisit a class
                members = set(component)
                position: dict[int, int] = {}
                walk: list[int] = []
                cls = component[0]
                while cls not in position:
                    position[cls] = len(walk)
                    walk.append(cls)
                    cls = next(t for t in adjacency[cls] if t in members)
                return agent, tuple(walk[position[cls]:])
    return None
