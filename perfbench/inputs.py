"""Seeded inputs for the benchmark: random games, formulas and documents.

The random games form a fixed corpus drawn from CORPUS_SEED.  A run's seed
does not draw new games: it presents each corpus game as a seeded
isomorphic copy (states, each agent's actions and the propositions renamed
and reordered) and draws the profiles and taxes the commands use.  Random
games differ in cost by orders of magnitude: over five seeds that each drew
fresh games, sweep throughput ranged from 3.6 to 5.2 requests/s and median
latency from 80 to 131 ms.  Isomorphic copies keep the work per run
comparable, while other seeds and later passes of a run still hand the
program relabelled games, with moved state and letter indices.

Formulas are held as nested tuples in the benchmark's own form, rendered to
text for the program and evaluated by `oracle.holds_on_lasso`, so the checks
never share a parser or evaluator with the code they check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from random import Random

CORPUS_SEED = 2307_05076
VOCABULARY = ("p", "q", "r")

# Goal and objective templates.  Every template nests at least one temporal
# operator; together they cover G, F, U and X at depth one to four.
TEMPLATES = (
    ("G", ("F", ("var", "p"))),
    ("F", ("G", ("var", "q"))),
    ("G", ("imp", ("var", "p"), ("F", ("var", "q")))),
    ("G", ("F", ("and", ("var", "p"), ("X", ("var", "q"))))),
    ("F", ("and", ("var", "r"), ("X", ("G", ("not", ("var", "p")))))),
    ("U", ("or", ("var", "p"), ("var", "q")), ("var", "r")),
    ("G", ("imp", ("var", "q"), ("X", ("U", ("var", "p"), ("var", "r"))))),
    ("F", ("G", ("or", ("var", "p"), ("var", "r")))),
    ("G", ("F", ("var", "r"))),
    ("X", ("U", ("var", "p"), ("and", ("var", "q"), ("G", ("F", ("var", "r")))))),
    ("G", ("iff", ("var", "p"), ("X", ("var", "q")))),
    ("or", ("G", ("F", ("var", "q"))), ("F", ("G", ("var", "r")))),
)

# The fixture requests, with their formulas in the benchmark's own form.
FIXTURE_FORMULAS = {
    "G (p <-> q)": ("G", ("iff", ("var", "p"), ("var", "q"))),
    "F G q": ("F", ("G", ("var", "q"))),
    "G F p": ("G", ("F", ("var", "p"))),
    "G !c": ("G", ("not", ("var", "c"))),
    "F (b_0 | b_1)": ("F", ("or", ("var", "b_0"), ("var", "b_1"))),
}

ACTION_SHAPES = ((3, 3), (3, 4), (4, 3), (4, 4))

_BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->", "U": "U"}


def render(formula: tuple) -> str:
    """Fully parenthesised text in the program's LTL syntax."""
    op = formula[0]
    if op == "var":
        return formula[1]
    if op == "not":
        return "!" + _operand(formula[1])
    if op in ("X", "F", "G"):
        return op + " " + _operand(formula[1])
    return f"{_operand(formula[1])} {_BINARY[op]} {_operand(formula[2])}"


def _operand(formula: tuple) -> str:
    text = render(formula)
    return text if formula[0] == "var" else f"({text})"


def rename(formula: tuple, names: dict) -> tuple:
    if formula[0] == "var":
        return ("var", names[formula[1]])
    return (formula[0],) + tuple(rename(f, names) for f in formula[1:])


def random_cost(rng: Random) -> Fraction:
    """Integers 0..6 and halves or thirds below 6, so Fraction work shows."""
    if rng.random() < 0.6:
        return Fraction(rng.randint(0, 6))
    den = rng.choice((2, 3))
    return Fraction(rng.randint(1, 6 * den - 1), den)


def random_game_spec(
    rng: Random, n_states: int, shape: tuple[int, int], objective: tuple
) -> dict:
    """A two-agent game as plain data: random successors, labels over
    p, q, r, integer and rational costs, and goals drawn from the pool."""
    states = [f"s{i}" for i in range(n_states)]
    actions = (
        [f"x{i}" for i in range(shape[0])],
        [f"y{i}" for i in range(shape[1])],
    )
    labels = {s: [v for v in VOCABULARY if rng.random() < 0.45] for s in states}
    cells = {}
    for s in states:
        for combo in product(*actions):
            cells[(s, combo)] = (
                rng.choice(states),
                (random_cost(rng), random_cost(rng)),
            )
    return {
        "states": states,
        "initial": states[0],
        "actions": actions,
        "labels": labels,
        "cells": cells,
        "goals": (rng.choice(TEMPLATES), rng.choice(TEMPLATES)),
        "objective": objective,
    }


def corpus(count: int) -> list[dict]:
    """The first count games of the fixed corpus.  Each block of 36 holds
    every (state count 4..12, action shape) pair once and every template
    three times as objective."""
    rng = Random(CORPUS_SEED)
    specs = []
    while len(specs) < count:
        shapes = [(n, a) for n in range(4, 13) for a in ACTION_SHAPES]
        objectives = list(TEMPLATES) * 3
        rng.shuffle(shapes)
        rng.shuffle(objectives)
        for (n_states, shape), objective in zip(shapes, objectives):
            specs.append(random_game_spec(rng, n_states, shape, objective))
    return specs[:count]


def _shuffled(rng: Random, names) -> dict:
    names = list(names)
    images = names[:]
    rng.shuffle(images)
    return dict(zip(names, images))


def present(spec: dict, rng: Random) -> dict:
    """A seeded isomorphic copy of a game spec: state, action and
    proposition names permuted (so letter and state indices move), with
    labels, transitions and formulas renamed to match."""
    states = _shuffled(rng, spec["states"])
    acts = [_shuffled(rng, names) for names in spec["actions"]]
    props = _shuffled(rng, VOCABULARY)
    return {
        "states": spec["states"],
        "initial": states[spec["initial"]],
        "actions": spec["actions"],
        "labels": {
            states[s]: sorted(props[v] for v in names)
            for s, names in spec["labels"].items()
        },
        "cells": {
            (states[s], tuple(m[a] for m, a in zip(acts, combo))):
                (states[target], cost)
            for (s, combo), (target, cost) in spec["cells"].items()
        },
        "goals": tuple(rename(g, props) for g in spec["goals"]),
        "objective": rename(spec["objective"], props),
    }


def build_game(tg, spec: dict):
    """The library game for a spec, built through the public constructors."""
    arena = tg.make_arena(
        states=spec["states"],
        vocabulary=VOCABULARY,
        agents=["agent1", "agent2"],
        actions={"agent1": spec["actions"][0], "agent2": spec["actions"][1]},
        labels=spec["labels"],
        transitions={key: cell[0] for key, cell in spec["cells"].items()},
        costs={key: cell[1] for key, cell in spec["cells"].items()},
        initial=spec["initial"],
    )
    return tg.make_game(arena, [render(g) for g in spec["goals"]])


def random_machine(rng: Random, size: int, n_actions: int, n_letters: int) -> tuple:
    """(outputs, transitions) of a machine with the given state count."""
    outputs = [rng.randrange(n_actions) for _ in range(size)]
    transitions = [
        [rng.randrange(size) for _ in range(n_letters)] for _ in range(size)
    ]
    return outputs, transitions


def random_dynamic_tax(tg, rng: Random, size: int, n_states: int, n_letters: int):
    """A tax machine with the given state count rating about a third of
    the cells."""
    outputs = []
    for _ in range(size):
        rates = {
            (s, a): (random_cost(rng) / 2, random_cost(rng) / 2)
            for s in range(n_states)
            for a in range(n_letters)
            if rng.random() < 0.3
        }
        outputs.append(tg.static_tax(2, rates))
    transitions = tuple(
        tuple(rng.randrange(size) for _ in range(n_letters)) for _ in range(size)
    )
    return tg.DynamicTax(outputs=tuple(outputs), transitions=transitions)
