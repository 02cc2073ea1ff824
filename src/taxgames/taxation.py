"""Static and dynamic taxation schemes.

A static tax is a non-negative per-agent surcharge on (state, action-profile)
cells, applied identically at every occurrence.  A dynamic tax is a Moore
machine reading action profiles and emitting a static tax each step, which
makes the surcharge history-dependent.  A run read by a tax machine is
ultimately periodic in (run position, tax state) pairs (see _joint_walk);
what it costs is summed over that joint cycle by equilibrium._Responses,
from the one step-cost table of a (game, tax).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping

from .arena import Arena, Game, _cost_ceilings, to_fraction
from .errors import AlphabetMismatchError
from .strategy import LassoRun, RunStep


@dataclass(frozen=True)
class StaticTax:
    """entries holds (state, letter, vector) triples sorted by cell, with
    all-zero vectors dropped; unlisted cells are untaxed.  entries is the
    serialised form; rate() reads a cell table built from it on first use."""

    n_agents: int
    entries: tuple[tuple[int, int, tuple[Fraction, ...]], ...]

    @cached_property
    def _table(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        return {(s, a): vector for s, a, vector in self.entries}

    @cached_property
    def _zero(self) -> tuple[Fraction, ...]:
        return (Fraction(0),) * self.n_agents

    @cached_property
    def _scale(self) -> int:
        """The lcm of every rate denominator; a vector that cells share is
        read once."""
        vectors = {id(v): v for _, _, v in self.entries}.values()
        return lcm(*(x.denominator for v in vectors for x in v))

    def rate(self, state: int, letter: int) -> tuple[Fraction, ...]:
        return self._table.get((state, letter), self._zero)

    def is_zero(self) -> bool:
        return not self.entries


def static_tax(
    n_agents: int,
    rates: Mapping[tuple[int, int], Iterable[object]],
) -> StaticTax:
    """Normalize a cell-to-vector mapping into a StaticTax."""
    entries = []
    for (state, letter), raw in rates.items():
        vector = tuple(to_fraction(x) for x in raw)
        if len(vector) != n_agents:
            raise ValueError(
                f"tax vector for ({state}, {letter}) has arity {len(vector)}, "
                f"want {n_agents}"
            )
        if any(x < 0 for x in vector):
            raise ValueError(f"negative tax at ({state}, {letter}): {vector}")
        if any(vector):
            entries.append((state, letter, vector))
    entries.sort(key=lambda e: (e[0], e[1]))
    return StaticTax(n_agents=n_agents, entries=tuple(entries))


def zero_tax(n_agents: int) -> StaticTax:
    return StaticTax(n_agents=n_agents, entries=())


def add_static(first: StaticTax, second: StaticTax) -> StaticTax:
    """The cellwise sum.  Both operands hold non-negative, nonzero vectors
    already, and so does their sum, so it needs no static_tax checks.  When
    one operand has no entries the sum is the other operand itself, so its
    cached cell table and scale are shared."""
    if first.n_agents != second.n_agents:
        raise AlphabetMismatchError("static taxes tax different agent counts")
    if not first.entries:
        return second
    if not second.entries:
        return first
    combined: dict[tuple[int, int], tuple[Fraction, ...]] = {
        (s, a): vector for s, a, vector in first.entries
    }
    for s, a, vector in second.entries:
        if (s, a) in combined:
            old = combined[(s, a)]
            combined[(s, a)] = tuple(x + y for x, y in zip(old, vector))
        else:
            combined[(s, a)] = vector
    entries = tuple((s, a, vector) for (s, a), vector in sorted(combined.items()))
    return StaticTax(n_agents=first.n_agents, entries=entries)


def apply_static(game: Game, tax: StaticTax) -> Game:
    """A copy of the game with the tax folded into the cost table."""
    arena = game.arena
    check_tax(arena, lift_static(tax, arena.n_letters))
    cost = [list(row) for row in arena.cost]
    for s, a, vector in tax.entries:
        cost[s][a] = tuple(x + y for x, y in zip(cost[s][a], vector))
    taxed = replace(arena, cost=tuple(tuple(row) for row in cost))
    return replace(game, arena=taxed)


@dataclass(frozen=True)
class DynamicTax:
    """Moore machine over action-profile letters; outputs[q] is the static
    tax charged while in machine state q.  Initial state is 0."""

    outputs: tuple[StaticTax, ...]
    transitions: tuple[tuple[int, ...], ...]

    @property
    def n_states(self) -> int:
        return len(self.outputs)

    @property
    def n_agents(self) -> int:
        return self.outputs[0].n_agents

    def next_state(self, state: int, letter: int) -> int:
        return self.transitions[state][letter]


def lift_static(tax: StaticTax, n_letters: int = 1) -> DynamicTax:
    """One-state machine outputting the static tax forever.

    The machine ignores its input, so a single self-loop per letter is
    enough; n_letters only sizes the transition row.
    """
    return DynamicTax(
        outputs=(tax,),
        transitions=((0,) * max(1, n_letters),),
    )


def check_tax(arena: Arena, tax: DynamicTax) -> None:
    """Raise AlphabetMismatchError unless the tax machine has a state, one
    transition row per state with targets among its states, covers the
    arena's agents, reads its letters and rates only its cells."""
    rows = tax.transitions
    if not tax.outputs or len(rows) != tax.n_states:
        raise AlphabetMismatchError(
            f"tax machine has {len(rows)} transition rows for "
            f"{tax.n_states} states"
        )
    if tax.n_agents != arena.n_agents:
        raise AlphabetMismatchError(
            f"tax covers {tax.n_agents} agents, game has {arena.n_agents}"
        )
    n_states, n_letters = arena.n_states, arena.n_letters
    for q, row in enumerate(rows):
        if len(row) != n_letters:
            raise AlphabetMismatchError(
                f"tax machine state {q} reads {len(row)} letters, "
                f"game has {n_letters}"
            )
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= tax.n_states:
        raise AlphabetMismatchError(
            f"tax machine moves to a state outside 0..{tax.n_states - 1}"
        )
    # an output object that many tax states share is read once
    seen: set[int] = set()
    for q, output in enumerate(tax.outputs):
        if id(output) in seen:
            continue
        seen.add(id(output))
        for state, letter, _ in output.entries:
            if not (0 <= state < n_states and 0 <= letter < n_letters):
                raise AlphabetMismatchError(
                    f"tax machine state {q} rates unknown cell "
                    f"({state}, {letter})"
                )


def compose_tax(dynamic: DynamicTax, extra: StaticTax) -> DynamicTax:
    """Add a static tax on top of every output of a dynamic scheme.  Each
    distinct output object is summed once, and the states that share it
    share the sum."""
    if not dynamic.outputs:
        raise AlphabetMismatchError("tax machine has no states")
    if dynamic.n_agents != extra.n_agents:
        raise AlphabetMismatchError("composed taxes cover different agent counts")
    sums: dict[int, StaticTax] = {}
    for out in dynamic.outputs:
        if id(out) not in sums:
            sums[id(out)] = add_static(out, extra)
    return DynamicTax(
        outputs=tuple(sums[id(out)] for out in dynamic.outputs),
        transitions=dynamic.transitions,
    )


def uniform_levelling_tax(game: Game, level: object) -> StaticTax:
    """The tax that tops every cost entry up to a uniform level per agent.

    Requires level at least the largest per-step cost of any agent, so all
    surcharges are non-negative; the taxed game then charges exactly level
    to every agent on every step.  The Fraction arithmetic runs once per
    distinct cost vector object, not once per cell.
    """
    target = to_fraction(level)
    ceiling = _cost_ceiling(game.arena)
    if target < ceiling:
        raise ValueError(
            f"level {target} is below the maximum per-step cost {ceiling}"
        )
    return _levelling_tax(game.arena, target)


def _cost_ceiling(arena: Arena) -> Fraction:
    """The largest per-step cost of any agent, and at least 0."""
    return max(_cost_ceilings(arena), default=Fraction(0))


def _levelling_tax(arena: Arena, target: Fraction) -> StaticTax:
    """uniform_levelling_tax for a level already checked against the
    ceiling.  Its surcharges are non-negative Fractions by that check and
    its cells come in sorted order, so the entries are built as static_tax
    would leave them.  A surcharge is target - cost, computed on the
    integer cost table over the lcm of its scale and the target's
    denominator; each integer cost vector object gets its surcharge once,
    keyed by identity (None when it is all zero), each distinct integer
    surcharge its Fraction once, and each cost row object its (letter,
    surcharge) template once; states that share the row emit their entries
    from the shared template."""
    costs = arena._integer_costs
    scale = lcm(costs.scale, target.denominator)
    factor = scale // costs.scale
    level = target.numerator * (scale // target.denominator)
    fractions: dict[int, Fraction] = {}

    def fraction(surcharge: int) -> Fraction:
        found = fractions.get(surcharge)
        if found is None:
            found = fractions[surcharge] = Fraction(surcharge, scale)
        return found

    surcharges: dict[int, tuple[Fraction, ...] | None] = {}
    templates: dict[int, list[tuple[int, tuple[Fraction, ...]]]] = {}
    entries = []
    for s, row in enumerate(costs.rows):
        template = templates.get(id(row))
        if template is None:
            template = templates[id(row)] = []
            for letter, base in enumerate(row):
                key = id(base)
                if key not in surcharges:
                    rest = [level - x * factor for x in base]
                    surcharges[key] = (
                        tuple([fraction(r) for r in rest]) if any(rest) else None
                    )
                vector = surcharges[key]
                if vector is not None:
                    template.append((letter, vector))
        entries.extend([(s, letter, vector) for letter, vector in template])
    return StaticTax(n_agents=arena.n_agents, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Taxes along runs


def _joint_walk(
    run: LassoRun, tax: DynamicTax
) -> tuple[list[tuple[RunStep, int]], int]:
    """The run's steps, each with the tax state it is read in, up to the
    first repeated (run position, tax state) pair, and the index in that
    walk where the joint cycle starts.

    Such pairs are ultimately periodic because both components are; the
    joint cycle can be longer than the run's.
    """
    steps = run.prefix + run.cycle
    wrap = len(run.prefix)
    pair = (0, 0)
    seen: dict[tuple[int, int], int] = {}
    walk: list[tuple[RunStep, int]] = []
    while pair not in seen:
        seen[pair] = len(walk)
        pos, q = pair
        step = steps[pos]
        walk.append((step, q))
        nxt = pos + 1 if pos + 1 < len(steps) else wrap
        pair = (nxt, tax.next_state(q, step.letter))
    return walk, seen[pair]
