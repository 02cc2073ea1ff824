"""Static and dynamic taxation schemes and taxed limit-average costs.

A static tax is a non-negative per-agent surcharge on (state, action-profile)
cells, applied identically at every occurrence.  A dynamic tax is a Moore
machine reading action profiles and emitting a static tax each step, which
makes the surcharge history-dependent.  Costs of lasso runs are exact cycle
means; for ultimately periodic step sequences the liminf of running averages
equals that mean, so nothing is approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping

from .arena import Arena, Game, max_cost, to_fraction
from .errors import AlphabetMismatchError
from .strategy import LassoRun, run_at


@dataclass(frozen=True)
class StaticTax:
    """entries holds (state, letter, vector) triples sorted by cell, with
    all-zero vectors dropped; unlisted cells are untaxed."""

    n_agents: int
    entries: tuple[tuple[int, int, tuple[Fraction, ...]], ...]

    def rate(self, state: int, letter: int) -> tuple[Fraction, ...]:
        for s, a, vector in self.entries:
            if s == state and a == letter:
                return vector
        return tuple(Fraction(0) for _ in range(self.n_agents))

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
    if first.n_agents != second.n_agents:
        raise AlphabetMismatchError("static taxes tax different agent counts")
    combined: dict[tuple[int, int], tuple[Fraction, ...]] = {
        (s, a): vector for s, a, vector in first.entries
    }
    for s, a, vector in second.entries:
        if (s, a) in combined:
            old = combined[(s, a)]
            combined[(s, a)] = tuple(x + y for x, y in zip(old, vector))
        else:
            combined[(s, a)] = vector
    return static_tax(first.n_agents, combined)


def apply_static(game: Game, tax: StaticTax) -> Game:
    """A copy of the game with the tax folded into the cost table."""
    arena = game.arena
    check_tax(arena, lift_static(tax, arena.n_letters))
    cost = [list(row) for row in arena.cost]
    for s, a, vector in tax.entries:
        base = cost[s][a]
        if base is not None:
            cost[s][a] = tuple(x + y for x, y in zip(base, vector))
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
    """Raise AlphabetMismatchError unless the tax machine covers the arena's
    agents, reads its letters and rates only its cells."""
    if tax.n_agents != arena.n_agents:
        raise AlphabetMismatchError(
            f"tax covers {tax.n_agents} agents, game has {arena.n_agents}"
        )
    n_letters = arena.n_letters
    for q, row in enumerate(tax.transitions):
        if len(row) != n_letters:
            raise AlphabetMismatchError(
                f"tax machine state {q} reads {len(row)} letters, "
                f"game has {n_letters}"
            )
    for q, output in enumerate(tax.outputs):
        for state, letter, _ in output.entries:
            if not (0 <= state < arena.n_states and 0 <= letter < n_letters):
                raise AlphabetMismatchError(
                    f"tax machine state {q} rates unknown cell "
                    f"({state}, {letter})"
                )


def compose_tax(dynamic: DynamicTax, extra: StaticTax) -> DynamicTax:
    """Add a static tax on top of every output of a dynamic scheme."""
    if dynamic.n_agents != extra.n_agents:
        raise AlphabetMismatchError("composed taxes cover different agent counts")
    return DynamicTax(
        outputs=tuple(add_static(out, extra) for out in dynamic.outputs),
        transitions=dynamic.transitions,
    )


def uniform_levelling_tax(game: Game, level: object) -> StaticTax:
    """The tax that tops every cost entry up to a uniform level per agent.

    Requires level at least the largest per-step cost of any agent, so all
    surcharges are non-negative; the taxed game then charges exactly level
    to every agent on every step.
    """
    arena = game.arena
    target = to_fraction(level)
    ceiling = max(
        (max_cost(game, i) for i in range(arena.n_agents)),
        default=Fraction(0),
    )
    if target < ceiling:
        raise ValueError(
            f"level {target} is below the maximum per-step cost {ceiling}"
        )
    rates: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for s in range(arena.n_states):
        for letter in arena.letters():
            base = arena.cost[s][letter]
            if base is None:
                raise ValueError("game must be total")
            rates[(s, letter)] = tuple(target - x for x in base)
    return static_tax(arena.n_agents, rates)


# ---------------------------------------------------------------------------
# Taxes along runs


def _check_run_tax(run: LassoRun, tax: DynamicTax) -> None:
    arity = len(run.cycle[0].costs) if run.cycle else 0
    if tax.n_agents != arity:
        raise AlphabetMismatchError(
            f"tax covers {tax.n_agents} agents, run has {arity}"
        )


def _joint_lasso(
    run: LassoRun, tax: DynamicTax
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Pairs (run position, tax state) split into prefix and cycle.

    Run positions are the canonical len(prefix)+len(cycle) indices with the
    usual wrap; the joint sequence is ultimately periodic because both
    components are.
    """
    total = len(run.prefix) + len(run.cycle)
    wrap = len(run.prefix)
    pair = (0, 0)
    seen: dict[tuple[int, int], int] = {}
    sequence: list[tuple[int, int]] = []
    while pair not in seen:
        seen[pair] = len(sequence)
        sequence.append(pair)
        pos, q = pair
        step = run_at(run, pos)
        nxt = pos + 1 if pos + 1 < total else wrap
        pair = (nxt, tax.next_state(q, step.letter))
    split = seen[pair]
    return sequence[:split], sequence[split:]


def tax_sequence(
    run: LassoRun, tax: DynamicTax
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[tuple[Fraction, ...], ...]]:
    """Per-step tax vectors along the run, as a (prefix, cycle) lasso."""
    _check_run_tax(run, tax)

    def vector(pair: tuple[int, int]) -> tuple[Fraction, ...]:
        pos, q = pair
        step = run_at(run, pos)
        return tax.outputs[q].rate(step.state, step.letter)

    head, loop = _joint_lasso(run, tax)
    return tuple(vector(p) for p in head), tuple(vector(p) for p in loop)


def tax_state_trace(
    run: LassoRun, tax: DynamicTax
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Tax machine states along the run, as a (prefix, cycle) lasso."""
    _check_run_tax(run, tax)
    head, loop = _joint_lasso(run, tax)
    return tuple(q for _, q in head), tuple(q for _, q in loop)


def taxed_cost(run: LassoRun, tax: DynamicTax | None, agent: int) -> Fraction:
    """Exact limit-average taxed cost of one agent along the run.

    The per-step taxed cost sequence is ultimately periodic, so the liminf
    of running averages is the plain mean over the joint cycle; the prefix
    contributes nothing.
    """
    if tax is None:
        total = sum(step.costs[agent] for step in run.cycle)
        return Fraction(total, len(run.cycle))
    _check_run_tax(run, tax)
    _, loop = _joint_lasso(run, tax)
    total = Fraction(0)
    for pos, q in loop:
        step = run_at(run, pos)
        total += step.costs[agent] + tax.outputs[q].rate(step.state, step.letter)[agent]
    return Fraction(total, len(loop))


def truncated_mean(
    run: LassoRun, tax: DynamicTax | None, agent: int, t: int
) -> Fraction:
    """Average taxed cost over steps 0..t inclusive."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if tax is None:
        total = sum(run_at(run, k).costs[agent] for k in range(t + 1))
        return Fraction(total, t + 1)
    _check_run_tax(run, tax)
    total = Fraction(0)
    q = 0
    for k in range(t + 1):
        step = run_at(run, k)
        total += step.costs[agent] + tax.outputs[q].rate(step.state, step.letter)[agent]
        q = tax.next_state(q, step.letter)
    return Fraction(total, t + 1)
