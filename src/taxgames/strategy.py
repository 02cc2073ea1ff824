"""Finite-state strategies, lasso runs, and bounded strategy enumeration.

A strategy machine is a deterministic Moore machine whose input letters are
the arena's joint action profiles (indexed as in Arena) and whose outputs
are the owning agent's action indices.  The machine's initial state is
always 0.  A profile of machines enacted in an arena yields exactly one
ultimately periodic run, represented as a lasso and compared via a canonical
normal form.  A run step is just the arena state and the letter played
there: what it costs is read from the game and the tax (see equilibrium),
so a game and a copy of it with other costs give equal runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, NamedTuple

from .arena import Arena
from .errors import AlphabetMismatchError, ResourceLimitError
from .ltl import LabelTrace


@dataclass(frozen=True)
class StrategyMachine:
    """outputs[q] is the action index played in machine state q;
    transitions[q][letter] is the next machine state.  Initial state is 0."""

    outputs: tuple[int, ...]
    transitions: tuple[tuple[int, ...], ...]

    @property
    def n_states(self) -> int:
        return len(self.outputs)


@dataclass(frozen=True)
class Profile:
    machines: tuple[StrategyMachine, ...]

    def __len__(self) -> int:
        return len(self.machines)

    def replace(self, agent: int, machine: StrategyMachine) -> "Profile":
        machines = list(self.machines)
        machines[agent] = machine
        return Profile(tuple(machines))


class RunStep(NamedTuple):
    state: int
    letter: int


@dataclass(frozen=True)
class LassoRun:
    """prefix then infinitely repeated nonempty cycle of run steps."""

    prefix: tuple[RunStep, ...]
    cycle: tuple[RunStep, ...]

    def __len__(self) -> int:
        return len(self.prefix) + len(self.cycle)


def check_profile(arena: Arena, profile: Profile) -> None:
    """Raise AlphabetMismatchError unless the profile has one machine per
    agent, and each has a state, one transition row per state reading the
    arena's letters, targets among its states and outputs among its
    agent's actions."""
    if len(profile.machines) != arena.n_agents:
        raise AlphabetMismatchError(
            f"profile has {len(profile.machines)} machines for "
            f"{arena.n_agents} agents"
        )
    n_letters = arena.n_letters
    for i, machine in enumerate(profile.machines):
        where = f"machine of agent {arena.agents[i]}"
        n_states, rows = machine.n_states, machine.transitions
        if not n_states or len(rows) != n_states:
            raise AlphabetMismatchError(
                f"{where} has {len(rows)} transition rows for {n_states} states"
            )
        limit = len(arena.actions[i])
        if min(machine.outputs) < 0 or max(machine.outputs) >= limit:
            raise AlphabetMismatchError(
                f"{where} outputs an action outside its {limit} actions"
            )
        for row in rows:
            if len(row) != n_letters:
                raise AlphabetMismatchError(
                    f"{where} reads {len(row)} letters, arena has {n_letters}"
                )
        if min(map(min, rows)) < 0 or max(map(max, rows)) >= n_states:
            raise AlphabetMismatchError(
                f"{where} moves to a state outside 0..{n_states - 1}"
            )


def generate_run(arena: Arena, profile: Profile) -> LassoRun:
    """Simulate the joint configuration until it repeats; split the step
    sequence at the first repeated configuration into prefix and cycle."""
    check_profile(arena, profile)
    return _generate_run(arena, profile)


def _generate_run(arena: Arena, profile: Profile) -> LassoRun:
    """generate_run for a profile that fits the arena, such as every
    profile enumerate_profiles yields.  A letter is the sum of each
    machine's output times its agent's letter stride (see Arena)."""
    machines = [
        (m.outputs, m.transitions, stride)
        for m, stride in zip(profile.machines, arena._strides)
    ]
    transition = arena.transition
    state = arena.initial
    memory = (0,) * len(machines)
    config = (state, memory)
    seen: dict[tuple[int, tuple[int, ...]], int] = {}
    steps: list[RunStep] = []
    while config not in seen:
        seen[config] = len(steps)
        letter = sum(
            [outputs[q] * stride for (outputs, _, stride), q in zip(machines, memory)]
        )
        steps.append(RunStep(state, letter))
        memory = tuple([table[q][letter] for (_, table, _), q in zip(machines, memory)])
        state = transition[state][letter]
        config = (state, memory)
    split = seen[config]
    return LassoRun(prefix=tuple(steps[:split]), cycle=tuple(steps[split:]))


def lasso_canonical(run: LassoRun) -> LassoRun:
    """Unique normal form of the infinite step sequence.

    First absorb the prefix tail into the cycle (rotating the cycle right
    whenever the last prefix step equals the last cycle step), which yields
    the shortest possible prefix; then cut the cycle to its minimal period.
    Minimal-period reduction keeps the last element, so the two stages
    cannot re-enable each other.
    """
    prefix = list(run.prefix)
    cycle = list(run.cycle)
    if not cycle:
        raise ValueError("lasso cycle must be nonempty")
    while prefix and prefix[-1] == cycle[-1]:
        prefix.pop()
        cycle = [cycle[-1]] + cycle[:-1]
    length = len(cycle)
    for period in range(1, length + 1):
        if length % period:
            continue
        if cycle == cycle[:period] * (length // period):
            cycle = cycle[:period]
            break
    return LassoRun(prefix=tuple(prefix), cycle=tuple(cycle))


def check_run(arena: Arena, run: LassoRun) -> None:
    """Raise ValueError unless the run fits the arena: its cycle is
    nonempty, and every step's state and letter are the arena's."""
    if not run.cycle:
        raise ValueError("run cycle must be nonempty")
    n_states, n_letters = arena.n_states, arena.n_letters
    for step in (*run.prefix, *run.cycle):
        if not 0 <= step.state < n_states:
            raise ValueError(
                f"run visits state {step.state}, outside 0..{n_states - 1}"
            )
        if not 0 <= step.letter < n_letters:
            raise ValueError(
                f"run plays letter {step.letter}, outside 0..{n_letters - 1}"
            )


def label_trace(arena: Arena, run: LassoRun) -> LabelTrace:
    """The run's label word; the run must fit the arena (see check_run)."""
    check_run(arena, run)
    return _label_trace(arena, run)


def _label_trace(arena: Arena, run: LassoRun) -> LabelTrace:
    """label_trace of a run that fits the arena by construction, as the
    runs of _generate_run do."""
    labels = arena.labels
    return LabelTrace(
        prefix=tuple([labels[step.state] for step in run.prefix]),
        cycle=tuple([labels[step.state] for step in run.cycle]),
    )


# ---------------------------------------------------------------------------
# Canonical enumeration of bounded-memory machines


def canonicalize_machine(machine: StrategyMachine) -> StrategyMachine:
    """Drop unreachable states and renumber the rest in first-reference
    order (scanning rows by state, then by letter).  Two machines are
    isomorphic (same outputs and transitions up to renaming, initial fixed)
    iff their canonical forms are equal."""
    order = [0]
    numbering = {0: 0}
    cursor = 0
    while cursor < len(order):
        q = order[cursor]
        cursor += 1
        for target in machine.transitions[q]:
            if target not in numbering:
                numbering[target] = len(order)
                order.append(target)
    outputs = tuple(machine.outputs[q] for q in order)
    transitions = tuple(
        tuple(numbering[t] for t in machine.transitions[q]) for q in order
    )
    return StrategyMachine(outputs=outputs, transitions=transitions)


def _transition_structures(
    m: int, n_letters: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All canonical transition tables with exactly m reachable states.

    Cells are filled in row-major order; a cell may reference one state
    beyond the highest seen so far (which creates it), so every table comes
    out already in first-reference numbering, each exactly once.
    """
    total = m * n_letters
    cells = [-1] * total
    # tops[f]: the highest state referenced by cells[:f]
    tops = [0] * (total + 1)
    f = 0
    while f >= 0:
        top = tops[f]
        if f == total:
            if top == m - 1:
                yield tuple(
                    tuple(cells[i * n_letters:(i + 1) * n_letters])
                    for i in range(m)
                )
            f -= 1
        elif (
            f % n_letters == 0 and top < f // n_letters
            or (m - 1) - top > total - f
            or cells[f] == min(top + 1, m - 1)
        ):
            # pruned or exhausted: back to the previous cell
            cells[f] = -1
            f -= 1
        else:
            cells[f] += 1
            tops[f + 1] = max(top, cells[f])
            f += 1


def enumerate_machines(
    n_actions: int, n_letters: int, memory_bound: int
) -> Iterator[StrategyMachine]:
    """All canonical machines with at most memory_bound states, every state
    reachable, in deterministic order (by state count, then structure, then
    outputs in action order)."""
    if memory_bound < 1:
        raise ValueError("memory bound must be at least 1")
    for m in range(1, memory_bound + 1):
        for structure in _transition_structures(m, n_letters):
            for outputs in product(range(n_actions), repeat=m):
                yield StrategyMachine(outputs=outputs, transitions=structure)


def _universes(
    arena: Arena, memory_bound: int, cap: int | None
) -> list[list[StrategyMachine]]:
    """Each agent's canonical machine universe, in enumeration order.
    Raises when one agent alone has more than cap machines, checked while
    they are enumerated, or when the profile count would exceed the cap;
    a cap of None checks neither."""
    n_letters = arena.n_letters
    universes: list[list[StrategyMachine]] = []
    for i in range(arena.n_agents):
        machines: list[StrategyMachine] = []
        for machine in enumerate_machines(
            len(arena.actions[i]), n_letters, memory_bound
        ):
            machines.append(machine)
            if cap is not None and len(machines) > cap:
                raise ResourceLimitError(
                    f"agent {arena.agents[i]} alone has more than {cap} "
                    f"machines at memory bound {memory_bound}"
                )
        universes.append(machines)
    size = 1
    for machines in universes:
        size *= len(machines)
    if cap is not None and size > cap:
        raise ResourceLimitError(
            f"{size} profiles at memory bound {memory_bound} exceeds cap {cap}"
        )
    return universes


def enumerate_profiles(
    arena: Arena, memory_bound: int, cap: int = 10**7
) -> Iterator[Profile]:
    """Cartesian product of the per-agent canonical machine universes,
    yielded lazily in deterministic order.  Raises when the profile count
    would exceed the cap."""
    for combo in product(*_universes(arena, memory_bound, cap)):
        yield Profile(machines=combo)
