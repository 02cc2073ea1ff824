"""Eliminability on run classes, taxation-scheme synthesis, and the
implementation drivers.

An initial deviation is a unilateral machine change that visibly changes the
run and never turns the deviating agent from a winner into a loser.  A tax
machine reads only letters, so it tells runs apart but not the profiles that
play them: eliminability is decided on runs.  Given distinct runs and
deviations among them as (source, target, agent) edges, with no cycle of
edges by one single agent, a dynamic tax can be synthesized under which
every edge's agent pays strictly less on the target run than on the source
run.  A targeted profile whose run is a source, with an initial deviation
to the edge's target run, is then no equilibrium.

The synthesized machine classifies the observed action-profile word among
the finitely many runs and, once the word is pinned down, adds a constant
per-step surcharge on that run's cycle cells.  The surcharge for agent i is
d·(c_i*+1), where d is the length of the longest chain of i-edges leaving
the run and c_i* the agent's maximum step cost; along any i-edge d drops by
at least one, so the taxed costs of source and target differ by at least
(c_i*+1) - c_i* = 1 in the target's favour.

Levelled game.  A yes verdict's witness tax is the uniform levelling tax
at the cost ceiling λ, with a_nash_implement's eliminator X composed on
top when it needs one.  Cell by cell the game under it charges cost +
(λ - cost) + X = λ + X, as Fractions: exactly the levelled game, every
cost cell at λ, taxed by X alone.  So the drivers check their witnesses,
and a_nash_implement runs its final sweep, on one memo of the levelled
game (_levelled_responses, taxed by X when there is one), which decides
what a check under the per-cell witness tax decides, with no levelling
table read; the witness tax is built only for a yes.  Every step of the
levelled game costs the floor λ, so an agent that wins its goal on a
cycle that X does not surcharge needs no product graph.  verify_witness,
for outside callers, checks the per-cell tax it is given on its own memo,
and so agrees with the drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product, repeat
from typing import Iterable, Sequence

from ._graphs import strongly_connected_components
from .arena import (
    Game,
    _check_agent,
    _cost_ceilings,
    _uniform_cost_game,
    zero_cost_game,
)
from .errors import ResourceLimitError, SearchLimitError
from .ltl import Formula, Not, to_text
from .strategy import (
    LassoRun,
    Profile,
    StrategyMachine,
    canonicalize_machine,
    check_profile,
)
from .taxation import (
    DynamicTax,
    StaticTax,
    _cost_ceiling,
    _levelling_tax,
    compose_tax,
    lift_static,
    static_tax,
    zero_tax,
)
from .equilibrium import (
    _beats,
    _nash_sweep,
    _no_agent_improves,
    _play,
    _Plays,
    _Responses,
)


def _canonical(profile: Profile) -> Profile:
    return Profile(tuple(canonicalize_machine(m) for m in profile.machines))


def initial_deviation(
    game: Game, profile: Profile, agent: int, alt: StrategyMachine
) -> bool:
    """Whether switching one agent to alt is an initial deviation: the run
    changes, and the agent keeps winning if it was winning.  Goal verdicts
    only depend on the label trace, never on costs."""
    _check_agent(game.arena, agent)
    deviated = profile.replace(agent, alt)
    check_profile(game.arena, profile)
    check_profile(game.arena, deviated)
    run, _, source = _play(game, profile)
    other, _, target = _play(game, deviated)
    return _edge_ok(agent, run == other, source, target)


def _edge_ok(
    agent: int, same_run: bool, source: frozenset[int], target: frozenset[int]
) -> bool:
    """Whether the agent's switch from one profile to another is an
    initial deviation: same_run tells whether their runs are equal, and
    source and target are their goal winners.  On a run-class table, runs
    are equal exactly when their classes are."""
    return not same_run and (agent not in source or agent in target)


# ---------------------------------------------------------------------------
# Tax synthesis


def _chain_lengths(
    n_runs: int, n_agents: int, edges: Iterable[tuple[int, int, int]]
) -> list[list[int]]:
    """lengths[i][r]: the length in edges of the longest path of agent-i
    edges that starts at run r.  Raises ValueError for an edge outside the
    runs or agents, or naming the first agent whose edges close a cycle."""
    # adjacencies[i][r] lists the runs that agent-i edges lead to from r
    adjacencies = [[[] for _ in range(n_runs)] for _ in range(n_agents)]
    runs = range(n_runs)
    for source, target, agent in edges:
        if not (source in runs and target in runs and 0 <= agent < n_agents):
            raise ValueError(
                f"edge {(source, target, agent)} is outside {n_runs} runs "
                f"and {n_agents} agents"
            )
        adjacencies[agent][source].append(target)
    lengths = []
    for agent, adjacency in enumerate(adjacencies):
        # components come successors first; a cycle lies inside one of two
        # or more runs, or is a run's edge to itself
        depth = [0] * n_runs
        for component in strongly_connected_components(adjacency):
            r = component[0]
            if len(component) > 1 or r in adjacency[r]:
                raise ValueError(
                    f"single-agent observed cycle for agent {agent}: "
                    "no acyclic surcharge assignment exists"
                )
            depth[r] = max((1 + depth[t] for t in adjacency[r]), default=0)
        lengths.append(depth)
    return lengths


def _run_word(run: LassoRun) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (
        tuple(step.letter for step in run.prefix),
        tuple(step.letter for step in run.cycle),
    )


def synthesize_eliminating_tax(
    game: Game,
    runs: Sequence[LassoRun],
    edges: Iterable[tuple[int, int, int]],
    state_cap: int = 4096,
) -> DynamicTax:
    """A dynamic tax under which each edge (source, target, agent), an
    index triple into runs, distinct canonical runs of the game, costs its
    agent strictly less on the target run than on the source run.

    The machine runs a hypothesis set over (run, word position) pairs, all
    runs starting at position 0.  Each observed action profile kills the
    hypotheses it contradicts; once a single run remains, the output is
    that run's constant surcharge on its cycle cells, and a word matching
    no run falls into an absorbing zero-tax state.  Words only transiently
    consistent with a run are taxed only transiently, so other runs keep
    their untaxed limit-average cost.
    """
    arena = game.arena
    n_agents = arena.n_agents
    lengths = _chain_lengths(len(runs), n_agents, edges)
    if not runs:
        return lift_static(zero_tax(n_agents), arena.n_letters)
    words = [_run_word(run) for run in runs]
    if len(set(words)) != len(words):
        raise ValueError(
            "two distinct runs share one action-profile word; "
            "a profile-reading machine cannot tell them apart"
        )
    ceilings = _cost_ceilings(arena)
    surcharges = []
    for r, run in enumerate(runs):
        vector = tuple(
            Fraction(lengths[i][r]) * (ceilings[i] + 1) for i in range(n_agents)
        )
        rates = {(step.state, step.letter): vector for step in run.cycle}
        surcharges.append(static_tax(n_agents, rates))

    def letter_at(r: int, pos: int) -> int:
        prefix, cycle = words[r]
        if pos < len(prefix):
            return prefix[pos]
        return cycle[(pos - len(prefix)) % len(cycle)]

    def advance(r: int, pos: int) -> int:
        prefix, cycle = words[r]
        nxt = pos + 1
        if nxt >= len(prefix) + len(cycle):
            nxt = len(prefix)
        return nxt

    start = frozenset((r, 0) for r in range(len(runs)))
    numbering: dict[frozenset, int] = {start: 0}
    order: list[frozenset] = [start]
    transitions: list[tuple[int, ...]] = []
    cursor = 0
    while cursor < len(order):
        hypotheses = order[cursor]
        cursor += 1
        row = []
        for letter in arena.letters():
            survivors = frozenset(
                (r, advance(r, pos))
                for r, pos in hypotheses
                if letter_at(r, pos) == letter
            )
            if survivors not in numbering:
                if len(order) >= state_cap:
                    raise ResourceLimitError(
                        f"classifier needs more than {state_cap} states"
                    )
                numbering[survivors] = len(order)
                order.append(survivors)
            row.append(numbering[survivors])
        transitions.append(tuple(row))

    # states share output objects, so each output is tabled and scaled once
    untaxed = zero_tax(n_agents)
    outputs = []
    for hypotheses in order:
        alive = {r for r, _ in hypotheses}
        if len(alive) == 1:
            outputs.append(surcharges[alive.pop()])
        else:
            outputs.append(untaxed)
    return DynamicTax(outputs=tuple(outputs), transitions=tuple(transitions))


# ---------------------------------------------------------------------------
# Eliminability


def check_eliminable(
    game: Game,
    profiles: Iterable[Profile],
    memory_bound: int,
    cap: int = 10**7,
    search_cap: int = 100_000,
    state_cap: int = 4096,
    *,
    plays: _Plays | None = None,
) -> DynamicTax | None:
    """A tax eliminating the given profiles, searched on the run classes
    of plays, the calling driver's run-class table (a fresh one without).

    A target's options are its initial deviations in the bounded universe,
    as (agent, class) pairs, looked up on the target's rows of the table
    (see _Plays.row).  A candidate picks one option per target (more edges
    only add cycles and surcharges, so one per target is complete).  It
    fails if its class edges close a single-agent cycle, or if the tax
    synthesized for them leaves an edge not strict or a target Nash (read
    from rows on a complete table).  Returns the first tax that holds, or
    None; raises SearchLimitError when the search budget runs out, and
    ResourceLimitError when targets times the machines of every universe
    exceed cap.
    """
    targets = list(profiles)
    if not targets:
        return synthesize_eliminating_tax(game, (), ())
    if plays is None:
        plays = _Plays(game, memory_bound)
    universes = plays.numbered()
    if sum(len(u) for u in universes) * len(targets) > cap:
        raise ResourceLimitError(f"deviation graph expansion exceeds cap {cap}")
    targets = [_canonical(p) for p in targets]
    winners = plays.winners

    # Options are tried in the order that numbers every profile met: the
    # targets first, then each target's initial deviations by agent and
    # machine id, each numbered when it is first found.  An (agent, class)
    # pair that several deviations share is kept once, at its lowest
    # number; it stands for the same class edge whichever it is.
    numbers: dict[Profile, int] = {}
    for target in targets:
        check_profile(game.arena, target)
        numbers.setdefault(target, len(numbers))
    sources: dict[Profile, int] = {}
    positions: dict[Profile, int | None] = {}
    options: dict[Profile, list[tuple[int, int]]] = {}
    for target in list(numbers):
        position = positions[target] = plays.position(target)
        src = sources[target] = plays.class_at(position, target)
        lowest: dict[tuple[int, int], int] = {}
        for agent, machines in enumerate(universes):
            # a target outside the universes has no row in the table
            row = repeat(None) if position is None else plays.row(agent, position)
            for machine, at in zip(machines, row):
                candidate = target.replace(agent, machine)
                k = plays.class_at(at, candidate)
                if _edge_ok(agent, src == k, winners[src], winners[k]):
                    number = numbers.setdefault(candidate, len(numbers))
                    option = (agent, k)
                    lowest[option] = min(number, lowest.get(option, number))
        options[target] = sorted(lowest, key=lowest.__getitem__)
    if not all(options.values()):
        return None
    choice_lists = [options[target] for target in targets]
    source_classes = [sources[target] for target in targets]

    def has_path(
        adjacency: dict[int, dict[int, int]], source: int, sink: int
    ) -> bool:
        stack = [source]
        seen = {source}
        while stack:
            node = stack.pop()
            if node == sink:
                return True
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def verify(selection: list[tuple[int, int]]) -> DynamicTax | None:
        edges = [(src, k, a) for src, (a, k) in zip(source_classes, selection)]
        classes = sorted({c for src, k, _ in edges for c in (src, k)})
        renumber = {k: r for r, k in enumerate(classes)}
        try:
            tax = synthesize_eliminating_tax(
                game,
                [plays.runs[k] for k in classes],
                [(renumber[src], renumber[k], agent) for src, k, agent in edges],
                state_cap=state_cap,
            )
        except (ValueError, ResourceLimitError):
            return None
        responses = _Responses(game, tax)
        for src, k, agent in edges:
            before = responses.class_values(plays, src)[agent]
            if not _beats(responses.class_values(plays, k)[agent], before):
                return None
        for target, src in sources.items():
            run, at = plays.runs[src], positions[target]
            if _no_agent_improves(responses, target, run, winners[src], plays, at):
                return None
        return tax

    # Class edges are counted, not set-inserted: two targets sharing a run
    # class may select the same class edge, and backtracking one must not
    # drop the other's copy.
    per_agent_edges: dict[int, dict[int, dict[int, int]]] = {}
    budget = search_cap

    def spend() -> None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise SearchLimitError(
                f"eliminability search exceeded {search_cap} steps"
            )

    # Depth first over one option per target, in choice order: choices[t]
    # iterates the options left for target t, and selection[t] is the one
    # taken for it while the search is below it.  Every node of the search
    # tree spends one step of the budget.
    selection: list[tuple[int, int]] = []
    spend()
    choices = [iter(choice_lists[0])]
    while choices:
        if len(selection) == len(choices):
            agent, cv = selection.pop()
            counts = per_agent_edges[agent][source_classes[len(selection)]]
            counts[cv] -= 1
            if not counts[cv]:
                del counts[cv]
        cu = source_classes[len(selection)]
        for option in choices[-1]:
            agent, cv = option
            adjacency = per_agent_edges.setdefault(agent, {})
            if not has_path(adjacency, cv, cu):
                break
        else:
            choices.pop()
            continue
        counts = adjacency.setdefault(cu, {})
        counts[cv] = counts.get(cv, 0) + 1
        selection.append(option)
        spend()
        if len(selection) < len(choice_lists):
            choices.append(iter(choice_lists[len(selection)]))
        else:
            tax = verify(selection)
            if tax is not None:
                return tax
    return None


# ---------------------------------------------------------------------------
# Implementation drivers


@dataclass(frozen=True, eq=False)
class ImplementationVerdict:
    problem: str
    answer: str  # "yes" | "no-within-bound" | "unknown-at-bound"
    bound: int
    objective_text: str
    witness_tax: DynamicTax | None = None
    witness_profile: Profile | None = None
    diagnostics: tuple[str, ...] = ()


def _levelling_machine(game: Game) -> DynamicTax:
    """The lifted uniform levelling tax at the lowest valid level."""
    arena = game.arena
    return lift_static(_levelling_tax(arena, _cost_ceiling(arena)), arena.n_letters)


def _levelled_responses(game: Game) -> _Responses:
    """The untaxed memo of the levelled game: every cost cell charges every
    agent the cost ceiling λ, the level of _levelling_machine (see Levelled
    game in the module docstring)."""
    return _Responses(_uniform_cost_game(game, _cost_ceiling(game.arena)), None)


def verify_witness(
    game: Game,
    problem: str,
    objective: Formula,
    memory_bound: int,
    tax: DynamicTax,
    profile: Profile,
    cap: int = 10**7,
) -> tuple[str, ...]:
    """Why a witness fails, or () when it holds: the profile is an exact
    equilibrium under the tax and its run satisfies the objective; for
    anash, also no bounded equilibrium under the tax violates it.  The
    check keeps its own best-response memo of the game under the given
    per-cell tax, apart from any sweep that found the witness."""
    check_profile(game.arena, profile)
    return _verify_witness(
        _Responses(game, tax),
        _Plays(game, memory_bound, cap),
        problem,
        objective,
        profile,
    )


def _verify_witness(
    responses: _Responses,
    plays: _Plays,
    problem: str,
    objective: Formula,
    profile: Profile,
) -> tuple[str, ...]:
    """verify_witness on responses, the memo of the game under the witness
    tax, and plays, a run-class table of the game, for a profile that fits
    the game."""
    index = plays.position(profile)
    k = plays.class_at(index, profile)
    problems = []
    if not _no_agent_improves(
        responses, profile, plays.runs[k], plays.winners[k], plays, index
    ):
        problems.append("witness profile is not an equilibrium under the witness tax")
    if not plays.verdicts(objective)[k]:
        problems.append("witness run does not satisfy the objective")
    if problem == "anash" and not problems:
        # the sweep walks the whole table, so it is completed first
        plays.fill()
        bad = list(_nash_sweep(responses, plays, Not(objective)))
        if bad:
            problems.append(
                f"{len(bad)} objective-violating equilibria survive the tax "
                f"at bound {plays.memory_bound}"
            )
    return tuple(problems)


def e_nash_implement(
    game: Game,
    objective: Formula,
    memory_bound: int,
    cap: int = 10**7,
    objective_text: str | None = None,
) -> ImplementationVerdict:
    """Does some tax admit an equilibrium satisfying the objective?

    Equilibria of the cost-free game are exactly the equilibria achievable
    under some tax, and the uniform levelling tax realizes any of them; a
    yes verdict carries that tax and a supporting profile, re-verified on
    the levelled game (see the module docstring).  The sweep and the
    re-verification read one run-class table, so the witness is played
    once.  An empty bounded search is reported as no-within-bound.
    objective_text overrides how the objective is quoted in the verdict."""
    free = _Responses(zero_cost_game(game), None)
    plays = _Plays(game, memory_bound, cap)
    return _e_nash(game, free, plays, objective, objective_text)[0]


def _e_nash(
    game: Game,
    free: _Responses,
    plays: _Plays,
    objective: Formula,
    objective_text: str | None,
) -> tuple[ImplementationVerdict, _Responses | None]:
    """e_nash_implement, sweeping the cost-free game through free, the
    best-response memo of that game without a tax, and plays, the call's
    run-class table; also the memo of the levelled game that checked the
    witness, or None when none was found."""
    memory_bound = plays.memory_bound
    text = objective_text if objective_text is not None else to_text(objective)
    witness = next(_nash_sweep(free, plays, objective), None)
    if witness is None:
        return ImplementationVerdict(
            problem="enash",
            answer="no-within-bound",
            bound=memory_bound,
            objective_text=text,
            diagnostics=(
                f"no cost-free equilibrium satisfies {text} at bound {memory_bound}",
            ),
        ), None
    levelled = _levelled_responses(game)
    problems = _verify_witness(levelled, plays, "enash", objective, witness)
    if problems:
        return ImplementationVerdict(
            problem="enash",
            answer="no-within-bound",
            bound=memory_bound,
            objective_text=text,
            diagnostics=problems,
        ), levelled
    return ImplementationVerdict(
        problem="enash",
        answer="yes",
        bound=memory_bound,
        objective_text=text,
        witness_tax=_levelling_machine(game),
        witness_profile=witness,
    ), levelled


def a_nash_implement(
    game: Game,
    objective: Formula,
    memory_bound: int,
    cap: int = 10**7,
    search_cap: int = 100_000,
    state_cap: int = 4096,
    objective_text: str | None = None,
) -> ImplementationVerdict:
    """Does some tax make every equilibrium satisfy the objective (and one
    exist)?  Requires the e-nash condition plus eliminability of the
    objective-violating cost-free equilibria; the witness tax, the
    eliminator composed with the levelling tax, is re-verified within the
    bounded universe before a yes is returned; the final sweep and the
    witness check run on the levelled game (see the module docstring).
    Every sweep, the eliminability search and the witness checks read one
    run-class table, so each bounded profile is played once per call; it
    is completed before the first sweep, so rows refute profiles (see Row
    refutation in the equilibrium module docstring).
    objective_text overrides how the objective is quoted in the verdict."""
    text = objective_text if objective_text is not None else to_text(objective)
    # the e-nash sweep and the violating sweep share one cost-free memo
    free = _Responses(zero_cost_game(game), None)
    plays = _Plays(game, memory_bound, cap)
    plays.fill()
    base, levelled = _e_nash(game, free, plays, objective, objective_text)
    if base.answer != "yes":
        return replace(
            base,
            problem="anash",
            diagnostics=base.diagnostics + ("e-nash precondition failed",),
        )
    violating = list(_nash_sweep(free, plays, Not(objective)))
    eliminator: DynamicTax | None = None
    diagnostics: list[str] = []
    if violating:
        try:
            eliminator = check_eliminable(
                game,
                violating,
                memory_bound,
                cap=cap,
                search_cap=search_cap,
                state_cap=state_cap,
                plays=plays,
            )
        except SearchLimitError as stop:
            return ImplementationVerdict(
                problem="anash",
                answer="unknown-at-bound",
                bound=memory_bound,
                objective_text=text,
                diagnostics=(str(stop),),
            )
        if eliminator is None:
            return ImplementationVerdict(
                problem="anash",
                answer="no-within-bound",
                bound=memory_bound,
                objective_text=text,
                diagnostics=(
                    f"{len(violating)} objective-violating equilibria are "
                    f"not eliminable at bound {memory_bound}",
                ),
            )
        diagnostics.append(
            f"eliminated {len(violating)} objective-violating equilibria"
        )
    else:
        diagnostics.append("no objective-violating equilibria at this bound")

    # the final sweep and the witness check share one memo of the levelled
    # game, the e-nash check's own when nothing is eliminated
    final = (
        levelled if eliminator is None else _Responses(levelled.game, eliminator)
    )
    witness = next(_nash_sweep(final, plays, objective), None)
    if witness is None:
        problems: tuple[str, ...] = (
            "no equilibrium satisfying the objective survives the "
            "synthesized tax",
        )
    else:
        problems = _verify_witness(final, plays, "anash", objective, witness)
    if problems:
        return ImplementationVerdict(
            problem="anash",
            answer="no-within-bound",
            bound=memory_bound,
            objective_text=text,
            diagnostics=tuple(diagnostics)
            + tuple(f"verification failed: {line}" for line in problems),
        )
    # the e-nash witness tax is the lifted levelling tax
    tax = base.witness_tax
    if eliminator is not None:
        tax = compose_tax(eliminator, tax.outputs[0])
    return ImplementationVerdict(
        problem="anash",
        answer="yes",
        bound=memory_bound,
        objective_text=text,
        witness_tax=tax,
        witness_profile=witness,
        diagnostics=tuple(diagnostics),
    )


# ---------------------------------------------------------------------------
# Static insufficiency evidence


@dataclass(frozen=True, eq=False)
class StaticInsufficiencyRow:
    tax: StaticTax
    found: bool
    family: str
    witness: Profile | None
    note: str


@dataclass(frozen=True, eq=False)
class StaticInsufficiencyReport:
    rows: tuple[StaticInsufficiencyRow, ...]
    analytic_note: str

    @property
    def all_found(self) -> bool:
        return all(row.found for row in self.rows)


def _constant_machine(action: int, n_letters: int) -> StrategyMachine:
    return StrategyMachine(outputs=(action,), transitions=((0,) * n_letters,))


def _transient_machine(first: int, then: int, n_letters: int) -> StrategyMachine:
    return StrategyMachine(
        outputs=(first, then),
        transitions=((1,) * n_letters, (1,) * n_letters),
    )


def _alternating_machine(even: int, odd: int, n_letters: int) -> StrategyMachine:
    return StrategyMachine(
        outputs=(even, odd),
        transitions=((1,) * n_letters, (0,) * n_letters),
    )


def _grim_machine(
    cooperate: int, punish: int, coop_letter: int, n_letters: int
) -> StrategyMachine:
    row = tuple(0 if letter == coop_letter else 1 for letter in range(n_letters))
    return StrategyMachine(
        outputs=(cooperate, punish),
        transitions=(row, (1,) * n_letters),
    )


def _candidate_profiles(
    game: Game, memory_bound: int
) -> Iterable[tuple[str, Profile]]:
    """Small equilibrium candidates in a deterministic order: constants
    first, then one-step transients, alternators, and grim-trigger pairs
    (cooperate until the joint profile differs from the agreed one, then
    punish forever)."""
    arena = game.arena
    n_letters = arena.n_letters
    ranges = [range(len(acts)) for acts in arena.actions]
    for combo in product(*ranges):
        yield "constant", Profile(
            tuple(_constant_machine(a, n_letters) for a in combo)
        )
    if memory_bound < 2:
        return
    per_agent: list[list[tuple[str, StrategyMachine]]] = []
    for acts in ranges:
        options: list[tuple[str, StrategyMachine]] = []
        for a in acts:
            options.append(("constant", _constant_machine(a, n_letters)))
        for a in acts:
            for b in acts:
                if a != b:
                    options.append(("transient", _transient_machine(a, b, n_letters)))
                    options.append(("alternating", _alternating_machine(a, b, n_letters)))
        per_agent.append(options)
    for combo in product(*per_agent):
        kinds = {kind for kind, _ in combo}
        if kinds == {"constant"}:
            continue
        family = "prefixed" if "alternating" not in kinds else "oblivious"
        yield family, Profile(tuple(machine for _, machine in combo))
    for coop in product(*ranges):
        coop_letter = arena.letter_of(coop)
        for punishment in product(*ranges):
            machines = tuple(
                _grim_machine(c, p, coop_letter, n_letters)
                for c, p in zip(coop, punishment)
            )
            if all(m.outputs[0] == m.outputs[1] for m in machines):
                continue
            yield "grim", Profile(machines)


def static_insufficiency_check(
    game: Game,
    objective: Formula,
    memory_bound: int,
    tax_grid: Sequence[StaticTax],
) -> StaticInsufficiencyReport:
    """For each static tax, hunt for an exact equilibrium of the taxed game
    violating the objective, among bounded candidate profiles.

    Candidates are checked with the exact membership test, so every found
    row names a true equilibrium; a not-found row only means the candidate
    family was exhausted.  The analytic note records why prefix deviations
    can never be deterred by static taxes: limit-average costs ignore any
    finite prefix, so a run that violates the objective only transiently
    costs exactly as much as its own tail."""
    from .taxation import apply_static

    bad = Not(objective)
    # each candidate once, in order, with the family it first comes in; a
    # taxed game plays what the game plays, so one table serves every tax,
    # looked up by profile, and each run class is checked against the
    # objective once
    candidates: dict[Profile, str] = {}
    for family, profile in _candidate_profiles(game, memory_bound):
        candidates.setdefault(_canonical(profile), family)
    plays = _Plays(game)
    violates = plays.verdicts(bad)
    rows: list[StaticInsufficiencyRow] = []
    for tax in tax_grid:
        taxed = apply_static(game, tax)
        responses = _Responses(taxed, None)
        hit: StaticInsufficiencyRow | None = None
        for canonical, family in candidates.items():
            k = plays.class_of(canonical)
            if not violates[k]:
                continue
            run, winners = plays.runs[k], plays.winners[k]
            if _no_agent_improves(responses, canonical, run, winners):
                costs = ", ".join(str(c) for c in responses.mean_costs(run))
                hit = StaticInsufficiencyRow(
                    tax=tax,
                    found=True,
                    family=family,
                    witness=canonical,
                    note=f"taxed limit-average costs ({costs})",
                )
                break
        if hit is None:
            hit = StaticInsufficiencyRow(
                tax=tax,
                found=False,
                family="none",
                witness=None,
                note="candidate families exhausted without an equilibrium",
            )
        rows.append(hit)
    return StaticInsufficiencyReport(
        rows=tuple(rows),
        analytic_note=(
            "limit-average costs are prefix-independent: a profile that "
            "violates the objective during a finite prefix and then follows "
            "an equilibrium loop pays exactly the loop's costs, so no static "
            "surcharge can separate the two"
        ),
    )
