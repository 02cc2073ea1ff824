"""Deviation graphs, eliminability, and taxation-scheme synthesis.

An initial deviation is a unilateral machine change that visibly changes the
run and never turns the deviating agent from a winner into a loser.  A
deviation graph collects profiles and such deviations; when no cycle of
deviations by one single agent exists (on runs, i.e. in the observation
quotient), a dynamic tax can be synthesized that makes every edge a strict
improvement, which in turn eliminates the targeted profiles from the
equilibrium set.

The synthesized machine classifies the observed action-profile word among
the graph's finitely many runs and, once the word is pinned down, adds a
constant per-step surcharge on that run's cycle cells.  The surcharge for
agent i is d·(c_i*+1), where d is the length of the longest chain of
i-deviations leaving the run's class and c_i* the agent's maximum step cost;
along any i-edge d drops by at least one, so the taxed costs of source and
target differ by at least (c_i*+1) - c_i* = 1 in the target's favour.

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
from itertools import product
from typing import Iterable, Sequence

from ._graphs import strongly_connected_components
from .arena import Game, _cost_ceilings, _uniform_cost_game, zero_cost_game
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


@dataclass(frozen=True, eq=False)
class DeviationGraph:
    """Profiles with their canonical runs and goal verdicts, plus initial
    deviations among them as (source, target, agent) index triples."""

    nodes: tuple[Profile, ...]
    runs: tuple[LassoRun, ...]
    winners: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int, int], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def _canonical(profile: Profile) -> Profile:
    return Profile(tuple(canonicalize_machine(m) for m in profile.machines))


def initial_deviation(
    game: Game, profile: Profile, agent: int, alt: StrategyMachine
) -> bool:
    """Whether switching one agent to alt is an initial deviation: the run
    changes, and the agent keeps winning if it was winning.  Goal verdicts
    only depend on the label trace, never on costs."""
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


def build_deviation_graph(
    game: Game,
    seed_nodes: Iterable[Profile],
    memory_bound: int,
    cap: int = 10**7,
    *,
    plays: _Plays | None = None,
) -> DeviationGraph:
    """Nodes are the seeds plus every one-step initial-deviation target
    reachable from a seed within the bounded machine universe; edges are all
    initial deviations among the node set.

    plays is the run-class table of the calling driver, whose sweeps have
    played the universe already, so a deviation is looked up by its index:
    the seed's index moved by the agent's stride.  Without one the graph
    plays its nodes on a fresh table."""
    arena = game.arena
    if plays is None:
        plays = _Plays(game, memory_bound)
    seeds = list(seed_nodes)
    universes = plays.numbered()
    if seeds and sum(len(u) for u in universes) * len(seeds) > cap:
        raise ResourceLimitError(
            f"deviation graph expansion exceeds cap {cap}"
        )
    seeds = [_canonical(p) for p in seeds]

    nodes: list[Profile] = []
    index: dict[Profile, int] = {}
    classes: list[int] = []

    def add(profile: Profile, k: int) -> None:
        index[profile] = len(nodes)
        nodes.append(profile)
        classes.append(k)

    for seed in seeds:
        if seed not in index:
            check_profile(arena, seed)
            add(seed, plays.class_of(seed))
    winners = plays.winners
    for seed in seeds:
        src = classes[index[seed]]
        position = plays.position(seed)
        for agent, machines in enumerate(universes):
            stride = plays.strides[agent]
            # the index of the seed with the agent's machine id at 0; a
            # seed outside the universes has none
            base = (
                None
                if position is None
                else position - plays.ids[agent][seed.machines[agent]] * stride
            )
            for j, machine in enumerate(machines):
                # the seed itself and nodes already added need no lookup
                candidate = seed.replace(agent, machine)
                if candidate in index:
                    continue
                at = None if base is None else base + j * stride
                k = plays.class_at(at, candidate)
                if _edge_ok(agent, src == k, winners[src], winners[k]):
                    add(candidate, k)

    edges: list[tuple[int, int, int]] = []
    for u, source in enumerate(nodes):
        for v, target in enumerate(nodes):
            if u == v:
                continue
            differing = [
                i
                for i in range(arena.n_agents)
                if source.machines[i] != target.machines[i]
            ]
            if len(differing) != 1:
                continue
            agent = differing[0]
            u_class, v_class = classes[u], classes[v]
            if _edge_ok(agent, u_class == v_class, winners[u_class], winners[v_class]):
                edges.append((u, v, agent))

    return DeviationGraph(
        nodes=tuple(nodes),
        runs=tuple(plays.runs[k] for k in classes),
        winners=tuple(winners[k] for k in classes),
        edges=tuple(edges),
    )


# ---------------------------------------------------------------------------
# Observation quotient


@dataclass(frozen=True, eq=False)
class ObservedPathIndex:
    """Run-equality quotient of a deviation graph with path statistics.

    class_nodes[c] lists node indices sharing run class c; node_class maps
    nodes to classes.  d_out[i][c] is the length in edges of the longest
    path using only agent-i edges that starts at class c, which requires
    the per-agent class graphs to be acyclic.
    """

    class_nodes: tuple[tuple[int, ...], ...]
    node_class: tuple[int, ...]
    d_out: tuple[tuple[int, ...], ...]


def _quotient(
    graph: DeviationGraph,
) -> tuple[list[list[int]], list[int], list[tuple[int, int, int]]]:
    class_of_run: dict[LassoRun, int] = {}
    class_nodes: list[list[int]] = []
    node_class: list[int] = []
    for node, run in enumerate(graph.runs):
        if run not in class_of_run:
            class_of_run[run] = len(class_nodes)
            class_nodes.append([])
        cls = class_of_run[run]
        class_nodes[cls].append(node)
        node_class.append(cls)
    seen = set()
    class_edges: list[tuple[int, int, int]] = []
    for u, v, agent in graph.edges:
        item = (node_class[u], node_class[v], agent)
        if item not in seen:
            seen.add(item)
            class_edges.append(item)
    return class_nodes, node_class, class_edges


def observed_path_index(graph: DeviationGraph) -> ObservedPathIndex:
    """Path statistics of the run quotient; raises ValueError naming the
    first agent whose class graph has a cycle, where path lengths diverge."""
    class_nodes, node_class, class_edges = _quotient(graph)
    n_classes = len(class_nodes)
    n_agents = len(graph.nodes[0].machines) if graph.nodes else 0
    # adjacencies[i][c] lists the classes that agent-i edges lead to from c
    adjacencies = [[[] for _ in range(n_classes)] for _ in range(n_agents)]
    for src, tgt, agent in class_edges:
        adjacencies[agent][src].append(tgt)
    d_out: list[tuple[int, ...]] = []
    for agent, adjacency in enumerate(adjacencies):
        # components come successors first; one of two or more classes
        # holds a cycle
        depth = [0] * n_classes
        for component in strongly_connected_components(adjacency):
            if len(component) > 1:
                raise ValueError(
                    f"single-agent observed cycle for agent {agent}: "
                    "no acyclic surcharge assignment exists"
                )
            (cls,) = component
            depth[cls] = max((1 + depth[t] for t in adjacency[cls]), default=0)
        d_out.append(tuple(depth))
    return ObservedPathIndex(
        class_nodes=tuple(tuple(m) for m in class_nodes),
        node_class=tuple(node_class),
        d_out=tuple(d_out),
    )


# ---------------------------------------------------------------------------
# Tax synthesis


def _run_word(run: LassoRun) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (
        tuple(step.letter for step in run.prefix),
        tuple(step.letter for step in run.cycle),
    )


def synthesize_eliminating_tax(
    game: Game,
    graph: DeviationGraph,
    targets: Sequence[Profile] | None = None,
    state_cap: int = 4096,
) -> DynamicTax:
    """A dynamic tax making every graph edge a strict improvement for its
    deviating agent.

    The machine runs a hypothesis set over (run class, word position) pairs,
    all classes starting at position 0.  Each observed action profile kills
    the hypotheses it contradicts; once a single class remains, the output
    is that class's constant surcharge on its cycle cells, and a word
    matching no class falls into an absorbing zero-tax state.  Words only
    transiently consistent with a class are taxed only transiently, so runs
    outside the graph keep their untaxed limit-average cost.
    """
    if targets is not None:
        covered = {u for u, _, _ in graph.edges}
        node_of = {profile: i for i, profile in enumerate(graph.nodes)}
        for profile in targets:
            if node_of.get(profile) not in covered:
                raise ValueError(
                    "deviation graph gives a targeted profile no outgoing edge"
                )

    arena = game.arena
    n_agents = arena.n_agents
    if graph.n_nodes == 0:
        return lift_static(zero_tax(n_agents), arena.n_letters)

    index = observed_path_index(graph)
    class_runs = [graph.runs[members[0]] for members in index.class_nodes]
    words = [_run_word(run) for run in class_runs]
    if len(set(words)) != len(words):
        raise ValueError(
            "two distinct runs share one action-profile word; "
            "a profile-reading machine cannot tell them apart"
        )
    ceilings = _cost_ceilings(arena)
    surcharges = []
    for cls, run in enumerate(class_runs):
        vector = tuple(
            Fraction(index.d_out[i][cls]) * (ceilings[i] + 1)
            for i in range(n_agents)
        )
        rates = {
            (step.state, step.letter): vector for step in run.cycle
        }
        surcharges.append(static_tax(n_agents, rates))

    def letter_at(cls: int, pos: int) -> int:
        prefix, cycle = words[cls]
        if pos < len(prefix):
            return prefix[pos]
        return cycle[(pos - len(prefix)) % len(cycle)]

    def advance(cls: int, pos: int) -> int:
        prefix, cycle = words[cls]
        nxt = pos + 1
        if nxt >= len(prefix) + len(cycle):
            nxt = len(prefix)
        return nxt

    start = frozenset((cls, 0) for cls in range(len(class_runs)))
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
                (cls, advance(cls, pos))
                for cls, pos in hypotheses
                if letter_at(cls, pos) == letter
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
        classes = {cls for cls, _ in hypotheses}
        if len(classes) == 1:
            outputs.append(surcharges[classes.pop()])
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
) -> tuple[DeviationGraph, DynamicTax] | None:
    """Search for a witness deviation graph eliminating the given profiles.

    Candidate graphs pick one outgoing initial deviation per targeted
    profile from the bounded universe (richer graphs only add quotient
    cycles and surcharges, so one edge per target is complete); a candidate
    is rejected if its edges form a single-agent cycle on runs or if the
    synthesized tax fails re-verification (every edge strict, every target
    non-Nash).  Returns the reindexed witness graph with the tax
    synthesized and re-verified for it, None when no candidate works, and
    raises SearchLimitError when the search budget runs out.  plays, the
    calling driver's run-class table, goes to build_deviation_graph and to
    the Nash test of each target, which reads rows when it is complete.
    """
    targets = list(profiles)
    if not targets:
        empty = DeviationGraph(nodes=(), runs=(), winners=(), edges=())
        return empty, synthesize_eliminating_tax(game, empty)
    if plays is None:
        plays = _Plays(game, memory_bound)
    full = build_deviation_graph(game, targets, memory_bound, cap=cap, plays=plays)
    node_of = {profile: i for i, profile in enumerate(full.nodes)}
    target_ids = [node_of[_canonical(p)] for p in targets]
    positions = [plays.position(full.nodes[i]) for i in target_ids]
    out_edges: dict[int, list[tuple[int, int, int]]] = {u: [] for u in target_ids}
    for edge in full.edges:
        if edge[0] in out_edges:
            out_edges[edge[0]].append(edge)
    if any(not options for options in out_edges.values()):
        return None
    _, node_class, _ = _quotient(full)

    choice_lists = [sorted(out_edges[u]) for u in target_ids]
    budget = search_cap

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

    def verify(
        selection: list[tuple[int, int, int]],
    ) -> tuple[DeviationGraph, DynamicTax] | None:
        kept = sorted({u for u, _, _ in selection} | {v for _, v, _ in selection})
        renumber = {old: new for new, old in enumerate(kept)}
        candidate = DeviationGraph(
            nodes=tuple(full.nodes[i] for i in kept),
            runs=tuple(full.runs[i] for i in kept),
            winners=tuple(full.winners[i] for i in kept),
            edges=tuple(
                (renumber[u], renumber[v], a) for u, v, a in sorted(selection)
            ),
        )
        try:
            tax = synthesize_eliminating_tax(
                game,
                candidate,
                targets=[full.nodes[i] for i in target_ids],
                state_cap=state_cap,
            )
        except (ValueError, ResourceLimitError):
            return None
        responses = _Responses(game, tax)
        costs = [responses.run_costs(run) for run in candidate.runs]

        def taxed_value(node: int, agent: int) -> tuple[bool, int, int]:
            totals, length = costs[node]
            return agent in candidate.winners[node], totals[agent], length

        for u, v, agent in candidate.edges:
            if not _beats(taxed_value(v, agent), taxed_value(u, agent)):
                return None
        for i, at in zip(target_ids, positions):
            if _no_agent_improves(
                responses, full.nodes[i], full.runs[i], full.winners[i], plays, at
            ):
                return None
        return candidate, tax

    # Quotient edges are counted, not set-inserted: two targets sharing a
    # run class may select the same class edge, and backtracking one must
    # not drop the other's copy.
    per_agent_edges: dict[int, dict[int, dict[int, int]]] = {}

    def spend() -> None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise SearchLimitError(
                f"eliminability search exceeded {search_cap} steps"
            )

    # Depth first over one edge per target, in choice order: choices[k]
    # iterates the edges left for target k, and selection[k] is the edge
    # taken for it while the search is below it.  Every node of the search
    # tree spends one step of the budget.
    selection: list[tuple[int, int, int]] = []
    spend()
    choices = [iter(choice_lists[0])]
    while choices:
        if len(selection) == len(choices):
            u, v, agent = selection.pop()
            counts = per_agent_edges[agent][node_class[u]]
            counts[node_class[v]] -= 1
            if not counts[node_class[v]]:
                del counts[node_class[v]]
        for edge in choices[-1]:
            u, v, agent = edge
            cu, cv = node_class[u], node_class[v]
            adjacency = per_agent_edges.setdefault(agent, {})
            if not has_path(adjacency, cv, cu):
                break
        else:
            choices.pop()
            continue
        counts = adjacency.setdefault(cu, {})
        counts[cv] = counts.get(cv, 0) + 1
        selection.append(edge)
        spend()
        if len(selection) < len(choice_lists):
            choices.append(iter(choice_lists[len(selection)]))
        else:
            found = verify(selection)
            if found is not None:
                return found
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
    Every sweep, the deviation graph and the witness checks read one
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
            eliminable = check_eliminable(
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
        if eliminable is None:
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
        _, eliminator = eliminable
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
