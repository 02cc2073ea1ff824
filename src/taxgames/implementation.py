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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from ._graphs import strongly_connected_components
from .arena import Game, max_cost, zero_cost_game
from .errors import ResourceLimitError, SearchLimitError
from .ltl import Formula, Not, eval_on_lasso, to_text
from .strategy import (
    LassoRun,
    Profile,
    StrategyMachine,
    canonicalize_machine,
    enumerate_machines,
)
from .taxation import (
    DynamicTax,
    StaticTax,
    compose_tax,
    lift_static,
    static_tax,
    taxed_cost,
    uniform_levelling_tax,
    zero_tax,
)
from .equilibrium import (
    LexValue,
    _nash_sweep,
    _no_agent_improves,
    _play,
    evaluate,
    find_ne,
    is_nash,
    prefers,
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


def initial_deviation(
    game: Game, profile: Profile, agent: int, alt: StrategyMachine
) -> bool:
    """Whether switching one agent to alt is an initial deviation: the run
    changes, and the agent keeps winning if it was winning.  Goal verdicts
    only depend on the label trace, never on costs."""
    run, _, winners = _play(game, profile)
    run2, _, winners2 = _play(game, profile.replace(agent, alt))
    return _edge_ok(agent, run, winners, run2, winners2)


def _edge_ok(
    agent: int,
    src_run: LassoRun,
    src_winners: frozenset[int],
    tgt_run: LassoRun,
    tgt_winners: frozenset[int],
) -> bool:
    if src_run == tgt_run:
        return False
    return agent not in src_winners or agent in tgt_winners


def build_deviation_graph(
    game: Game,
    seed_nodes: Iterable[Profile],
    memory_bound: int,
    cap: int = 10**7,
) -> DeviationGraph:
    """Nodes are the seeds plus every one-step initial-deviation target
    reachable from a seed within the bounded machine universe; edges are all
    initial deviations among the node set."""
    arena = game.arena
    seeds = [
        Profile(tuple(canonicalize_machine(m) for m in p.machines))
        for p in seed_nodes
    ]
    universes = [
        list(enumerate_machines(len(arena.actions[i]), arena.n_letters, memory_bound))
        for i in range(arena.n_agents)
    ]
    if seeds and sum(len(u) for u in universes) * len(seeds) > cap:
        raise ResourceLimitError(
            f"deviation graph expansion exceeds cap {cap}"
        )

    nodes: list[Profile] = []
    index: dict[Profile, int] = {}
    annotations: list[tuple[LassoRun, frozenset[int]]] = []

    def add(profile: Profile) -> int:
        if profile in index:
            return index[profile]
        index[profile] = len(nodes)
        nodes.append(profile)
        run, _, winners = _play(game, profile)
        annotations.append((run, winners))
        return index[profile]

    for seed in seeds:
        add(seed)
    for seed in seeds:
        src = index[seed]
        src_run, src_winners = annotations[src]
        for agent in range(arena.n_agents):
            for machine in universes[agent]:
                if machine == seed.machines[agent]:
                    continue
                candidate = seed.replace(agent, machine)
                run, _, winners = _play(game, candidate)
                if _edge_ok(agent, src_run, src_winners, run, winners):
                    add(candidate)

    edges: list[tuple[int, int, int]] = []
    for u, source in enumerate(nodes):
        src_run, src_winners = annotations[u]
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
            tgt_run, tgt_winners = annotations[v]
            if _edge_ok(agent, src_run, src_winners, tgt_run, tgt_winners):
                edges.append((u, v, agent))

    return DeviationGraph(
        nodes=tuple(nodes),
        runs=tuple(run for run, _ in annotations),
        winners=tuple(winners for _, winners in annotations),
        edges=tuple(edges),
    )


# ---------------------------------------------------------------------------
# Observation quotient


@dataclass(frozen=True, eq=False)
class ObservedPathIndex:
    """Run-equality quotient of a deviation graph with path statistics.

    class_nodes[c] lists node indices sharing run class c; node_class maps
    nodes to classes; class_edges are deduplicated (source class, target
    class, agent) triples.  d_out[i][c] is the length in edges of the
    longest path using only agent-i edges that starts at class c, and
    longest[i] is its maximum over classes; indev[c] collects agents with
    an edge incident to class c.  All lengths require the per-agent class
    graphs to be acyclic.
    """

    class_nodes: tuple[tuple[int, ...], ...]
    node_class: tuple[int, ...]
    class_edges: tuple[tuple[int, int, int], ...]
    d_out: tuple[tuple[int, ...], ...]
    longest: tuple[int, ...]
    indev: tuple[frozenset[int], ...]


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


def _agent_class_graphs(
    graph: DeviationGraph,
    n_classes: int,
    class_edges: Sequence[tuple[int, int, int]],
) -> list[list[list[int]]]:
    """adjacency[i][c] lists the classes that agent-i edges lead to from c."""
    n_agents = len(graph.nodes[0].machines) if graph.nodes else 0
    adjacency = [[[] for _ in range(n_classes)] for _ in range(n_agents)]
    for src, tgt, agent in class_edges:
        adjacency[agent][src].append(tgt)
    return adjacency


def single_agent_observed_cycle(
    graph: DeviationGraph,
) -> tuple[int, tuple[int, ...]] | None:
    """A cycle in the run quotient whose edges all carry one agent, as
    (agent, class cycle), or None.  Self-loops cannot occur because edges
    require distinguishable runs, so exactly the strongly connected
    components of two or more classes hold cycles."""
    class_nodes, _, class_edges = _quotient(graph)
    n_classes = len(class_nodes)
    for agent, adjacency in enumerate(
        _agent_class_graphs(graph, n_classes, class_edges)
    ):
        for component in strongly_connected_components(
            range(n_classes), adjacency.__getitem__
        ):
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


def observed_path_index(graph: DeviationGraph) -> ObservedPathIndex:
    """Path statistics of the run quotient; raises ValueError naming the
    first agent whose class graph has a cycle, where path lengths diverge."""
    class_nodes, node_class, class_edges = _quotient(graph)
    n_classes = len(class_nodes)
    d_out: list[tuple[int, ...]] = []
    longest: list[int] = []
    for agent, adjacency in enumerate(
        _agent_class_graphs(graph, n_classes, class_edges)
    ):
        # components come successors first; one of two or more classes
        # holds a cycle
        depth = [0] * n_classes
        for component in strongly_connected_components(
            range(n_classes), adjacency.__getitem__
        ):
            if len(component) > 1:
                raise ValueError(
                    f"single-agent observed cycle for agent {agent}: "
                    "no acyclic surcharge assignment exists"
                )
            (cls,) = component
            depth[cls] = max((1 + depth[t] for t in adjacency[cls]), default=0)
        row = tuple(depth)
        d_out.append(row)
        longest.append(max(row, default=0))
    indev = [set() for _ in range(n_classes)]
    for src, tgt, agent in class_edges:
        indev[src].add(agent)
        indev[tgt].add(agent)
    return ObservedPathIndex(
        class_nodes=tuple(tuple(m) for m in class_nodes),
        node_class=tuple(node_class),
        class_edges=tuple(class_edges),
        d_out=tuple(d_out),
        longest=tuple(longest),
        indev=tuple(frozenset(s) for s in indev),
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
    ceilings = [max_cost(game, i) for i in range(n_agents)]
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

    outputs = []
    for hypotheses in order:
        classes = {cls for cls, _ in hypotheses}
        if len(classes) == 1:
            outputs.append(surcharges[classes.pop()])
        else:
            outputs.append(zero_tax(n_agents))
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
) -> DeviationGraph | None:
    """Search for a witness deviation graph eliminating the given profiles.

    Candidate graphs pick one outgoing initial deviation per targeted
    profile from the bounded universe (richer graphs only add quotient
    cycles and surcharges, so one edge per target is complete); a candidate
    is rejected if its edges form a single-agent cycle on runs or if the
    synthesized tax fails re-verification (every edge strict, every target
    non-Nash).  Returns the reindexed witness graph, None when no candidate
    works, and raises SearchLimitError when the search budget runs out.
    """
    targets = list(profiles)
    if not targets:
        return DeviationGraph(nodes=(), runs=(), winners=(), edges=())
    full = build_deviation_graph(game, targets, memory_bound, cap=cap)
    node_of = {profile: i for i, profile in enumerate(full.nodes)}
    target_ids = [node_of[p] for p in (
        Profile(tuple(canonicalize_machine(m) for m in p.machines))
        for p in targets
    )]
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

    def verify(selection: list[tuple[int, int, int]]) -> DeviationGraph | None:
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
        def taxed_value(node: int, agent: int) -> LexValue:
            return LexValue(
                goal_met=agent in candidate.winners[node],
                cost=taxed_cost(candidate.runs[node], tax, agent),
            )

        for u, v, agent in candidate.edges:
            if prefers(taxed_value(v, agent), taxed_value(u, agent)) <= 0:
                return None
        for i in target_ids:
            if is_nash(game, full.nodes[i], tax):
                return None
        return candidate

    # Quotient edges are counted, not set-inserted: two targets sharing a
    # run class may select the same class edge, and backtracking one must
    # not drop the other's copy.
    per_agent_edges: dict[int, dict[int, dict[int, int]]] = {}

    def search(position: int, selection: list[tuple[int, int, int]]):
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise SearchLimitError(
                f"eliminability search exceeded {search_cap} steps"
            )
        if position == len(choice_lists):
            return verify(selection)
        for edge in choice_lists[position]:
            u, v, agent = edge
            cu, cv = node_class[u], node_class[v]
            adjacency = per_agent_edges.setdefault(agent, {})
            if has_path(adjacency, cv, cu):
                continue
            counts = adjacency.setdefault(cu, {})
            counts[cv] = counts.get(cv, 0) + 1
            selection.append(edge)
            found = search(position + 1, selection)
            selection.pop()
            counts[cv] -= 1
            if not counts[cv]:
                del counts[cv]
            if found is not None:
                return found
        return None

    return search(0, [])


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


def _levelling_machine(game: Game) -> tuple[StaticTax, DynamicTax]:
    level = max(
        (max_cost(game, i) for i in range(game.arena.n_agents)),
        default=Fraction(0),
    )
    levelling = uniform_levelling_tax(game, level)
    return levelling, lift_static(levelling, game.arena.n_letters)


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
    anash, also no bounded equilibrium under the tax violates it."""
    outcome = evaluate(game, profile, tax)
    problems = []
    if not _no_agent_improves(game, profile, outcome, tax):
        problems.append("witness profile is not an equilibrium under the witness tax")
    if not eval_on_lasso(objective, outcome.trace):
        problems.append("witness run does not satisfy the objective")
    if problem == "anash" and not problems:
        bad = find_ne(game, tax, memory_bound, Not(objective), cap)
        if bad:
            problems.append(
                f"{len(bad)} objective-violating equilibria survive the tax "
                f"at bound {memory_bound}"
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
    yes verdict carries that tax and a supporting profile, re-verified from
    scratch.  An empty bounded search is reported as no-within-bound.
    objective_text overrides how the objective is quoted in the verdict."""
    text = objective_text if objective_text is not None else to_text(objective)
    first = next(
        _nash_sweep(zero_cost_game(game), None, memory_bound, objective, cap),
        None,
    )
    if first is None:
        return ImplementationVerdict(
            problem="enash",
            answer="no-within-bound",
            bound=memory_bound,
            objective_text=text,
            diagnostics=(
                f"no cost-free equilibrium satisfies {text} at bound {memory_bound}",
            ),
        )
    witness, _ = first
    _, tax = _levelling_machine(game)
    problems = verify_witness(
        game, "enash", objective, memory_bound, tax, witness, cap
    )
    if problems:
        return ImplementationVerdict(
            problem="enash",
            answer="no-within-bound",
            bound=memory_bound,
            objective_text=text,
            diagnostics=problems,
        )
    return ImplementationVerdict(
        problem="enash",
        answer="yes",
        bound=memory_bound,
        objective_text=text,
        witness_tax=tax,
        witness_profile=witness,
    )


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
    objective-violating cost-free equilibria; the composed witness tax is
    re-verified within the bounded universe before a yes is returned.
    objective_text overrides how the objective is quoted in the verdict."""
    text = objective_text if objective_text is not None else to_text(objective)
    base = e_nash_implement(
        game, objective, memory_bound, cap=cap, objective_text=objective_text
    )
    if base.answer != "yes":
        return replace(
            base,
            problem="anash",
            diagnostics=base.diagnostics + ("e-nash precondition failed",),
        )
    violating = find_ne(
        zero_cost_game(game), None, memory_bound, Not(objective), cap=cap
    )
    levelling, levelling_machine = _levelling_machine(game)
    diagnostics: list[str] = []
    if violating:
        try:
            witness_graph = check_eliminable(
                game,
                violating,
                memory_bound,
                cap=cap,
                search_cap=search_cap,
                state_cap=state_cap,
            )
        except SearchLimitError as stop:
            return ImplementationVerdict(
                problem="anash",
                answer="unknown-at-bound",
                bound=memory_bound,
                objective_text=text,
                diagnostics=(str(stop),),
            )
        if witness_graph is None:
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
        eliminator = synthesize_eliminating_tax(
            game, witness_graph, targets=violating, state_cap=state_cap
        )
        combined = compose_tax(eliminator, levelling)
        diagnostics.append(
            f"eliminated {len(violating)} objective-violating equilibria"
        )
    else:
        combined = levelling_machine
        diagnostics.append("no objective-violating equilibria at this bound")

    first = next(_nash_sweep(game, combined, memory_bound, objective, cap), None)
    if first is None:
        problems: tuple[str, ...] = (
            "no equilibrium satisfying the objective survives the "
            "synthesized tax",
        )
    else:
        witness, _ = first
        problems = verify_witness(
            game, "anash", objective, memory_bound, combined, witness, cap
        )
    if problems:
        return ImplementationVerdict(
            problem="anash",
            answer="no-within-bound",
            bound=memory_bound,
            objective_text=text,
            diagnostics=tuple(diagnostics)
            + tuple(f"verification failed: {line}" for line in problems),
        )
    return ImplementationVerdict(
        problem="anash",
        answer="yes",
        bound=memory_bound,
        objective_text=text,
        witness_tax=combined,
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
    rows: list[StaticInsufficiencyRow] = []
    for tax in tax_grid:
        taxed = apply_static(game, tax)
        hit: StaticInsufficiencyRow | None = None
        seen: set[Profile] = set()
        for family, profile in _candidate_profiles(taxed, memory_bound):
            canonical = Profile(
                tuple(canonicalize_machine(m) for m in profile.machines)
            )
            if canonical in seen:
                continue
            seen.add(canonical)
            outcome = evaluate(taxed, canonical, None)
            if not eval_on_lasso(bad, outcome.trace):
                continue
            if _no_agent_improves(taxed, canonical, outcome, None):
                costs = ", ".join(str(c) for c in outcome.costs)
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
