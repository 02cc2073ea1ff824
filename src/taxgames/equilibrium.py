"""Preferences, best responses over all deviations, and equilibrium checks.

Agents compare runs lexicographically: satisfying their goal dominates any
cost difference, and among runs with the same goal verdict lower limit-average
taxed cost is better.  Nash membership is decided exactly against deviations
of unbounded memory by a product construction: the deviating agent's choices
drive a graph over (arena state, other machines' states, tax state, goal
automaton state), on which goal attainability is Buchi reachability and
optimal cost is a minimum mean cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from ._graphs import strongly_connected_components
from .arena import Game
from .ltl import (
    BuchiAutomaton,
    Formula,
    LabelTrace,
    eval_on_lasso,
    to_buchi,
)
from .strategy import (
    LassoRun,
    Profile,
    enumerate_profiles,
    generate_run,
    label_trace,
    lasso_canonical,
)
from .taxation import DynamicTax, _taxed_costs


@dataclass(frozen=True)
class LexValue:
    """What an agent gets from a run: goal verdict, then cost to minimize."""

    goal_met: bool
    cost: Fraction

    def key(self) -> tuple[bool, Fraction]:
        return (self.goal_met, -self.cost)


def prefers(first: LexValue, second: LexValue) -> int:
    """+1 if first is strictly preferred, -1 if second is, 0 if indifferent."""
    a, b = first.key(), second.key()
    if a > b:
        return 1
    if a < b:
        return -1
    return 0


@dataclass(frozen=True)
class Outcome:
    """A profile's canonical run, its goal winners and taxed costs; trace is
    the run's label word, kept for objective checks."""

    run: LassoRun
    winners: frozenset[int]
    costs: tuple[Fraction, ...]
    trace: LabelTrace = field(compare=False, repr=False)

    def value(self, agent: int) -> LexValue:
        return LexValue(goal_met=agent in self.winners, cost=self.costs[agent])


def _play(
    game: Game, profile: Profile
) -> tuple[LassoRun, LabelTrace, frozenset[int]]:
    """Canonical run, label trace and goal winners; no costs."""
    run = lasso_canonical(generate_run(game.arena, profile))
    trace = label_trace(game.arena, run)
    winners = frozenset(
        i for i, goal in enumerate(game.goals) if eval_on_lasso(goal, trace)
    )
    return run, trace, winners


def _outcome(
    run: LassoRun,
    trace: LabelTrace,
    winners: frozenset[int],
    tax: DynamicTax | None,
) -> Outcome:
    return Outcome(run=run, winners=winners, costs=_taxed_costs(run, tax), trace=trace)


def evaluate(game: Game, profile: Profile, tax: DynamicTax | None = None) -> Outcome:
    return _outcome(*_play(game, profile), tax)


# ---------------------------------------------------------------------------
# Minimum mean cycle (Karp)


def _karp(
    members: Sequence[object],
    edges: Mapping[object, Sequence[tuple[object, Fraction]]],
) -> Fraction | None:
    """Minimum cycle mean within one strongly connected vertex set.

    d_k(v) = cheapest walk of exactly k edges from a fixed source; the
    minimum cycle mean is min over v of max over k of (d_n(v) - d_k(v))/(n-k),
    restricted to finite entries (walks of a given length need not exist).
    """
    n = len(members)
    if n == 0:
        return None
    index = {v: i for i, v in enumerate(members)}
    source = members[0]
    rows: list[list[Fraction | None]] = [[None] * n for _ in range(n + 1)]
    rows[0][index[source]] = Fraction(0)
    for k in range(n):
        row, nxt = rows[k], rows[k + 1]
        for i, v in enumerate(members):
            base = row[i]
            if base is None:
                continue
            for target, weight in edges.get(v, ()):
                j = index.get(target)
                if j is None:
                    continue
                candidate = base + weight
                if nxt[j] is None or candidate < nxt[j]:
                    nxt[j] = candidate
    best: Fraction | None = None
    last = rows[n]
    for j in range(n):
        if last[j] is None:
            continue
        worst: Fraction | None = None
        for k in range(n):
            if rows[k][j] is None:
                continue
            ratio = Fraction(last[j] - rows[k][j], n - k)
            if worst is None or ratio > worst:
                worst = ratio
        if worst is not None and (best is None or worst < best):
            best = worst
    return best


def _component_means(
    vertices: Iterable[object],
    edges: Mapping[object, Sequence[tuple[object, Fraction]]],
) -> Iterator[tuple[set, Fraction]]:
    """(member set, minimum cycle mean) of every strongly connected
    component that contains a cycle."""

    def successors(v: object) -> list[object]:
        return [t for t, _ in edges.get(v, ())]

    for component in strongly_connected_components(vertices, successors):
        member_set = set(component)
        internal = {
            v: [(t, w) for t, w in edges.get(v, ()) if t in member_set]
            for v in component
        }
        if len(component) == 1 and not internal[component[0]]:
            continue
        mean = _karp(component, internal)
        if mean is not None:
            yield member_set, mean


def min_mean_cycle(
    graph: Mapping[object, Iterable[tuple[object, Fraction]]],
) -> Fraction | None:
    """Minimum over all directed cycles of mean edge weight; None if acyclic."""
    adjacency = {v: tuple(out) for v, out in graph.items()}
    return min(
        (mean for _, mean in _component_means(adjacency, adjacency)),
        default=None,
    )


# ---------------------------------------------------------------------------
# Best responses


@dataclass(frozen=True, eq=False)
class ResponseGraph:
    """Product graph of one agent's unconstrained choices against the other
    machines, an optional tax machine, and the agent's goal automaton.

    Vertices are (arena state, others' machine states, tax state, automaton
    state); each outgoing edge fixes one of the agent's actions and one
    automaton successor, weighted by the agent's taxed step cost.
    """

    vertices: tuple[tuple, ...]
    edges: dict
    initial: tuple[tuple, ...]
    accepting: frozenset


@lru_cache(maxsize=256)
def _goal_automaton(formula: Formula, vocabulary: tuple[str, ...]) -> BuchiAutomaton:
    return to_buchi(formula, vocabulary)


def response_graph(
    game: Game,
    profile: Profile,
    agent: int,
    tax: DynamicTax | None = None,
) -> ResponseGraph:
    arena = game.arena
    automaton = _goal_automaton(game.goals[agent], arena.vocabulary)
    others = [
        (i, machine) for i, machine in enumerate(profile.machines) if i != agent
    ]
    own_actions = range(len(arena.actions[agent]))

    def taxed_weight(state: int, letter: int, tax_state: int) -> Fraction:
        base = arena.cost[state][letter]
        assert base is not None
        weight = base[agent]
        if tax is not None:
            weight += tax.outputs[tax_state].rate(state, letter)[agent]
        return weight

    initial = tuple(
        (arena.initial, tuple(0 for _ in others), 0, b) for b in automaton.initial
    )
    edges: dict = {}
    stack = list(initial)
    seen = set(initial)
    while stack:
        vertex = stack.pop()
        state, memory, tax_state, b = vertex
        out = []
        profile_actions = [0] * arena.n_agents
        for (i, machine), q in zip(others, memory):
            profile_actions[i] = machine.outputs[q]
        for action in own_actions:
            profile_actions[agent] = action
            letter = arena.letter_of(profile_actions)
            target = arena.transition[state][letter]
            assert target is not None
            memory_next = tuple(
                machine.transitions[q][letter]
                for (_, machine), q in zip(others, memory)
            )
            tax_next = tax.next_state(tax_state, letter) if tax is not None else 0
            weight = taxed_weight(state, letter, tax_state)
            for b_next in automaton.successors(b, arena.labels[state]):
                succ = (target, memory_next, tax_next, b_next)
                out.append((succ, weight))
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        edges[vertex] = out
    accepting = frozenset(
        v for v in seen if v[3] in automaton.accepting
    )
    return ResponseGraph(
        vertices=tuple(seen),
        edges=edges,
        initial=initial,
        accepting=accepting,
    )


def best_response(
    game: Game,
    profile: Profile,
    agent: int,
    tax: DynamicTax | None = None,
) -> LexValue:
    """Exact supremum of the agent's value over all deviations, of any
    memory size, against the other agents' machines.

    The goal component is attainable iff some reachable nontrivial strongly
    connected component contains an accepting vertex.  If so, the cost
    supremum (infimum of costs) is the smallest internal minimum mean cycle
    among such components: accepting visits can be made arbitrarily rare
    inside one component, diluting their cost into the cheap cycle's mean.
    Otherwise every deviation loses and the cheapest cycle anywhere gives
    the cost.  The supremum need not be attained; strict comparison against
    it still decides whether a strictly better deviation exists, because
    any value strictly between supremum and current value is attained.
    """
    graph = response_graph(game, profile, agent, tax)
    means = [
        (mean, not members.isdisjoint(graph.accepting))
        for members, mean in _component_means(graph.vertices, graph.edges)
    ]
    assert means, "total arenas always reach a cycle"
    winning = [mean for mean, accepting in means if accepting]
    if winning:
        return LexValue(goal_met=True, cost=min(winning))
    return LexValue(goal_met=False, cost=min(mean for mean, _ in means))


def _no_agent_improves(
    game: Game, profile: Profile, outcome: Outcome, tax: DynamicTax | None
) -> bool:
    """Whether no agent's best response strictly beats its outcome value."""
    return all(
        prefers(best_response(game, profile, agent, tax), outcome.value(agent)) <= 0
        for agent in range(game.arena.n_agents)
    )


def is_nash(
    game: Game, profile: Profile, tax: DynamicTax | None = None
) -> bool:
    """Exact Nash membership: no agent has any strictly improving strategy."""
    return _no_agent_improves(game, profile, evaluate(game, profile, tax), tax)


def _nash_sweep(
    game: Game,
    tax: DynamicTax | None,
    memory_bound: int,
    objective: Formula | None = None,
    cap: int = 10**7,
) -> Iterator[tuple[Profile, Outcome]]:
    """Lazily, in enumeration order, each bounded canonical profile that is
    an exact Nash equilibrium, with its outcome.  The objective, when given,
    filters runs before any best response is computed."""
    for profile in enumerate_profiles(game.arena, memory_bound, cap=cap):
        run, trace, winners = _play(game, profile)
        if objective is not None and not eval_on_lasso(objective, trace):
            continue
        outcome = _outcome(run, trace, winners, tax)
        if _no_agent_improves(game, profile, outcome, tax):
            yield profile, outcome


def find_ne(
    game: Game,
    tax: DynamicTax | None,
    memory_bound: int,
    objective: Formula | None = None,
    cap: int = 10**7,
) -> list[Profile]:
    """All bounded canonical profiles that are exact Nash equilibria and,
    when an objective is given, whose run satisfies it.

    Every returned profile is an equilibrium of the unrestricted game;
    equilibria needing more than memory_bound machine states are missed.
    Results keep enumeration order.
    """
    return [
        profile
        for profile, _ in _nash_sweep(game, tax, memory_bound, objective, cap)
    ]
