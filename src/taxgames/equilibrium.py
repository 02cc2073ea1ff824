"""Preferences, best responses over all deviations, and equilibrium checks.

Agents compare runs lexicographically: satisfying their goal dominates any
cost difference, and among runs with the same goal verdict lower limit-average
taxed cost is better.  Nash membership is decided exactly against deviations
of unbounded memory by a product construction: the deviating agent's choices
drive a graph over (arena state, other machines' states, tax state, goal
automaton state), on which goal attainability is generalized Buchi
reachability and optimal cost is a minimum mean cycle.  A strongly
connected component wins when it meets every acceptance set, since it then
has an accepting cycle, one through all of them.

Label guard.  Product vertices agree with their arena labels: a non-sink
automaton state is paired only with arena states whose label it reads,
and a step whose target label no automaton successor reads goes straight
to the sink, as does a step to an automaton state that can no longer
reach an accepting cycle.  This is exact: a mismatching vertex could only
step into the sink, so it lies on no cycle, and its sink copy has the
same out-edges and weights; a dead automaton state lies on no accepting
cycle either, and the sink copy keeps every arena cycle.  So the
accepting components and every cycle mean, hence every best-response
value, stay the same.

A product graph is built in one pass, on integer vertex ids.  Many
automaton states share one configuration (arena state, other machines'
states, tax state), whose arena steps are expanded once per graph and
reused by each of them.  A vertex is found by the integer key
configuration * automaton states + automaton state, and it keeps a
successor list, the agent's integer weights, over one scale per (game,
tax) fixed before any graph is built, and an acceptance bitmask from its
automaton state.  Its value comes from one pass over the components of
the shared strongly-connected-component routine (_graphs): a component
wins when the OR of its masks has every bit, and Karp runs only on
components whose internal weights differ.

The Nash test compares integers too.  Every run cost, in the Nash test or
out of it, is summed over the run's joint cycle with the tax machine from
the same step-cost table the product graphs read; the Nash test compares
it with the memoised best responses by cross-multiplication.  Fractions
are built only for values that leave the library (evaluate, taxed_cost,
best_response).  An agent that wins its goal while its run costs its
cheapest untaxed step needs no product graph: taxes are non-negative, so
no deviation can cost it less.

Sweeps play profiles through a run-class table (_Plays) owned by the
sweep or driver call: each bounded profile is played once per call, and
each distinct canonical run is labelled and has its goals decided once.

Row refutation.  One strictly better deviation refutes a profile, and a
table that has played every bounded profile holds many.  For agent i, a
profile's row is the profiles that differ from it only in agent i's
machine.  On a complete table the Nash test first reads each agent's row:
the best value in it, from the goal winners of the table and the integer
run cost of each run class, summed once per class under the memo's (game,
tax).  A row whose best strictly beats the agent's own value refutes the
profile with no product graph.  This is exact: a bounded machine is a
deviation, and the exact best response is at least as good as it, so the
exact test would refute the profile too.  Only bounded equilibria reach
the product graphs.  Rows are read only from a complete table: find_ne
and a_nash_implement walk the whole table anyway and complete it first,
while the lazy sweep of e_nash_implement stops at its witness and plays
nothing ahead of it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import lcm
from operator import add
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._graphs import strongly_connected_components
from .arena import Game, _check_agent
from .ltl import Formula, LabelTrace, eval_on_lasso, to_buchi
from .strategy import (
    LassoRun,
    Profile,
    StrategyMachine,
    _generate_run,
    _label_trace,
    _universes,
    check_profile,
    check_run,
    lasso_canonical,
)
from .taxation import DynamicTax, _joint_walk, check_tax


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


def _beats(first: tuple[bool, int, int], second: tuple[bool, int, int]) -> bool:
    """prefers(first, second) == 1 on integer values: each is (goal met,
    num, den), whose cost is num / den over a scale both share, so costs
    compare by cross-multiplication."""
    if first[0] != second[0]:
        return first[0]
    return first[1] * second[2] < second[1] * first[2]


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


class _Verdicts(dict):
    """Whether the run of each class of a run-class table satisfies one
    formula, keyed by class and decided on first read."""

    def __init__(self, formula: Formula, traces: list[LabelTrace]) -> None:
        super().__init__()
        self.formula = formula
        self.traces = traces

    def __missing__(self, k: int) -> bool:
        verdict = self[k] = eval_on_lasso(self.formula, self.traces[k])
        return verdict


class _Plays:
    """What each profile of a game plays, tabled for one sweep or driver
    call: the call that creates it owns it, so it lives no longer than the
    call.

    A profile's canonical run, its label trace and its goal winners read
    only the arena's transitions, labels and initial state and the goals,
    which every cost-only copy of the game shares (zero_cost_game, the
    levelled game, apply_static).  So one table serves every sweep of a
    call, whichever copy its best-response memo prices.  Runs are interned
    into run classes: class k has the canonical run runs[k], the label
    trace traces[k] and the goal winners winners[k], each decided once,
    and verdicts(formula)[k] says whether the run satisfies a formula,
    decided once per formula and class, for every sweep that reads it.

    walk() yields each profile of the bounded universes with its class, in
    enumeration order, and plays each profile once however many sweeps
    walk it: rows[index] is the class of the profile at that index, for
    every profile walked so far.  fill() plays every bounded profile not
    played yet; a table is complete once it has played them all (see Row
    refutation in the module docstring).  An index is mixed radix over the
    profile's machine ids, the positions of its machines in the numbered
    universes, with the last agent's digit lowest, and row(agent, index)
    gives the indices of the agent's row there.  class_of looks up any
    profile that fits the game: by index once the walk has passed it, and
    otherwise by the profile itself, played on first sight; a table that
    is never walked numbers no universe.  memory_bound and cap size the
    walk, and a cap of None numbers the universes without a cap check.
    """

    def __init__(
        self, game: Game, memory_bound: int = 1, cap: int | None = None
    ) -> None:
        self.game = game
        self.memory_bound = memory_bound
        self.cap = cap
        self.runs: list[LassoRun] = []
        self.traces: list[LabelTrace] = []
        self.winners: list[frozenset[int]] = []
        self.rows = array("I")
        self.universes: list[list[StrategyMachine]] | None = None
        # once numbered: ids[i] maps each machine of agent i to its id,
        # and an agent's id counts strides[i] in a profile's index
        self.ids: list[dict[StrategyMachine, int]] = []
        self.strides: list[int] = []
        self.size = 0
        self._class_of_run: dict[LassoRun, int] = {}
        self._class_of_profile: dict[Profile, int] = {}
        self._verdicts: dict[Formula, _Verdicts] = {}

    def numbered(self) -> list[list[StrategyMachine]]:
        """The machine universes, numbered and cap-checked on first use."""
        if self.universes is None:
            universes = _universes(self.game.arena, self.memory_bound, self.cap)
            self.ids = [
                {machine: k for k, machine in enumerate(machines)}
                for machines in universes
            ]
            stride = 1
            for machines in reversed(universes):
                self.strides.append(stride)
                stride *= len(machines)
            self.strides.reverse()
            self.size = stride
            self.universes = universes
        return self.universes

    @property
    def complete(self) -> bool:
        """Whether every bounded profile has been played."""
        return self.universes is not None and len(self.rows) == self.size

    def fill(self) -> None:
        """Play every bounded profile not played yet, in enumeration
        order, so that the table is complete."""
        for _ in self.walk():
            pass

    def walk(self) -> Iterator[tuple[Profile, int]]:
        """(profile, class) of every bounded profile, lazily, in
        enumeration order; the cap is checked on the first item."""
        rows = self.rows
        for index, machines in enumerate(product(*self.numbered())):
            profile = Profile(machines)
            if index == len(rows):
                rows.append(self._intern(profile))
            yield profile, rows[index]

    def position(self, profile: Profile) -> int | None:
        """The profile's index, or None when the universes are not
        numbered or one of its machines is outside them."""
        if self.universes is None:
            return None
        index = 0
        for machine, ids, stride in zip(profile.machines, self.ids, self.strides):
            k = ids.get(machine)
            if k is None:
                return None
            index += k * stride
        return index

    def row(self, agent: int, index: int) -> range:
        """The table indices of the profiles that differ from the one at
        index only in the agent's machine, by the agent's machine id."""
        stride, n = self.strides[agent], len(self.universes[agent])
        base = index - index // stride % n * stride
        return range(base, base + n * stride, stride)

    def class_at(self, index: int | None, profile: Profile) -> int:
        """The class of a profile that fits the game; index is the
        profile's index, or None when position finds none."""
        if index is not None and index < len(self.rows):
            return self.rows[index]
        found = self._class_of_profile.get(profile)
        if found is None:
            found = self._class_of_profile[profile] = self._intern(profile)
        return found

    def class_of(self, profile: Profile) -> int:
        return self.class_at(self.position(profile), profile)

    def verdicts(self, formula: Formula) -> _Verdicts:
        found = self._verdicts.get(formula)
        if found is None:
            found = self._verdicts[formula] = _Verdicts(formula, self.traces)
        return found

    def _intern(self, profile: Profile) -> int:
        """Play the profile and return its run's class, labelling the run
        and deciding its goals when the class is new."""
        run = lasso_canonical(_generate_run(self.game.arena, profile))
        found = self._class_of_run.get(run)
        if found is None:
            found = self._class_of_run[run] = len(self.runs)
            trace, winners = _decide(self.game, run)
            self.runs.append(run)
            self.traces.append(trace)
            self.winners.append(winners)
        return found


def _decide(game: Game, run: LassoRun) -> tuple[LabelTrace, frozenset[int]]:
    """A run's label trace and the agents whose goals it satisfies."""
    trace = _label_trace(game.arena, run)
    return trace, frozenset(
        i for i, goal in enumerate(game.goals) if eval_on_lasso(goal, trace)
    )


def _play(game: Game, profile: Profile) -> tuple[LassoRun, LabelTrace, frozenset[int]]:
    """Canonical run, label trace and goal winners of one profile that fits
    the game, played on no table: a one-off check reads it once."""
    run = lasso_canonical(_generate_run(game.arena, profile))
    return (run, *_decide(game, run))


def evaluate(game: Game, profile: Profile, tax: DynamicTax | None = None) -> Outcome:
    check_profile(game.arena, profile)
    responses = _Responses(game, tax)
    run, trace, winners = _play(game, profile)
    return Outcome(
        run=run, winners=winners, costs=responses.mean_costs(run), trace=trace
    )


def taxed_cost(
    game: Game, run: LassoRun, tax: DynamicTax | None, agent: int
) -> Fraction:
    """Exact limit-average taxed cost of one agent along a run of the game,
    which the run must fit (see check_run): the mean over the joint cycle
    of the run and the tax machine (see _Responses.run_costs)."""
    _check_agent(game.arena, agent)
    check_run(game.arena, run)
    return _Responses(game, tax).mean_costs(run)[agent]


# ---------------------------------------------------------------------------
# Minimum mean cycle (Karp) on integer weights


def _below(first: tuple[int, int], second: tuple[int, int]) -> bool:
    """Whether ratio first is below ratio second; each is a (numerator,
    positive denominator) pair, compared by cross-multiplication."""
    return first[0] * second[1] < second[0] * first[1]


def _karp(edges: Sequence[Sequence[tuple[int, int]]]) -> tuple[int, int]:
    """Minimum cycle mean of a strongly connected graph with a cycle, as a
    (numerator, positive denominator) pair.

    Vertices are 0..n-1 and edges[v] lists (target, integer weight) pairs.
    d_k(v) = cheapest walk of exactly k edges from vertex 0; the minimum
    cycle mean is min over v of max over k of (d_n(v) - d_k(v))/(n-k),
    restricted to finite entries (walks of a given length need not exist).
    """
    n = len(edges)
    rows: list[list[int | None]] = [[0] + [None] * (n - 1)]
    for _ in range(n):
        row = rows[-1]
        nxt: list[int | None] = [None] * n
        for v, out in enumerate(edges):
            base = row[v]
            if base is None:
                continue
            for target, weight in out:
                candidate = base + weight
                old = nxt[target]
                if old is None or candidate < old:
                    nxt[target] = candidate
        rows.append(nxt)
    best: tuple[int, int] | None = None
    for v, last in enumerate(rows[n]):
        if last is None:
            continue
        worst: tuple[int, int] | None = None
        for k in range(n):
            first = rows[k][v]
            if first is None:
                continue
            ratio = (last - first, n - k)
            if worst is None or _below(worst, ratio):
                worst = ratio
        if worst is not None and (best is None or _below(worst, best)):
            best = worst
    assert best is not None, "a strongly connected graph with a cycle has a cycle mean"
    return best


def _component_means(
    successors: Sequence[Sequence[int]],
    weights: Sequence[Sequence[int]],
) -> Iterator[tuple[list[int], tuple[int, int]]]:
    """(members, minimum cycle mean) of every strongly connected component
    that contains a cycle, successors first, in a graph on vertices 0..n-1
    whose vertex v has an edge to successors[v][i] of integer weight
    weights[v][i].  Every cycle of a component whose internal edges all
    weigh w has mean w, so Karp runs only on components with mixed
    weights."""
    components = strongly_connected_components(successors)
    component_of = [0] * len(successors)
    for k, members in enumerate(components):
        for v in members:
            component_of[v] = k
    for k, members in enumerate(components):
        internal = {
            w
            for v in members
            for t, w in zip(successors[v], weights[v])
            if component_of[t] == k
        }
        if len(internal) == 1:
            yield members, (internal.pop(), 1)
        elif internal:
            local = {v: i for i, v in enumerate(members)}
            yield members, _karp(
                [
                    [
                        (local[t], w)
                        for t, w in zip(successors[v], weights[v])
                        if component_of[t] == k
                    ]
                    for v in members
                ]
            )


# ---------------------------------------------------------------------------
# Best responses


class ResponseGraph:
    """Product graph of one agent's unconstrained choices against the other
    machines, an optional tax machine, and the agent's goal automaton.

    Vertices are numbered 0..n-1 in the order they are reached, the
    initial ones (listed in initial) first; every vertex is reachable from
    them.  successors[v] lists v's edges, one per action of the agent and
    automaton successor, and weights[v] their weights: the agent's taxed
    step cost times scale, an integer, with scale fixed per (game, tax)
    (see _Responses).  masks[v] has bit k set when v's automaton state is
    in the goal automaton's acceptance set k, and full has one bit per
    set, so a component meets every set when the OR of its masks is full.
    Every vertex whose automaton state is not the sink agrees with its
    arena label (see Label guard in the module docstring).

    vertices[v] is (arena state, others' machine states, tax state,
    automaton state), built on first read, which the memo never does.
    """

    def __init__(
        self,
        successors: list[list[int]],
        weights: list[list[int]],
        masks: list[int],
        full: int,
        initial: tuple[int, ...],
        scale: int,
        configs: list[tuple[int, tuple[int, ...], int]],
        keys: list[int],
        n_automaton_states: int,
    ) -> None:
        self.successors = successors
        self.weights = weights
        self.masks = masks
        self.full = full
        self.initial = initial
        self.scale = scale
        # vertex v pairs configuration c with automaton state b, where
        # keys[v] = c * n_automaton_states + b
        self._configs = configs
        self._keys = keys
        self._n_automaton_states = n_automaton_states

    @cached_property
    def vertices(self) -> tuple[tuple, ...]:
        configs = self._configs
        return tuple(
            (*configs[c], b)
            for c, b in (divmod(key, self._n_automaton_states) for key in self._keys)
        )


class _Goal(NamedTuple):
    """An agent's goal automaton as the product reads it, over the
    automaton's state numbers (the sink included).

    columns numbers the automaton's atoms; a label that is no atom reads
    column -1.  moves[b][c] lists the successors of state b whose atom has
    column c and that can still reach an accepting cycle, or just the sink
    when there are none; starts does the same for the initial states.
    masks[b] has bit k set when state b is in the acceptance set k that
    the product keeps, and full has one bit per kept set.
    """

    constrained: frozenset[str]
    columns: Mapping[frozenset[str], int]
    starts: tuple[tuple[int, ...], ...]
    moves: tuple[tuple[tuple[int, ...], ...], ...]
    masks: tuple[int, ...]
    full: int


@lru_cache(maxsize=256)
def _goal_automaton(formula: Formula, vocabulary: tuple[str, ...]) -> _Goal:
    automaton = to_buchi(formula, vocabulary)
    edges = automaton.edges
    # live states reach a cyclic component that meets every acceptance set;
    # components come successors first, so one pass settles each of them
    live: set[int] = set()
    for component in strongly_connected_components(edges):
        cyclic = len(component) > 1 or component[0] in edges[component[0]]
        if (
            cyclic
            and all(not marks.isdisjoint(component) for marks in automaton.acceptance)
        ) or any(t in live for b in component for t in edges[b]):
            live.update(component)

    # a set holding every non-sink state is met by every non-sink product
    # component and by no sink one, the only two kinds, so it decides
    # nothing unless every set is full; then one is kept, which sink
    # components miss
    partial = tuple(
        marks for marks in automaton.acceptance if len(marks) < automaton.sink
    )
    acceptance = partial or automaton.acceptance[:1]

    columns = {atom: c for c, atom in enumerate(dict.fromkeys(automaton.atoms))}
    to_sink = (automaton.sink,)
    # many states have equal rows; each is stored once, since the goal
    # cache holds every row for as long as it keeps the goal
    rows: dict[tuple, tuple[tuple[int, ...], ...]] = {}

    def split(states: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        table: list[tuple[int, ...]] = [()] * (len(columns) + 1)
        for b in states:
            if b in live:
                table[columns[automaton.atoms[b]]] += (b,)
        row = tuple(cell or to_sink for cell in table)
        return rows.setdefault(row, row)

    return _Goal(
        constrained=automaton.constrained,
        columns=columns,
        starts=split(automaton.initial),
        moves=tuple(split(out) for out in edges),
        masks=tuple(
            sum(1 << k for k, marks in enumerate(acceptance) if b in marks)
            for b in range(len(edges))
        ),
        full=(1 << len(acceptance)) - 1,
    )


class _Reader(NamedTuple):
    """What one agent's product graphs read of a (game, tax) memo besides
    the profile: the agent's goal, the goal column of each arena state's
    label, each agent's letter stride, and the agent's own letters."""

    goal: _Goal
    columns: list[int]
    strides: tuple[int, ...]
    own_letters: list[int]


class _Responses:
    """Best responses and run costs under one (game, tax), memoised.  The
    sweep or driver call that creates one owns it, so the memo lives no
    longer than that call.

    steps holds the taxed step costs (arena cost plus tax rate) of the
    cells that product graphs and runs reach, keyed by (state, letter, tax
    state), as integer vectors over scale: the lcm of the arena's cost
    scale and of every rate denominator of the tax, fixed here before any
    graph reads the table.  The arena keeps its costs as integers and each
    tax output its rate lcm, so a memo converts only the vectors it meets,
    each once: rate vectors, and cost vectors when the tax widens the
    scale.  values holds each best response as (goal met, num,
    den), a cost of num / (den * scale), keyed on (agent, the other agents'
    machines): a response reads nothing else of the profile.  run_costs
    sums a run's steps from the same table, and mean_costs turns those
    sums into the Fraction costs that evaluate and taxed_cost return.
    row_best reads the rows of one complete run-class table: each run
    class is summed once, and each row's best value is kept per (agent,
    row); a memo that is handed another table forgets the first one's.
    floors[i] is agent i's cheapest untaxed step cost over scale.  The
    arena is valid (see Arena) and the tax is checked against it here, so
    every cell a graph or run reaches has a successor, a cost and a tax
    state.
    """

    def __init__(self, game: Game, tax: DynamicTax | None) -> None:
        costs = game.arena._integer_costs
        scale = costs.scale
        if tax is not None:
            check_tax(game.arena, tax)
            scale = lcm(scale, *(out._scale for out in tax.outputs))
        factor = scale // costs.scale
        self.game = game
        self.tax = tax
        self.scale = scale
        self.floors = tuple(f * factor for f in costs.floors)
        self._rows = costs.rows
        self._factor = factor
        # integer vectors over scale, keyed by the identity of the arena's
        # integer cost vector or the tax's rate vector they convert, which
        # the arena and the tax keep alive as long as the memo
        self._scaled: dict[int, tuple[int, ...]] = {}
        self.steps: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self.values: dict[
            tuple[int, tuple[StrategyMachine, ...]], tuple[bool, int, int]
        ] = {}
        self._readers: dict[int, _Reader] = {}
        self._plays: _Plays | None = None
        self._class_values: dict[int, tuple[tuple[bool, int, int], ...]] = {}
        self._row_values: dict[tuple[int, int], tuple[bool, int, int]] = {}

    def reader(self, agent: int) -> _Reader:
        """The agent's _Reader, built on its first product graph."""
        found = self._readers.get(agent)
        if found is None:
            arena = self.game.arena
            goal = _goal_automaton(self.game.goals[agent], arena.vocabulary)
            strides = arena._strides
            found = self._readers[agent] = _Reader(
                goal=goal,
                columns=[
                    goal.columns.get(label & goal.constrained, -1)
                    for label in arena.labels
                ],
                strides=strides,
                own_letters=[
                    action * strides[agent]
                    for action in range(len(arena.actions[agent]))
                ],
            )
        return found

    def step(self, state: int, letter: int, tax_state: int) -> tuple[int, ...]:
        cost = self._rows[state][letter]
        scaled = self._scaled
        if self._factor != 1:
            found = scaled.get(id(cost))
            if found is None:
                found = scaled[id(cost)] = tuple([x * self._factor for x in cost])
            cost = found
        if self.tax is not None:
            rate = self.tax.outputs[tax_state].rate(state, letter)
            found = scaled.get(id(rate))
            if found is None:
                scale = self.scale
                found = scaled[id(rate)] = tuple(
                    [x.numerator * (scale // x.denominator) for x in rate]
                )
            cost = tuple(map(add, cost, found))
        self.steps[(state, letter, tax_state)] = cost
        return cost

    def run_costs(self, run: LassoRun) -> tuple[list[int], int]:
        """Each agent's taxed cost summed over the joint cycle of the run
        and the tax machine, as integers over scale, and that cycle's
        length: agent i's limit-average cost is totals[i] / (length *
        scale).  The prefix contributes nothing."""
        tax = self.tax
        if tax is None or tax.n_states == 1:
            keys = [(step.state, step.letter, 0) for step in run.cycle]
        else:
            walk, split = _joint_walk(run, tax)
            keys = [(step.state, step.letter, q) for step, q in walk[split:]]
        steps, step = self.steps, self.step
        rows = [steps.get(key) or step(*key) for key in keys]
        return [sum(column) for column in zip(*rows)], len(keys)

    def mean_costs(self, run: LassoRun) -> tuple[Fraction, ...]:
        """Each agent's exact limit-average taxed cost along the run: the
        Fraction of run_costs' integer sums."""
        totals, length = self.run_costs(run)
        return tuple(Fraction(total, length * self.scale) for total in totals)

    def _read(self, plays: _Plays) -> None:
        """Keep class and row values for plays, forgetting those of any
        table read before."""
        if plays is not self._plays:
            self._plays = plays
            self._class_values = {}
            self._row_values = {}

    def class_values(
        self, plays: _Plays, k: int
    ) -> tuple[tuple[bool, int, int], ...]:
        """Each agent's value on the run of class k of plays, as (goal met,
        total, length) from run_costs, summed once per class."""
        self._read(plays)
        found = self._class_values.get(k)
        if found is None:
            totals, length = self.run_costs(plays.runs[k])
            winners = plays.winners[k]
            found = self._class_values[k] = tuple(
                [(i in winners, total, length) for i, total in enumerate(totals)]
            )
        return found

    def row_best(self, plays: _Plays, agent: int, index: int) -> tuple[bool, int, int]:
        """The agent's best value, as (goal met, total, length) over the
        run's cycle, among the profiles of plays, a complete table, in the
        agent's row of the profile at index."""
        self._read(plays)
        row = plays.row(agent, index)
        found = self._row_values.get((agent, row.start))
        if found is None:
            for k in set(plays.rows[row.start : row.stop : row.step]):
                value = self.class_values(plays, k)[agent]
                if found is None or _beats(value, found):
                    found = value
            self._row_values[(agent, row.start)] = found
        return found

    def value(self, profile: Profile, agent: int) -> tuple[bool, int, int]:
        machines = profile.machines
        key = (agent, machines[:agent] + machines[agent + 1 :])
        found = self.values.get(key)
        if found is None:
            graph = response_graph(self.game, profile, agent, self.tax, self)
            found = self.values[key] = _response_mean(graph)
        return found


def response_graph(
    game: Game,
    profile: Profile,
    agent: int,
    tax: DynamicTax | None = None,
    responses: _Responses | None = None,
) -> ResponseGraph:
    """The agent's product graph; responses, when given, is the (game, tax)
    memo whose step-cost table the graph reads and fills.  An agent index
    outside the game raises ValueError."""
    _check_agent(game.arena, agent)
    if responses is None:
        responses = _Responses(game, tax)
    return _product(responses, profile, agent)


def _product(responses: _Responses, profile: Profile, agent: int) -> ResponseGraph:
    """Build the graph from its initial vertices outwards, in one pass
    (see the module docstring).  Configurations are numbered c in the order
    they are reached, and width counts the automaton's states."""
    goal, columns, strides, own_letters = responses.reader(agent)
    tax, arena = responses.tax, responses.game.arena
    others = [
        (machine.outputs, machine.transitions, strides[i])
        for i, machine in enumerate(profile.machines)
        if i != agent
    ]
    tax_moves = tax.transitions if tax is not None else None
    steps, step = responses.steps, responses.step
    moves, masks = goal.moves, goal.masks
    width = len(moves)
    # each step looks its automaton successors up by the label of its
    # target (see Label guard in the module docstring)
    starts = goal.starts[columns[arena.initial]]

    configs: list[tuple[int, tuple[int, ...], int]] = [
        (arena.initial, (0,) * len(others), 0)
    ]
    config_index = {configs[0]: 0}
    # per configuration: (target configuration times width, target column,
    # weight) per own action, or None until its first vertex is expanded
    expansions: list[list[tuple[int, int, int]] | None] = [None]
    # per state tuple of the other machines: (letter, their next states) per
    # own action, shared by every configuration holding those states
    memory_plays: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    # the vertex number of each key, -1 until the vertex is reached
    blank = [-1] * width
    numbers = blank.copy()
    keys = list(starts)
    for v, b in enumerate(starts):
        numbers[b] = v
    successors: list[list[int]] = []
    weights: list[list[int]] = []
    vertex_masks: list[int] = []
    # keys grows while it is walked, so every reached vertex is expanded
    for key in keys:
        c, b = divmod(key, width)
        expansion = expansions[c]
        if expansion is None:
            state, memory, tax_state = configs[c]
            plays = memory_plays.get(memory)
            if plays is None:
                others_letter = sum(
                    outputs[q] * stride
                    for (outputs, _, stride), q in zip(others, memory)
                )
                their_rows = [table[q] for (_, table, _), q in zip(others, memory)]
                plays = memory_plays[memory] = [
                    (letter, tuple([their_row[letter] for their_row in their_rows]))
                    for letter in [others_letter + own for own in own_letters]
                ]
            row = arena.transition[state]
            expansion = expansions[c] = []
            for letter, memory_next in plays:
                target = row[letter]
                cell = (state, letter, tax_state)
                cost = steps.get(cell) or step(*cell)
                tax_next = tax_moves[tax_state][letter] if tax_moves else 0
                config = (target, memory_next, tax_next)
                t = config_index.get(config)
                if t is None:
                    t = config_index[config] = len(configs)
                    configs.append(config)
                    expansions.append(None)
                    numbers.extend(blank)
                expansion.append((t * width, columns[target], cost[agent]))
        follow = moves[b]
        out: list[int] = []
        out_weights: list[int] = []
        for base, column, weight in expansion:
            for b_next in follow[column]:
                k = base + b_next
                j = numbers[k]
                if j < 0:
                    j = numbers[k] = len(keys)
                    keys.append(k)
                out.append(j)
                out_weights.append(weight)
        successors.append(out)
        weights.append(out_weights)
        vertex_masks.append(masks[b])
    return ResponseGraph(
        successors,
        weights,
        vertex_masks,
        goal.full,
        tuple(range(len(starts))),
        responses.scale,
        configs,
        keys,
        width,
    )


def _response_mean(graph: ResponseGraph) -> tuple[bool, int, int]:
    """The best response read off the agent's product graph, as (goal met,
    num, den): its cost is num / (den * graph.scale).  A component wins
    when the OR of its vertices' masks is full."""
    masks, full = graph.masks, graph.full
    best: tuple[int, int] | None = None
    best_winning: tuple[int, int] | None = None
    for members, mean in _component_means(graph.successors, graph.weights):
        if best is None or _below(mean, best):
            best = mean
        if best_winning is None or _below(mean, best_winning):
            mask = 0
            for v in members:
                mask |= masks[v]
            if mask == full:
                best_winning = mean
    assert best is not None, "total arenas always reach a cycle"
    goal_met = best_winning is not None
    num, den = best_winning if goal_met else best
    return goal_met, num, den


def _response_value(graph: ResponseGraph) -> LexValue:
    """best_response read off the agent's product graph."""
    goal_met, num, den = _response_mean(graph)
    return LexValue(goal_met=goal_met, cost=Fraction(num, den * graph.scale))


def best_response(
    game: Game,
    profile: Profile,
    agent: int,
    tax: DynamicTax | None = None,
) -> LexValue:
    """Exact supremum of the agent's value over all deviations, of any
    memory size, against the other agents' machines.

    The goal component is attainable iff some reachable nontrivial strongly
    connected component meets every acceptance set.  If so, the cost
    supremum (infimum of costs) is the smallest internal minimum mean cycle
    among such components: visits to the acceptance sets can be made
    arbitrarily rare inside one component, diluting their cost into the
    cheap cycle's mean.
    Otherwise every deviation loses and the cheapest cycle anywhere gives
    the cost.  The supremum need not be attained; strict comparison against
    it still decides whether a strictly better deviation exists, because
    any value strictly between supremum and current value is attained.
    """
    check_profile(game.arena, profile)
    return _response_value(response_graph(game, profile, agent, tax))


def _no_agent_improves(
    responses: _Responses,
    profile: Profile,
    run: LassoRun,
    winners: frozenset[int],
    plays: _Plays | None = None,
    index: int | None = None,
) -> bool:
    """Whether no agent's best response strictly beats its value on the
    profile's run, whose goal winners are given; stops at the first agent
    that improves.

    When plays is a complete run-class table and index the profile's
    index in it, every agent's row is read first (see Row refutation in
    the module docstring).  In the exact test an agent that wins its goal
    at its cost floor is skipped without a product graph."""
    if plays is not None and index is not None and plays.complete:
        values = responses.class_values(plays, plays.rows[index])
        row_best = responses.row_best
        for agent, value in enumerate(values):
            if _beats(row_best(plays, agent, index), value):
                return False
    else:
        totals, length = responses.run_costs(run)
        values = [(i in winners, total, length) for i, total in enumerate(totals)]
    floors = responses.floors
    for agent, value in enumerate(values):
        met, total, length = value
        if met and total == floors[agent] * length:
            continue
        if _beats(responses.value(profile, agent), value):
            return False
    return True


def is_nash(
    game: Game, profile: Profile, tax: DynamicTax | None = None
) -> bool:
    """Exact Nash membership: no agent has any strictly improving strategy."""
    check_profile(game.arena, profile)
    run, _, winners = _play(game, profile)
    return _no_agent_improves(_Responses(game, tax), profile, run, winners)


def _nash_sweep(
    responses: _Responses, plays: _Plays, objective: Formula | None = None
) -> Iterator[Profile]:
    """Lazily, in enumeration order, each bounded canonical profile of the
    table's walk that is an exact Nash equilibrium of the responses' game
    under their tax.  The objective, when given, filters runs before any
    best response is computed, decided once per run class on the table.
    The sweep plays nothing ahead of its walk."""
    runs, winners = plays.runs, plays.winners
    satisfied = plays.verdicts(objective) if objective is not None else None
    for index, (profile, k) in enumerate(plays.walk()):
        if satisfied is not None and not satisfied[k]:
            continue
        if _no_agent_improves(responses, profile, runs[k], winners[k], plays, index):
            yield profile


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
    responses = _Responses(game, tax)  # checks the tax before any play
    plays = _Plays(game, memory_bound, cap)
    plays.fill()
    return list(_nash_sweep(responses, plays, objective))
