"""Concurrent game arenas: model types, validation, and the grid-world generator.

An arena is a finite set of states over which all agents simultaneously pick
one action each; the joint action profile determines the successor state and
a vector of per-agent step costs.  Letters (joint profiles) are indexed in
row-major order over the per-agent action lists, so a letter index and a
tuple of per-agent action indices are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

from .ltl import Formula, parse_ltl, variables

_GRID_ACTIONS = ("up", "down", "left", "right", "stay")
_GRID_MOVES = {
    "up": (0, -1),
    "down": (0, 1),
    "left": (-1, 0),
    "right": (1, 0),
    "stay": (0, 0),
}


def to_fraction(value: object) -> Fraction:
    """Exact conversion accepting int, Fraction, and strings holding an
    integer, "p/q" or a plain decimal.

    Floats are rejected: binary floats would silently smuggle in rounding,
    and every consumer of this package relies on exact comparisons.  So is
    exponent notation, which Fraction expands into all its digits:
    "1e10000000" would take seconds and megabytes.
    """
    if isinstance(value, bool):
        raise TypeError("boolean is not a number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation in {value!r} is not accepted")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; use a string or integer")
    raise TypeError(f"cannot interpret {value!r} as a rational")


class _IntegerCosts(NamedTuple):
    """An arena's cost table as integers over one scale, the lcm of every
    cost denominator.

    rows[s][letter] is the cell's cost vector times scale; rows that the
    arena's cost table shares are shared here too.  floors[i] is agent i's
    cheapest step cost times scale, so no run of the untaxed or
    non-negatively taxed arena costs agent i less; ceilings[i] is agent
    i's dearest step cost times scale, and at least 0.
    """

    scale: int
    rows: tuple[tuple[tuple[int, ...], ...], ...]
    floors: tuple[int, ...]
    ceilings: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Arena:
    """Immutable concurrent game arena.

    transition[s][letter] is the successor state index and cost[s][letter]
    the per-agent Fraction vector of every state and letter.  The arena is
    total by construction: a None cell in either table raises one
    ValueError naming every missing cell, so no algorithm meets a hole.
    A copy made by dataclasses.replace that keeps its source's transition
    table object, as the cost-only copies do, scans only its cost table:
    _checked_transition, which replace hands on, is the table the source
    was checked with.
    """

    states: tuple[str, ...]
    vocabulary: tuple[str, ...]
    agents: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    labels: tuple[frozenset[str], ...]
    transition: tuple[tuple[int, ...], ...]
    cost: tuple[tuple[tuple[Fraction, ...], ...], ...]
    initial: int
    _checked_transition: tuple[tuple[int, ...], ...] | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        tables = (self.cost,)
        if self.transition is not self._checked_transition:
            tables = (self.transition, self.cost)
        # a row object that many states share is read once
        if not any(
            None in row
            for table in tables
            for row in {id(row): row for row in table}.values()
        ):
            object.__setattr__(self, "_checked_transition", self.transition)
            return
        missing = [
            f"missing-{kind}: ({name}, {'/'.join(self.letter_names(letter))})"
            for s, name in enumerate(self.states)
            for letter in self.letters()
            for kind, table in (("transition", self.transition), ("cost", self.cost))
            if table[s][letter] is None
        ]
        raise ValueError("arena is not total: " + "; ".join(missing))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def n_letters(self) -> int:
        count = 1
        for acts in self.actions:
            count *= len(acts)
        return count

    def letters(self) -> range:
        return range(self.n_letters)

    def letter_profile(self, letter: int) -> tuple[int, ...]:
        """Decode a letter index into per-agent action indices."""
        out = []
        for acts in reversed(self.actions):
            letter, idx = divmod(letter, len(acts))
            out.append(idx)
        return tuple(reversed(out))

    def letter_of(self, profile: Sequence[int]) -> int:
        """Encode per-agent action indices into a letter index."""
        letter = 0
        for acts, idx in zip(self.actions, profile):
            letter = letter * len(acts) + idx
        return letter

    def letter_names(self, letter: int) -> tuple[str, ...]:
        return tuple(
            self.actions[i][idx]
            for i, idx in enumerate(self.letter_profile(letter))
        )

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise KeyError(f"unknown state {name!r}") from None

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        """Each agent's letter stride: letter_of is linear in the action
        indices, so a letter is the sum of each agent's action times its
        stride."""
        n = self.n_agents
        return tuple(self.letter_of([int(j == i) for j in range(n)]) for i in range(n))

    @cached_property
    def _integer_costs(self) -> _IntegerCosts:
        """The cost table as integers, converted on first use; the arena
        is frozen, so the conversion is kept with it."""
        vectors = _cost_vectors(self)
        scale = lcm(*(x.denominator for v in vectors for x in v))
        scaled = {
            id(v): tuple(x.numerator * (scale // x.denominator) for x in v)
            for v in vectors
        }
        shared: dict[int, tuple[tuple[int, ...], ...]] = {}
        rows = []
        for row in self.cost:
            found = shared.get(id(row))
            if found is None:
                found = shared[id(row)] = tuple(scaled[id(v)] for v in row)
            rows.append(found)
        columns = list(zip(*scaled.values()))
        return _IntegerCosts(
            scale,
            tuple(rows),
            floors=tuple(min(column) for column in columns),
            ceilings=tuple(max(0, *column) for column in columns),
        )


@dataclass(frozen=True, eq=False)
class Game:
    arena: Arena
    goals: tuple[Formula, ...]
    goal_texts: tuple[str, ...]


def make_arena(
    *,
    states: Sequence[str],
    vocabulary: Sequence[str],
    agents: Sequence[str],
    actions: Mapping[str, Sequence[str]],
    labels: Mapping[str, Iterable[str]],
    transitions: Mapping[tuple[str, tuple[str, ...]], str],
    costs: Mapping[tuple[str, tuple[str, ...]], Sequence[object]],
    initial: str,
    default_target: str | None = None,
    default_cost: Sequence[object] | None = None,
) -> Arena:
    """Build an arena from name-keyed tables.

    Unspecified transition or cost cells take the defaults when given; a
    cell left uncovered makes the arena raise ValueError, which names every
    such cell.
    """
    state_ids = {name: i for i, name in enumerate(states)}
    if len(state_ids) != len(states):
        raise ValueError("duplicate state names")
    if initial not in state_ids:
        raise ValueError(f"unknown initial state {initial!r}")
    vocab = tuple(vocabulary)
    if len(set(agents)) != len(agents):
        raise ValueError("duplicate agent names")
    stray = set(labels) - state_ids.keys()
    if stray:
        raise ValueError(
            "labels for unknown states " + ", ".join(sorted(map(repr, stray)))
        )
    action_lists = []
    for agent in agents:
        if agent not in actions or not actions[agent]:
            raise ValueError(f"agent {agent!r} needs a non-empty action list")
        action_lists.append(tuple(actions[agent]))

    label_sets = []
    for name in states:
        given = frozenset(labels.get(name, ()))
        unknown = given - frozenset(vocab)
        if unknown:
            raise ValueError(
                f"state {name!r} labelled with unknown variables "
                + ", ".join(sorted(unknown))
            )
        label_sets.append(given)

    letter_order = list(product(*action_lists))
    letter_ids = {combo: i for i, combo in enumerate(letter_order)}
    n = len(agents)

    # equal vectors share one object, so per-vector work downstream (the
    # levelling tax, the cost ceilings) runs once per distinct vector
    interned: dict[tuple[Fraction, ...], tuple[Fraction, ...]] = {}

    def normalize_cost(raw: Sequence[object]) -> tuple[Fraction, ...]:
        vector = tuple(to_fraction(x) for x in raw)
        if len(vector) != n:
            raise ValueError(f"cost vector {raw!r} has arity {len(vector)}, want {n}")
        return interned.setdefault(vector, vector)

    default_cost_vec = None if default_cost is None else normalize_cost(default_cost)
    transition_rows = [
        [None if default_target is None else state_ids[default_target]]
        * len(letter_order)
        for _ in states
    ]
    cost_rows = [[default_cost_vec] * len(letter_order) for _ in states]

    for (state, combo), target in transitions.items():
        if state not in state_ids:
            raise ValueError(f"transition from unknown state {state!r}")
        if combo not in letter_ids:
            raise ValueError(f"unknown action profile {combo!r}")
        if target not in state_ids:
            raise ValueError(f"transition to unknown state {target!r}")
        transition_rows[state_ids[state]][letter_ids[combo]] = state_ids[target]
    for (state, combo), raw in costs.items():
        if state not in state_ids:
            raise ValueError(f"cost for unknown state {state!r}")
        if combo not in letter_ids:
            raise ValueError(f"unknown action profile {combo!r}")
        cost_rows[state_ids[state]][letter_ids[combo]] = normalize_cost(raw)

    return Arena(
        states=tuple(states),
        vocabulary=vocab,
        agents=tuple(agents),
        actions=tuple(action_lists),
        labels=tuple(label_sets),
        transition=tuple(tuple(row) for row in transition_rows),
        cost=tuple(tuple(row) for row in cost_rows),
        initial=state_ids[initial],
    )


def make_game(arena: Arena, goal_texts: Sequence[str]) -> Game:
    if len(goal_texts) != arena.n_agents:
        raise ValueError(
            f"{len(goal_texts)} goals for {arena.n_agents} agents"
        )
    goals = tuple(parse_ltl(text, arena.vocabulary) for text in goal_texts)
    return Game(arena=arena, goals=goals, goal_texts=tuple(goal_texts))


def validate(game: Game) -> list[str]:
    """All invariant violations, one diagnostic string each; [] means valid.
    Totality is not among them: an arena with a missing cell cannot be
    built (see Arena)."""
    arena = game.arena
    issues: list[str] = []
    vocab = frozenset(arena.vocabulary)
    if not (0 <= arena.initial < arena.n_states):
        issues.append(f"initial-state: index {arena.initial} out of range")
    for s, name in enumerate(arena.states):
        extra = arena.labels[s] - vocab
        if extra:
            issues.append(
                f"unknown-label: state {name} uses " + ", ".join(sorted(extra))
            )
    # each cost vector object is checked once, however many cells share
    # it, and a cell is named only in a state that has an issue
    n_states = arena.n_states
    bad_vectors = {
        id(v)
        for v in _cost_vectors(arena)
        if len(v) != arena.n_agents or any(x < 0 for x in v)
    }
    for s in range(n_states):
        targets, costs = arena.transition[s], arena.cost[s]
        bad_target = targets and (min(targets) < 0 or max(targets) >= n_states)
        bad_cost = bad_vectors and any(id(v) in bad_vectors for v in costs)
        if not (bad_target or bad_cost):
            continue
        for letter in arena.letters():
            cell = f"({arena.states[s]}, {'/'.join(arena.letter_names(letter))})"
            target = arena.transition[s][letter]
            if not (0 <= target < n_states):
                issues.append(f"bad-transition-target: {cell} -> {target}")
            vector = arena.cost[s][letter]
            if len(vector) != arena.n_agents:
                issues.append(f"bad-cost-arity: {cell} has {len(vector)} entries")
            for i, value in enumerate(vector):
                if value < 0:
                    issues.append(
                        f"negative-cost: {cell} agent {arena.agents[i]} = {value}"
                    )
    for i, goal in enumerate(game.goals):
        extra = variables(goal) - vocab
        if extra:
            issues.append(
                f"goal-variable: goal of agent {arena.agents[i]} uses "
                + ", ".join(sorted(extra))
            )
    return issues


def _cost_vectors(arena: Arena) -> Iterable[tuple[Fraction, ...]]:
    """Each cost vector object once, told apart by identity so no Fraction
    is hashed; a row that many states share is read once."""
    rows = {id(row): row for row in arena.cost}.values()
    return {id(v): v for row in rows for v in row}.values()


def _cost_ceilings(arena: Arena) -> tuple[Fraction, ...]:
    """Exact maximum per-step cost of every agent over all cells, and at
    least 0, read off the integer cost table."""
    costs = arena._integer_costs
    return tuple(Fraction(c, costs.scale) for c in costs.ceilings)


def _check_agent(arena: Arena, agent: int) -> None:
    """Raise ValueError unless agent indexes one of the arena's agents."""
    if not 0 <= agent < arena.n_agents:
        raise ValueError(f"agent index {agent} is outside 0..{arena.n_agents - 1}")


def max_cost(game: Game, agent: int) -> Fraction:
    """Exact maximum per-step cost of one agent over all cells."""
    _check_agent(game.arena, agent)
    return _cost_ceilings(game.arena)[agent]


def zero_cost_game(game: Game) -> Game:
    return _uniform_cost_game(game, Fraction(0))


def _uniform_cost_game(game: Game, level: Fraction) -> Game:
    """A copy of the game whose every cost cell is one shared vector charging level to every agent.  Its single row is shared
    by every state, so the integer cost table reads one row."""
    arena = game.arena
    vector = (level,) * arena.n_agents
    cost = ((vector,) * arena.n_letters,) * arena.n_states
    return replace(game, arena=replace(arena, cost=cost))


# ---------------------------------------------------------------------------
# Grid world generator


@dataclass(frozen=True)
class GridSpec:
    """A rectangular grid with robots, apple source cells, and one basket.

    Cells are (x, y) with x in [0, width) and y in [0, height); up decreases
    y.  action_costs assigns a base cost to a movement action name; unlisted
    actions cost 0, so an empty mapping gives a costless game.
    """

    width: int
    height: int
    robots: tuple[tuple[int, int], ...]
    apples: tuple[tuple[int, int], ...] = ()
    basket: tuple[int, int] | None = None
    action_costs: tuple[tuple[str, Fraction], ...] = ()


def grid_spec_diagnostics(spec: GridSpec) -> list[str]:
    issues: list[str] = []
    if spec.width < 1 or spec.height < 1:
        issues.append(f"bad-dimensions: {spec.width}x{spec.height}")
        return issues

    def inside(cell: tuple[int, int]) -> bool:
        x, y = cell
        return 0 <= x < spec.width and 0 <= y < spec.height

    if not spec.robots:
        issues.append("no-robots: at least one robot required")
    for i, cell in enumerate(spec.robots):
        if not inside(cell):
            issues.append(f"robot-out-of-bounds: robot {i} at {cell}")
    if len(set(spec.robots)) != len(spec.robots):
        issues.append("robots-overlap: start cells must be distinct")
    for j, cell in enumerate(spec.apples):
        if not inside(cell):
            issues.append(f"apple-out-of-bounds: apple {j} at {cell}")
    if spec.basket is not None and not inside(spec.basket):
        issues.append(f"basket-out-of-bounds: {spec.basket}")
    if spec.apples and spec.basket is None:
        issues.append("basket-missing: apples need a basket cell")
    for action, value in spec.action_costs:
        if action not in _GRID_ACTIONS:
            issues.append(f"unknown-action-cost: {action}")
        elif value < 0:
            issues.append(f"negative-action-cost: {action} = {value}")
    return issues


def grid_world_game(spec: GridSpec) -> Game:
    """Expand a grid spec into an explicit game.

    States enumerate the full product of robot positions, per-(robot, apple)
    carried/delivered flag pairs, and a crash bit, so the state count is
    (width*height)^R * 4^(R*A) * 2.  A step moves all robots at once (wall
    moves stay put), then resolves apple pickups (ties to the lowest robot
    index), then basket deliveries.  The crash bit of the successor is set
    when two robots share a cell after the step or swapped cells during it.

    Labels: a_{i}_{j} marks robot i on apple j's source cell while carrying
    it (true at the pickup step); b_{i} marks robot i on the basket after
    having delivered something; c marks the crash bit.  Goals are G !c for
    every robot.
    """
    issues = grid_spec_diagnostics(spec)
    if issues:
        raise ValueError("invalid grid spec: " + "; ".join(issues))

    n_robots = len(spec.robots)
    n_apples = len(spec.apples)
    cells = [(x, y) for y in range(spec.height) for x in range(spec.width)]
    pairs = [(i, j) for i in range(n_robots) for j in range(n_apples)]
    cost_of = dict(spec.action_costs)

    # A configuration is (positions, flags, crash) where flags maps each
    # (robot, apple) pair to a (carried, delivered) bit pair.
    configs = [
        (positions, flags, crash)
        for positions in product(cells, repeat=n_robots)
        for flags in product(((False, False), (True, False),
                              (False, True), (True, True)), repeat=len(pairs))
        for crash in (False, True)
    ]

    def name_of(config) -> str:
        positions, flags, crash = config
        parts = [f"r{i}x{x}y{y}" for i, (x, y) in enumerate(positions)]
        for (i, j), (carried, delivered) in zip(pairs, flags):
            if carried:
                parts.append(f"c{i}a{j}")
            if delivered:
                parts.append(f"d{i}a{j}")
        if crash:
            parts.append("crash")
        return "-".join(parts)

    index_of = {config: k for k, config in enumerate(configs)}

    def labels_of(config) -> frozenset[str]:
        positions, flags, crash = config
        out = set()
        for (i, j), (carried, _) in zip(pairs, flags):
            if carried and positions[i] == spec.apples[j]:
                out.add(f"a_{i}_{j}")
        if spec.basket is not None:
            for i in range(n_robots):
                if positions[i] == spec.basket and any(
                    delivered
                    for (r, _), (_, delivered) in zip(pairs, flags)
                    if r == i
                ):
                    out.add(f"b_{i}")
        if crash:
            out.add("c")
        return frozenset(out)

    def step(config, moves: tuple[str, ...]):
        positions, flags, _ = config
        nxt = []
        for (x, y), move in zip(positions, moves):
            dx, dy = _GRID_MOVES[move]
            tx, ty = x + dx, y + dy
            if 0 <= tx < spec.width and 0 <= ty < spec.height:
                nxt.append((tx, ty))
            else:
                nxt.append((x, y))
        crash = False
        for i in range(n_robots):
            for k in range(i + 1, n_robots):
                if nxt[i] == nxt[k]:
                    crash = True
                if nxt[i] == positions[k] and nxt[k] == positions[i]:
                    crash = True
        flag_map = {pair: list(bits) for pair, bits in zip(pairs, flags)}
        for j in range(n_apples):
            present = not any(
                flag_map[(i, j)][0] or flag_map[(i, j)][1]
                for i in range(n_robots)
            )
            if not present:
                continue
            takers = [i for i in range(n_robots) if nxt[i] == spec.apples[j]]
            if takers:
                flag_map[(min(takers), j)][0] = True
        if spec.basket is not None:
            for i in range(n_robots):
                if nxt[i] != spec.basket:
                    continue
                for j in range(n_apples):
                    if flag_map[(i, j)][0]:
                        flag_map[(i, j)][0] = False
                        flag_map[(i, j)][1] = True
        new_flags = tuple(tuple(flag_map[pair]) for pair in pairs)
        return (tuple(nxt), new_flags, crash)

    vocabulary = (
        [f"a_{i}_{j}" for i in range(n_robots) for j in range(n_apples)]
        + [f"b_{i}" for i in range(n_robots)]
        + ["c"]
    )
    agents = tuple(f"robot{i}" for i in range(n_robots))
    joint_moves = list(product(_GRID_ACTIONS, repeat=n_robots))

    transition_rows = []
    for config in configs:
        row_t = []
        for moves in joint_moves:
            row_t.append(index_of[step(config, moves)])
        transition_rows.append(tuple(row_t))
    # a step's cost depends only on the moves, so every configuration
    # shares one row of per-joint-move vectors
    cost_row = tuple(
        tuple(Fraction(cost_of.get(move, 0)) for move in moves)
        for moves in joint_moves
    )

    start = (tuple(spec.robots), tuple(((False, False),) * len(pairs)), False)
    arena = Arena(
        states=tuple(name_of(config) for config in configs),
        vocabulary=tuple(vocabulary),
        agents=agents,
        actions=tuple(_GRID_ACTIONS for _ in agents),
        labels=tuple(labels_of(config) for config in configs),
        transition=tuple(transition_rows),
        cost=(cost_row,) * len(configs),
        initial=index_of[start],
    )
    return make_game(arena, ["G !c"] * n_robots)
