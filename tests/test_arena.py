"""Tests for arenas, their construction checks, and the grid generator."""

from __future__ import annotations

import hashlib
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import taxgames as tg
from taxgames.arena import _cost_ceilings, _uniform_cost_game

from helpers import constant_profile, junction_game, rational_game

FIXTURES = Path(tg.__file__).parent / "fixtures"


def vector_objects(arena: tg.Arena) -> int:
    return len({id(vector) for row in arena.cost for vector in row})


class TestFractions:
    def test_accepts_int_str_fraction(self):
        assert tg.to_fraction(3) == 3
        assert tg.to_fraction("2/3") == Fraction(2, 3)
        assert tg.to_fraction(Fraction(5, 7)) == Fraction(5, 7)

    def test_rejects_float_and_bool(self):
        with pytest.raises(TypeError):
            tg.to_fraction(0.5)
        with pytest.raises(TypeError):
            tg.to_fraction(True)

    def test_accepts_decimals_and_rejects_exponent_notation(self):
        assert tg.to_fraction("-2.25") == Fraction(-9, 4)
        assert tg.to_fraction(" 7 ") == 7
        # Fraction would expand the exponent: 15 s and 4 MB for the last
        for text in ("1e5", "2.5E-3", "1e10000000"):
            with pytest.raises(ValueError, match="exponent notation"):
                tg.to_fraction(text)


class TestLetters:
    def test_row_major_encoding(self):
        arena = junction_game().arena
        combos = [arena.letter_profile(x) for x in arena.letters()]
        assert combos == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for letter in arena.letters():
            assert arena.letter_of(arena.letter_profile(letter)) == letter

    def test_letter_names(self):
        arena = junction_game().arena
        assert arena.letter_names(1) == ("a", "d")

    def test_state_index(self):
        arena = junction_game().arena
        assert arena.state_index("s2") == 2
        with pytest.raises(KeyError):
            arena.state_index("nope")


class TestValidation:
    """An arena or game that breaks an invariant cannot be built, directly,
    through make_arena or through replace; the one ValueError names every
    violation."""

    def test_junction_is_clean(self):
        game = junction_game()
        assert replace(game, arena=replace(game.arena)).arena.n_states == 4
        tg.load_game(FIXTURES / "junction.game")

    def test_no_constructor_argument_skips_the_check(self):
        assert [f.name for f in fields(tg.Arena)] == [
            "states", "vocabulary", "agents", "actions", "labels",
            "transition", "cost", "initial",
        ]

    def test_negative_cost_reported(self):
        with pytest.raises(ValueError) as err:
            tg.make_arena(
                states=["s0"],
                vocabulary=["p"],
                agents=["a1"],
                actions={"a1": ["go"]},
                labels={},
                transitions={("s0", ("go",)): "s0"},
                costs={("s0", ("go",)): ["-1"]},
                initial="s0",
            )
        assert str(err.value) == "invalid arena: negative-cost: (s0, go) agent a1 = -1"

    def test_direct_construction_names_only_bad_cells(self):
        arena = junction_game().arena
        zero = (Fraction(0),) * 2
        # s2 and s3 share one cost row, with a negative and a short vector
        row = (zero, (Fraction(-1), Fraction(0)), (Fraction(0),), zero)
        with pytest.raises(ValueError) as err:
            replace(
                arena,
                transition=(arena.transition[0], (0, 4, 0, 0)) + arena.transition[2:],
                cost=arena.cost[:2] + (row, row),
            )
        assert str(err.value) == "invalid arena: " + "; ".join([
            "bad-transition-target: (s1, a/d) -> 4",
            "negative-cost: (s2, a/d) agent driver1 = -1",
            "bad-cost-arity: (s2, b/c) has 1 entries",
            "negative-cost: (s3, a/d) agent driver1 = -1",
            "bad-cost-arity: (s3, b/c) has 1 entries",
        ])

    @pytest.mark.parametrize(
        "field, corrupt, named",
        [
            ("initial", lambda a: 7, "initial-state: index 7 out of range"),
            (
                "transition",
                lambda a: ((99,) + a.transition[0][1:],) + a.transition[1:],
                "bad-transition-target: (s0, a/c) -> 99",
            ),
            (
                "cost",
                lambda a: ((a.cost[0][0][:1],) + a.cost[0][1:],) + a.cost[1:],
                "bad-cost-arity: (s0, a/c) has 1 entries",
            ),
            (
                "labels",
                lambda a: (frozenset({"r"}),) + a.labels[1:],
                "unknown-label: state s0 uses r",
            ),
            (
                "transition",
                lambda a: a.transition[:3],
                "bad-shape: transition table is not 4 rows of 4 cells",
            ),
            (
                "cost",
                lambda a: (a.cost[0][:3],) + a.cost[1:],
                "bad-shape: cost table is not 4 rows of 4 cells",
            ),
        ],
        ids=["initial", "target", "arity", "label", "rows", "cells"],
    )
    def test_corruption_raises_before_any_algorithm(self, field, corrupt, named):
        # unchecked, each of these would make find_ne raise IndexError or
        # answer on a game outside the model
        game = junction_game()
        with pytest.raises(ValueError) as err:
            replace(game.arena, **{field: corrupt(game.arena)})
        assert str(err.value) == f"invalid arena: {named}"

    def test_unknown_label_rejected_at_build(self):
        with pytest.raises(ValueError, match="unknown-label: state s0 uses zzz"):
            tg.make_arena(
                states=["s0"],
                vocabulary=["p"],
                agents=["a1"],
                actions={"a1": ["go"]},
                labels={"s0": ["zzz"]},
                transitions={("s0", ("go",)): "s0"},
                costs={("s0", ("go",)): [0]},
                initial="s0",
            )

    def test_goal_arity_checked(self):
        arena = junction_game().arena
        with pytest.raises(ValueError, match="goal-count: 1 goals"):
            tg.make_game(arena, ["G F p"])

    def test_goal_outside_the_vocabulary_rejected(self):
        game = junction_game()
        with pytest.raises(ValueError) as err:
            replace(game, goals=(tg.Var("r"), tg.Var("s")))
        assert str(err.value) == (
            "invalid game: goal-variable: goal of agent driver1 uses r; "
            "goal-variable: goal of agent driver2 uses s"
        )


def holed_arena(holes: str) -> tg.Arena:
    """Two states; agent A plays a, agent B plays b or c.  The cell
    (s, a/c) lacks its transition, its cost or both."""
    cells = [("s", "b"), ("s", "c"), ("t", "b"), ("t", "c")]
    transitions = {(s, ("a", x)): "t" for s, x in cells}
    costs = {(s, ("a", x)): (1, 1) for s, x in cells}
    if holes in ("transition", "both"):
        del transitions[("s", ("a", "c"))]
    if holes in ("cost", "both"):
        del costs[("s", ("a", "c"))]
    return tg.make_arena(
        states=["s", "t"],
        vocabulary=["p"],
        agents=["A", "B"],
        actions={"A": ["a"], "B": ["b", "c"]},
        labels={"t": ["p"]},
        transitions=transitions,
        costs=costs,
        initial="s",
    )


class TestTotality:
    """An arena with a missing transition or cost cell cannot be built,
    however it is built; the one error names every missing cell."""

    @pytest.mark.parametrize(
        "holes, named",
        [
            ("transition", "missing-transition: (s, a/c)"),
            ("cost", "missing-cost: (s, a/c)"),
            ("both", "missing-transition: (s, a/c); missing-cost: (s, a/c)"),
        ],
        ids=["transition", "cost", "both"],
    )
    def test_make_arena_names_every_missing_cell(self, holes, named):
        with pytest.raises(ValueError) as err:
            holed_arena(holes)
        assert str(err.value) == f"arena is not total: {named}"

    def test_uncovered_state_names_each_cell(self):
        with pytest.raises(ValueError) as err:
            tg.make_arena(
                states=["s0", "s1"],
                vocabulary=["p"],
                agents=["a1"],
                actions={"a1": ["go", "wait"]},
                labels={},
                transitions={("s0", ("go",)): "s0", ("s0", ("wait",)): "s1"},
                costs={},
                initial="s0",
                default_cost=[0],
            )
        assert str(err.value) == (
            "arena is not total: missing-transition: (s1, go); "
            "missing-transition: (s1, wait)"
        )

    def test_direct_construction_names_each_state_of_a_shared_row(self):
        arena = junction_game().arena
        row = arena.transition[0][:-1] + (None,)
        with pytest.raises(ValueError) as err:
            tg.Arena(
                states=arena.states,
                vocabulary=arena.vocabulary,
                agents=arena.agents,
                actions=arena.actions,
                labels=arena.labels,
                transition=(row,) * arena.n_states,
                cost=arena.cost,
                initial=arena.initial,
            )
        assert str(err.value) == "arena is not total: " + "; ".join(
            f"missing-transition: ({name}, b/d)" for name in arena.states
        )

    def test_replaced_cost_table_is_checked(self):
        arena = junction_game().arena
        cost = (arena.cost[0],) + ((None,) + arena.cost[1][1:],) + arena.cost[2:]
        with pytest.raises(ValueError) as err:
            replace(arena, cost=cost)
        assert str(err.value) == "arena is not total: missing-cost: (s1, a/c)"


class _CountedRow(tuple):
    """A transition row that counts the scans that read its cells."""

    scans = 0

    def __iter__(self):
        _CountedRow.scans += 1
        return super().__iter__()


def test_cost_only_copies_skip_the_transition_scan(monkeypatch):
    # a cost-only copy (zero_cost_game, the levelled game, apply_static)
    # keeps its source's checked transition table and scans only its cost
    # table; any other build, replace included, scans the whole arena
    game = junction_game()
    arena = game.arena
    counted = tuple(_CountedRow(row) for row in arena.transition)
    monkeypatch.setattr(_CountedRow, "scans", 0)
    source = replace(arena, transition=counted)
    assert _CountedRow.scans == len(counted)
    copies = [
        tg.zero_cost_game(replace(game, arena=source)).arena,
        _uniform_cost_game(replace(game, arena=source), Fraction(2)).arena,
        tg.apply_static(replace(game, arena=source), tg.zero_tax(2)).arena,
    ]
    assert _CountedRow.scans == len(counted)
    assert all(copy.transition is counted for copy in copies)
    replace(source, cost=arena.cost)
    assert _CountedRow.scans == 2 * len(counted)


def test_cost_only_copy_checks_its_cost_table():
    arena = junction_game().arena
    cost = ((arena.cost[0][0][:1],) + arena.cost[0][1:],) + arena.cost[1:]
    with pytest.raises(ValueError) as err:
        arena._with_cost(cost)
    assert str(err.value) == "invalid arena: bad-cost-arity: (s0, a/c) has 1 entries"


class TestCostHelpers:
    def test_max_cost(self):
        game = junction_game()
        assert tg.max_cost(game, 0) == 2
        assert tg.max_cost(game, 1) == 2

    def test_cost_ceilings_are_the_fraction_max(self):
        # read off the integer cost table: rational games mix denominators
        # 1, 2, 3 and 7, and an all-zero game's ceilings are 0
        rng = Random(19)
        games = [rational_game(rng) for _ in range(10)]
        games.append(tg.zero_cost_game(junction_game()))
        for game in games:
            arena = game.arena
            cells = [vector for row in arena.cost for vector in row]
            expected = tuple(
                max(Fraction(0), *(vector[i] for vector in cells))
                for i in range(arena.n_agents)
            )
            ceilings = _cost_ceilings(arena)
            assert ceilings == expected
            assert all(type(c) is Fraction for c in ceilings)
            assert tuple(
                tg.max_cost(game, i) for i in range(arena.n_agents)
            ) == expected

    def test_equal_vectors_are_one_object(self):
        # junction's 16 cells hold 4 distinct vectors, built or parsed
        for game in (junction_game(), tg.load_game(FIXTURES / "junction.game")):
            cells = [vector for row in game.arena.cost for vector in row]
            assert len(cells) == 16
            assert vector_objects(game.arena) == len(set(cells)) == 4

    def test_zero_cost_game(self):
        game = tg.zero_cost_game(junction_game())
        assert tg.max_cost(game, 0) == 0
        profile = constant_profile(game.arena, [0, 1])
        assert tg.evaluate(game, profile, None).costs == (0, 0)

    def test_zero_cost_game_keeps_goals(self):
        game = tg.zero_cost_game(junction_game())
        assert game.goal_texts == ("G F p", "G F p")


# ======================== Grid generator ========================


def corridor() -> tg.GridSpec:
    return tg.GridSpec(width=2, height=1, robots=((0, 0), (1, 0)))


def orchard() -> tg.GridSpec:
    return tg.GridSpec(
        width=2,
        height=2,
        robots=((0, 0), (1, 1)),
        apples=((0, 1),),
        basket=(1, 0),
        action_costs=(
            ("stay", Fraction(0)),
            ("up", Fraction(1)),
            ("down", Fraction(1)),
            ("left", Fraction(1)),
            ("right", Fraction(1)),
        ),
    )


class TestGridSpecDiagnostics:
    """A grid spec that breaks an invariant cannot be built, directly or
    through replace; the one ValueError names every violation."""

    @staticmethod
    def rejected(**spec) -> str:
        with pytest.raises(ValueError) as err:
            tg.GridSpec(**spec)
        return str(err.value)

    def test_clean_specs(self):
        assert replace(corridor()) == corridor()
        assert replace(orchard()) == orchard()

    def test_out_of_bounds_robot(self):
        assert self.rejected(width=1, height=1, robots=((5, 0),)) == (
            "invalid grid spec: robot-out-of-bounds: robot 0 at (5, 0)"
        )

    def test_overlapping_robots(self):
        assert self.rejected(width=2, height=1, robots=((0, 0), (0, 0))) == (
            "invalid grid spec: robots-overlap: start cells must be distinct"
        )
        with pytest.raises(ValueError, match="robots-overlap"):
            replace(corridor(), robots=((0, 0), (0, 0)))

    def test_apples_need_basket(self):
        assert self.rejected(
            width=2, height=2, robots=((0, 0),), apples=((1, 1),)
        ) == "invalid grid spec: basket-missing: apples need a basket cell"

    def test_unknown_action_cost(self):
        assert self.rejected(
            width=2, height=1, robots=((0, 0),),
            action_costs=(("fly", Fraction(1)), ("up", Fraction(-1))),
        ) == (
            "invalid grid spec: unknown-action-cost: fly; "
            "negative-action-cost: up = -1"
        )

    def test_bad_dimensions(self):
        assert self.rejected(width=0, height=1, robots=((0, 0),)) == (
            "invalid grid spec: bad-dimensions: 0x1; "
            "robot-out-of-bounds: robot 0 at (0, 0)"
        )


class TestGridGame:
    def test_corridor_state_count(self):
        # positions 2^2 times crash bit: 8 states, no apples
        game = tg.grid_world_game(corridor())
        assert game.arena.n_states == 8
        assert game.arena.n_agents == 2
        assert game.arena.n_letters == 25

    def test_orchard_state_count(self):
        # positions 4^2, one apple with 4 flag combos per robot pair, crash
        game = tg.grid_world_game(orchard())
        assert game.arena.n_states == 16 * 16 * 2

    def test_orchard_document_pinned(self):
        # a grid step's cost depends only on the moves: one vector object
        # per joint move, and the same document as one object per cell
        game = tg.grid_world_game(orchard())
        assert vector_objects(game.arena) <= 25
        digest = hashlib.sha256(tg.game_to_yaml(game).encode()).hexdigest()
        assert digest == (
            "48ec288d414a0b4ec85de31031d5d28dfd7cf3f860fc17ca9d4a11c430cedaa5"
        )

    def test_goals_forbid_crashes(self):
        game = tg.grid_world_game(corridor())
        assert game.goal_texts == ("G !c", "G !c")

    def test_swap_is_a_crash(self):
        game = tg.grid_world_game(corridor())
        arena = game.arena
        right = arena.actions[0].index("right")
        left = arena.actions[1].index("left")
        profile = constant_profile(arena, [right, left])
        run = tg.generate_run(arena, profile)
        state_names = [arena.states[s.state] for s in run.prefix + run.cycle]
        assert any("crash" in name for name in state_names)
        outcome = tg.evaluate(game, profile, None)
        assert outcome.winners == frozenset()

    def test_stay_avoids_crash(self):
        game = tg.grid_world_game(corridor())
        arena = game.arena
        stay = arena.actions[0].index("stay")
        profile = constant_profile(arena, [stay, stay])
        outcome = tg.evaluate(game, profile, None)
        assert outcome.winners == frozenset({0, 1})

    def test_walls_block_movement(self):
        game = tg.grid_world_game(corridor())
        arena = game.arena
        left = arena.actions[0].index("left")
        stay = arena.actions[1].index("stay")
        profile = constant_profile(arena, [left, stay])
        run = tg.lasso_canonical(tg.generate_run(arena, profile))
        # pushing into the wall keeps robot 0 in place: self-loop at start
        assert len(run.prefix) == 0 and len(run.cycle) == 1
        assert run.cycle[0].state == arena.initial

    def test_pickup_and_delivery_labels(self):
        game = tg.grid_world_game(orchard())
        arena = game.arena
        up = arena.actions[0].index("up")
        down = arena.actions[0].index("down")
        stay = arena.actions[0].index("stay")
        # robot 0 starts at (0,0); apple at (0,1); basket at (1,0); robot 1
        # sits at (1,1).  up means decreasing y, so the apple cell is below:
        # down to pick up, back up, right to deliver, then stay.
        right = arena.actions[0].index("right")
        machine = tg.StrategyMachine(
            outputs=(down, up, right, stay),
            transitions=tuple(
                (min(qq + 1, 3),) * arena.n_letters for qq in range(4)
            ),
        )
        other = tg.StrategyMachine(
            outputs=(arena.actions[1].index("stay"),),
            transitions=((0,) * arena.n_letters,),
        )
        profile = tg.Profile((machine, other))
        run = tg.generate_run(arena, profile)
        trace = tg.label_trace(arena, run)
        letters = list(trace.prefix) + list(trace.cycle)
        flat = set().union(*letters)
        assert "a_0_0" in flat  # picked the apple up at its cell
        assert "b_0" in flat  # delivered at the basket
        assert "c" not in flat

    def test_pickup_ties_go_to_lowest_index(self):
        spec = tg.GridSpec(
            width=3,
            height=1,
            robots=((0, 0), (2, 0)),
            apples=((1, 0),),
            basket=(0, 0),
        )
        game = tg.grid_world_game(spec)
        arena = game.arena
        right = arena.actions[0].index("right")
        left = arena.actions[1].index("left")
        stay0 = arena.actions[0].index("stay")
        stay1 = arena.actions[1].index("stay")
        m0 = tg.StrategyMachine(
            outputs=(right, stay0),
            transitions=((1,) * arena.n_letters, (1,) * arena.n_letters),
        )
        m1 = tg.StrategyMachine(
            outputs=(left, stay1),
            transitions=((1,) * arena.n_letters, (1,) * arena.n_letters),
        )
        run = tg.generate_run(arena, tg.Profile((m0, m1)))
        trace = tg.label_trace(arena, run)
        flat = set().union(*(list(trace.prefix) + list(trace.cycle)))
        assert "a_0_0" in flat and "a_1_0" not in flat

    def test_action_costs_applied(self):
        game = tg.grid_world_game(orchard())
        arena = game.arena
        stay = arena.actions[0].index("stay")
        up = arena.actions[1].index("up")
        profile = constant_profile(arena, [stay, up])
        outcome = tg.evaluate(game, profile, None)
        assert outcome.costs[0] == 0
        assert outcome.costs[1] == 1
