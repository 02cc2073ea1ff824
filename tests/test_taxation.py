"""Tests for static and dynamic taxes and exact taxed costs."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import lcm
from pathlib import Path
from random import Random

import pytest

import taxgames as tg
from taxgames.arena import _cost_ceilings
from taxgames.cli import _report_data
from taxgames.implementation import _levelled_responses, _levelling_machine

from helpers import (
    constant_profile,
    junction_game,
    junction_tax,
    random_game,
    rational_game,
    rational_tax,
    reference_levelling_entries,
    reference_running_means,
    reference_taxed_costs,
)

FIXTURES = Path(tg.__file__).parent / "fixtures"


class TestStaticTax:
    def test_zero_entries_dropped(self):
        tax = tg.static_tax(2, {(0, 0): (0, 0), (0, 1): (1, 0)})
        assert len(tax.entries) == 1
        assert tax.rate(0, 0) == (0, 0)
        assert tax.rate(0, 1) == (1, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tg.static_tax(1, {(0, 0): ("-1",)})

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            tg.static_tax(2, {(0, 0): (1,)})

    def test_add(self):
        a = tg.static_tax(1, {(0, 0): (1,)})
        b = tg.static_tax(1, {(0, 0): (2,), (1, 1): (3,)})
        total = tg.add_static(a, b)
        assert total.rate(0, 0) == (Fraction(3),)
        assert total.rate(1, 1) == (Fraction(3),)

    def test_add_entries_as_static_tax_leaves_them(self):
        rng = Random(11)
        for _ in range(50):
            a, b = (
                {
                    (rng.randrange(4), rng.randrange(4)): (
                        Fraction(rng.randint(0, 3), rng.randint(1, 3)),
                        rng.randint(0, 2),
                    )
                    for _ in range(rng.randint(0, 6))
                }
                for _ in range(2)
            )
            summed = dict(a)
            for cell, vector in b.items():
                old = summed.get(cell, (0, 0))
                summed[cell] = tuple(x + y for x, y in zip(old, vector))
            total = tg.add_static(tg.static_tax(2, a), tg.static_tax(2, b))
            assert total == tg.static_tax(2, summed)

    def test_is_zero(self):
        assert tg.zero_tax(3).is_zero()
        assert not tg.static_tax(1, {(0, 0): (1,)}).is_zero()

    def test_add_empty_returns_other_operand(self):
        tax = tg.static_tax(2, {(0, 1): (1, 0)})
        assert tg.add_static(tg.zero_tax(2), tax) is tax
        assert tg.add_static(tax, tg.zero_tax(2)) is tax
        with pytest.raises(tg.AlphabetMismatchError):
            tg.add_static(tg.zero_tax(3), tax)


class TestApplyStatic:
    def test_costs_shift(self):
        game = junction_game()
        tax = tg.static_tax(2, {(0, 1): ("1/2", 2)})
        taxed = tg.apply_static(game, tax)
        assert taxed.arena.cost[0][1] == (Fraction(5, 2), Fraction(2))
        assert taxed.arena.cost[0][0] == game.arena.cost[0][0]
        assert taxed.arena.transition == game.arena.transition

    def test_agent_count_checked(self):
        game = junction_game()
        with pytest.raises(tg.AlphabetMismatchError):
            tg.apply_static(game, tg.static_tax(3, {}))

    def test_out_of_range_cell_checked(self):
        game = junction_game()
        with pytest.raises(tg.AlphabetMismatchError):
            tg.apply_static(game, tg.static_tax(2, {(9, 0): (1, 1)}))


class TestCheckTax:
    def test_fitting_tax_passes(self):
        game = junction_game()
        tg.check_tax(game.arena, junction_tax())

    @pytest.mark.parametrize(
        "tax, message",
        [
            (tg.lift_static(tg.zero_tax(3), 4), "tax covers 3 agents, game has 2"),
            (
                tg.lift_static(tg.zero_tax(2), 2),
                "tax machine state 0 reads 2 letters, game has 4",
            ),
            (
                tg.lift_static(tg.static_tax(2, {(99, 0): (1, 1)}), 4),
                r"tax machine state 0 rates unknown cell \(99, 0\)",
            ),
            (
                tg.lift_static(tg.static_tax(2, {(-1, 0): (1, 1)}), 4),
                r"rates unknown cell \(-1, 0\)",
            ),
        ],
    )
    def test_mismatch_raises(self, tax, message):
        game = junction_game()
        with pytest.raises(tg.AlphabetMismatchError, match=message):
            tg.check_tax(game.arena, tax)


class TestDynamicTax:
    def test_lift_static_single_state(self):
        tax = tg.lift_static(tg.static_tax(2, {(0, 0): (1, 1)}), 4)
        assert tax.n_states == 1
        assert tax.next_state(0, 3) == 0

    def test_compose_adds_everywhere(self):
        base = junction_tax()
        extra = tg.static_tax(2, {(1, 0): (1, 0)})
        combined = tg.compose_tax(base, extra)
        assert combined.transitions == base.transitions
        assert combined.outputs[0].rate(1, 0) == (Fraction(1), Fraction(0))
        assert combined.outputs[2].rate(1, 0) == (Fraction(4), Fraction(3))

    def test_compose_sums_each_output_object_once(self):
        empty = tg.zero_tax(2)
        shared = tg.static_tax(2, {(0, 0): (1, 2)})
        extra = tg.static_tax(2, {(0, 0): (1, 0), (1, 1): (0, 3)})
        base = tg.DynamicTax(
            outputs=(empty, shared, empty, shared),
            transitions=tuple((q,) * 4 for q in range(4)),
        )
        combined = tg.compose_tax(base, extra)
        first, second, third, fourth = combined.outputs
        assert first is third is extra
        assert second is fourth
        assert second == tg.static_tax(2, {(0, 0): (2, 2), (1, 1): (0, 3)})

    def test_compose_rejects_machine_without_states(self):
        # a machine with no output has no agent count to compare
        empty = tg.DynamicTax(outputs=(), transitions=())
        with pytest.raises(tg.AlphabetMismatchError, match="tax machine has no states"):
            tg.compose_tax(empty, tg.zero_tax(2))

    def test_levelling_rates(self):
        game = junction_game()
        tax = tg.uniform_levelling_tax(game, 2)
        # every full cell costs exactly the level afterwards
        taxed = tg.apply_static(game, tax)
        for s in range(taxed.arena.n_states):
            for letter in taxed.arena.letters():
                assert taxed.arena.cost[s][letter] == (2, 2)

    def test_levelling_below_max_rejected(self):
        with pytest.raises(ValueError):
            tg.uniform_levelling_tax(junction_game(), 1)


def copied_costs(game: tg.Game) -> tg.Game:
    """The game with every cost vector its own object."""
    cost = tuple(
        tuple(tuple(list(vector)) for vector in row) for row in game.arena.cost
    )
    return replace(game, arena=replace(game.arena, cost=cost))


def levelling_games() -> list:
    orchard = tg.grid_world_game(tg.load_grid(FIXTURES / "orchard.grid"))
    games = [
        pytest.param(junction_game(), id="junction"),
        pytest.param(orchard, id="orchard"),
        pytest.param(copied_costs(junction_game()), id="junction-copied"),
        pytest.param(copied_costs(random_game(Random(7))), id="random-copied"),
    ]
    for seed in range(40):
        rng = Random(seed)
        game = rational_game(rng) if seed % 4 == 0 else random_game(
            rng, n_states=rng.randint(1, 4), max_cost=rng.choice((0, 1, 10))
        )
        games.append(pytest.param(game, id=f"random-{seed}"))
    return games


class TestLevellingOracle:
    """The levelling tax, worked out once per distinct cost vector, against
    the cell-by-cell construction."""

    @pytest.mark.parametrize("game", levelling_games())
    def test_matches_cell_by_cell(self, game):
        arena = game.arena
        cells = [vector for row in arena.cost for vector in row]
        ceilings = [
            max([Fraction(0)] + [vector[agent] for vector in cells])
            for agent in range(arena.n_agents)
        ]
        expected = reference_levelling_entries(arena)
        assert tg.uniform_levelling_tax(game, max(ceilings)).entries == expected
        assert _levelling_machine(game).outputs[0].entries == expected
        assert [tg.max_cost(game, i) for i in range(arena.n_agents)] == ceilings

    @pytest.mark.parametrize("game", levelling_games()[:12])
    def test_level_off_the_cost_scale_keeps_reprs(self, game):
        # the surcharges are worked out on the integer cost table, over
        # the lcm of its scale and the level's denominator; each entry is
        # the Fraction level - cost, down to its repr
        arena = game.arena
        for extra in (Fraction(0), Fraction(1, 11), Fraction(5, 6)):
            level = max(_cost_ceilings(arena)) + extra
            expected = reference_levelling_entries(arena, level)
            entries = tg.uniform_levelling_tax(game, level).entries
            assert entries == expected
            assert repr(entries) == repr(expected)

    def test_copied_vectors_are_distinct_objects(self):
        arena = copied_costs(junction_game()).arena
        vectors = [vector for row in arena.cost for vector in row]
        assert len({id(v) for v in vectors}) == len(vectors)
        assert len(set(vectors)) < len(vectors)


def levelled_cases() -> list:
    """Junction with its a-nash eliminator, and 20 rational games under
    rational multi-state taxes standing in for eliminators."""
    game = junction_game()
    objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
    violating = tg.find_ne(tg.zero_cost_game(game), None, 1, tg.Not(objective))
    eliminator = tg.check_eliminable(game, violating, 1)
    cases = [pytest.param(game, eliminator, id="junction")]
    rng = Random(23)
    for k in range(20):
        game = rational_game(rng)
        cases.append(
            pytest.param(game, rational_tax(rng, game.arena), id=f"rational-{k}")
        )
    return cases


class TestLevelledGame:
    """The drivers check witnesses on the levelled game taxed by the
    eliminator alone: every cell and tax state must charge what the game
    charges under the eliminator composed with the levelling tax."""

    @pytest.mark.parametrize("game, eliminator", levelled_cases())
    def test_composed_tax_charges_level_plus_eliminator(self, game, eliminator):
        arena = game.arena
        level = max(tg.max_cost(game, i) for i in range(arena.n_agents))
        composed = tg.compose_tax(eliminator, tg.uniform_levelling_tax(game, level))
        levelled = _levelled_responses(game).game.arena
        assert levelled.transition == arena.transition
        for out, extra in zip(composed.outputs, eliminator.outputs):
            for s in range(arena.n_states):
                for letter in arena.letters():
                    taxed = map(sum, zip(arena.cost[s][letter], out.rate(s, letter)))
                    rate = extra.rate(s, letter)
                    assert levelled.cost[s][letter] == (level,) * arena.n_agents
                    assert tuple(taxed) == tuple(level + r for r in rate)


def one_cell_game() -> tg.Game:
    """One state, one letter, one agent, costing nothing."""
    arena = tg.make_arena(
        states=["s0"],
        vocabulary=["p"],
        agents=["a1"],
        actions={"a1": ["go"]},
        labels={},
        transitions={("s0", ("go",)): "s0"},
        costs={("s0", ("go",)): [0]},
        initial="s0",
    )
    return tg.make_game(arena, ["true"])


class TestTaxedCost:
    def test_untaxed_cycle_mean(self):
        game = junction_game()
        run = tg.lasso_canonical(
            tg.generate_run(game.arena, constant_profile(game.arena, [0, 1]))
        )
        assert tg.taxed_cost(game, run, None, 0) == 1
        assert tg.taxed_cost(game, run, None, 1) == 0

    def test_absorbing_punishment(self):
        game = junction_game()
        run = tg.lasso_canonical(
            tg.generate_run(game.arena, constant_profile(game.arena, [0, 0]))
        )
        tax = junction_tax()
        assert tg.taxed_cost(game, run, tax, 0) == 3
        assert tg.taxed_cost(game, run, tax, 1) == 3

    def test_forgiving_branch_untaxed(self):
        game = junction_game()
        run = tg.lasso_canonical(
            tg.generate_run(game.arena, constant_profile(game.arena, [0, 1]))
        )
        tax = junction_tax()
        assert tg.taxed_cost(game, run, tax, 0) == 1
        assert tg.taxed_cost(game, run, tax, 1) == 0

    def test_joint_cycle_longer_than_run_cycle(self):
        # run cycle length 1, tax machine alternates: joint cycle length 2
        game = one_cell_game()
        run = tg.generate_run(game.arena, constant_profile(game.arena, [0]))
        assert run == tg.LassoRun(prefix=(), cycle=(tg.RunStep(0, 0),))
        tax = tg.DynamicTax(
            outputs=(
                tg.static_tax(1, {(0, 0): (4,)}),
                tg.zero_tax(1),
            ),
            transitions=((1,), (0,)),
        )
        assert tg.taxed_cost(game, run, tax, 0) == 2
        report = _report_data(game, constant_profile(game.arena, [0]), tax)
        assert report["run"]["prefix"] == []
        loop = report["run"]["cycle"]
        assert [step["tax_state"] for step in loop] == [0, 1]
        assert [step["rates"] for step in loop] == [["4"], ["0"]]
        assert all(step["state"] == "s0" for step in loop)

    def test_tax_sequence_vectors(self):
        game = junction_game()
        report = _report_data(
            game, constant_profile(game.arena, [0, 0]), junction_tax()
        )
        head, loop = report["run"]["prefix"], report["run"]["cycle"]
        assert [step["rates"] for step in head] == [["0", "0"]]
        assert loop and all(step["rates"] == ["3", "3"] for step in loop)

    def test_truncated_mean_converges(self):
        game = junction_game()
        run = tg.lasso_canonical(
            tg.generate_run(game.arena, constant_profile(game.arena, [0, 1]))
        )
        exact = tg.taxed_cost(game, run, None, 0)
        t = 100 * len(run.cycle)
        approx = reference_running_means(game.arena, run, None, t + 1)[t][0]
        assert abs(approx - exact) <= Fraction(2, 100)

    def test_agent_arity_checked(self):
        game = one_cell_game()
        run = tg.generate_run(game.arena, constant_profile(game.arena, [0]))
        with pytest.raises(tg.AlphabetMismatchError):
            tg.taxed_cost(game, run, junction_tax(), 0)


class TestOneCostPath:
    """evaluate and taxed_cost read the integer step table of one (game,
    tax); the Fraction oracles walk arena.cost and StaticTax.rate
    themselves."""

    @staticmethod
    def instances():
        game = junction_game()
        yield game, None
        yield game, junction_tax()
        rng = Random(1717)
        for _ in range(12):
            game = rational_game(rng)
            yield game, rational_tax(rng, game.arena)

    def test_every_cost_matches_the_fraction_oracles(self):
        rng = Random(17)
        checked = 0
        for game, tax in self.instances():
            arena = game.arena
            machines = list(tg.enumerate_machines(2, arena.n_letters, 2))
            profiles = list(tg.enumerate_profiles(arena, 1)) + [
                tg.Profile((rng.choice(machines), rng.choice(machines)))
                for _ in range(6)
            ]
            n_tax_states = 1 if tax is None else tax.n_states
            for profile in profiles:
                outcome = tg.evaluate(game, profile, tax)
                expected = reference_taxed_costs(arena, outcome.run, tax)
                assert outcome.costs == expected
                for run in (outcome.run, tg.generate_run(arena, profile)):
                    # the joint cycle of run and tax is j run cycles long,
                    # for some j <= n_tax_states, and starts before step
                    # start; so the lap steps after it hold whole joint
                    # cycles, and their mean is the limit of the running
                    # means
                    start = len(run) + len(run.cycle) * n_tax_states
                    lap = len(run.cycle) * lcm(*range(1, n_tax_states + 1))
                    means = reference_running_means(arena, run, tax, start + lap)
                    for agent in range(arena.n_agents):
                        assert tg.taxed_cost(game, run, tax, agent) == expected[agent]
                        total = means[-1][agent] * (start + lap)
                        assert total - means[start - 1][agent] * start == (
                            expected[agent] * lap
                        )
                checked += 1
        assert checked == 14 * 10

    @pytest.mark.parametrize("name", ["ac", "ad", "bc", "bd"])
    def test_tax_reading_too_few_letters_is_rejected(self, name):
        game = tg.load_game(FIXTURES / "junction.game")
        profile = tg.load_profile(FIXTURES / f"profile_{name}.profile")
        run = tg.generate_run(game.arena, profile)
        # reads 1 letter where the game has 4
        tax = tg.DynamicTax(
            outputs=(tg.zero_tax(2),) * 2, transitions=((1,), (0,))
        )
        with pytest.raises(tg.AlphabetMismatchError):
            tg.taxed_cost(game, run, tax, 0)
        with pytest.raises(tg.AlphabetMismatchError):
            tg.evaluate(game, profile, tax)
