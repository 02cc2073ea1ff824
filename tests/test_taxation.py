"""Tests for static and dynamic taxes and exact taxed costs."""

from __future__ import annotations

from fractions import Fraction

import pytest

import taxgames as tg

from helpers import constant_profile, junction_game, junction_tax


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

    def test_is_zero(self):
        assert tg.zero_tax(3).is_zero()
        assert not tg.static_tax(1, {(0, 0): (1,)}).is_zero()


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


class TestTaxedCost:
    def test_untaxed_cycle_mean(self):
        game = junction_game()
        run = tg.lasso_canonical(
            tg.generate_run(game.arena, constant_profile(game.arena, [0, 1]))
        )
        assert tg.taxed_cost(run, None, 0) == 1
        assert tg.taxed_cost(run, None, 1) == 0

    def test_absorbing_punishment(self):
        game = junction_game()
        run = tg.lasso_canonical(
            tg.generate_run(game.arena, constant_profile(game.arena, [0, 0]))
        )
        tax = junction_tax()
        assert tg.taxed_cost(run, tax, 0) == 3
        assert tg.taxed_cost(run, tax, 1) == 3

    def test_forgiving_branch_untaxed(self):
        game = junction_game()
        run = tg.lasso_canonical(
            tg.generate_run(game.arena, constant_profile(game.arena, [0, 1]))
        )
        tax = junction_tax()
        assert tg.taxed_cost(run, tax, 0) == 1
        assert tg.taxed_cost(run, tax, 1) == 0

    def test_joint_cycle_longer_than_run_cycle(self):
        # run cycle length 1, tax machine alternates: joint cycle length 2
        run = tg.LassoRun(
            prefix=(),
            cycle=(tg.RunStep(state=0, letter=0, costs=(Fraction(0),)),),
        )
        tax = tg.DynamicTax(
            outputs=(
                tg.static_tax(1, {(0, 0): (4,)}),
                tg.zero_tax(1),
            ),
            transitions=((1,), (0,)),
        )
        assert tg.taxed_cost(run, tax, 0) == 2
        head, loop = tg.tax_state_trace(run, tax)
        assert head == ()
        assert loop == (0, 1)

    def test_tax_sequence_vectors(self):
        game = junction_game()
        run = tg.lasso_canonical(
            tg.generate_run(game.arena, constant_profile(game.arena, [0, 0]))
        )
        head, loop = tg.tax_sequence(run, junction_tax())
        assert head == (((0, 0)),) or head == ((Fraction(0), Fraction(0)),)
        assert all(v == (Fraction(3), Fraction(3)) for v in loop)

    def test_truncated_mean_converges(self):
        game = junction_game()
        run = tg.lasso_canonical(
            tg.generate_run(game.arena, constant_profile(game.arena, [0, 1]))
        )
        exact = tg.taxed_cost(run, None, 0)
        t = 100 * len(run.cycle)
        approx = tg.truncated_mean(run, None, 0, t)
        assert abs(approx - exact) <= Fraction(2, 100)

    def test_agent_arity_checked(self):
        run = tg.LassoRun(
            prefix=(),
            cycle=(tg.RunStep(state=0, letter=0, costs=(Fraction(0),)),),
        )
        with pytest.raises(tg.AlphabetMismatchError):
            tg.taxed_cost(run, junction_tax(), 0)
