"""Tests for preferences, mean cycles, best responses, and equilibria."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

import taxgames as tg

from helpers import (
    constant_machine,
    constant_profile,
    junction_game,
    junction_tax,
    oracle_eval,
    oracle_response_values,
    random_game,
    random_static_tax,
    simple_cycle_min_mean,
)


class TestLexValue:
    def test_goal_beats_cost(self):
        win = tg.LexValue(goal_met=True, cost=Fraction(100))
        lose = tg.LexValue(goal_met=False, cost=Fraction(0))
        assert tg.prefers(win, lose) == 1
        assert tg.prefers(lose, win) == -1

    def test_lower_cost_preferred_within_tier(self):
        cheap = tg.LexValue(goal_met=True, cost=Fraction(1))
        dear = tg.LexValue(goal_met=True, cost=Fraction(2))
        assert tg.prefers(cheap, dear) == 1

    def test_equal(self):
        v = tg.LexValue(goal_met=False, cost=Fraction(3))
        assert tg.prefers(v, v) == 0


class TestMinMeanCycle:
    def test_two_cycle(self):
        graph = {0: [(1, Fraction(3))], 1: [(0, Fraction(1))]}
        assert tg.min_mean_cycle(graph) == 2

    def test_self_loop_beats_long_cycle(self):
        graph = {
            0: [(0, Fraction(1)), (1, Fraction(0))],
            1: [(0, Fraction(0))],
        }
        assert tg.min_mean_cycle(graph) == 0

    def test_acyclic_returns_none(self):
        graph = {0: [(1, Fraction(1))], 1: []}
        assert tg.min_mean_cycle(graph) is None

    def test_matches_enumeration_oracle(self):
        rng = Random(11)
        for _ in range(60):
            n = rng.randint(1, 6)
            graph = {}
            for v in range(n):
                edges = []
                for w in range(n):
                    if rng.random() < 0.4:
                        weight = Fraction(
                            rng.randint(-6, 6), rng.randint(1, 4)
                        )
                        edges.append((w, weight))
                graph[v] = edges
            assert tg.min_mean_cycle(graph) == simple_cycle_min_mean(graph)


class TestEvaluate:
    def test_junction_values(self):
        game = junction_game()
        out = tg.evaluate(game, constant_profile(game.arena, [0, 1]), None)
        assert out.winners == frozenset({0, 1})
        assert out.costs == (Fraction(1), Fraction(0))
        assert out.value(0) == tg.LexValue(goal_met=True, cost=Fraction(1))

    def test_losing_profile(self):
        game = junction_game()
        out = tg.evaluate(game, constant_profile(game.arena, [1, 1]), None)
        assert out.winners == frozenset()


class TestBestResponse:
    def test_untaxed_cut_through_is_free(self):
        game = junction_game()
        profile = constant_profile(game.arena, [0, 0])
        value = tg.best_response(game, profile, 0, None)
        assert value == tg.LexValue(goal_met=True, cost=Fraction(0))

    def test_taxed_yield_is_free(self):
        # against constant c the tax forgives yielding, so driver 1
        # swerves at no cost instead of triggering the punish state
        game = junction_game()
        profile = constant_profile(game.arena, [0, 0])
        value = tg.best_response(game, profile, 0, junction_tax())
        assert value == tg.LexValue(goal_met=True, cost=Fraction(0))

    def test_blocked_lane_costs_the_detour(self):
        # against constant d the only winning lane costs 2 every other step
        game = junction_game()
        profile = constant_profile(game.arena, [0, 1])
        value = tg.best_response(game, profile, 0, junction_tax())
        assert value == tg.LexValue(goal_met=True, cost=Fraction(1))

    def test_own_machine_ignored(self):
        game = junction_game()
        base = constant_profile(game.arena, [0, 0])
        swapped = base.replace(0, constant_machine(1, 4))
        assert tg.best_response(game, base, 0, None) == tg.best_response(
            game, swapped, 0, None
        )

    def test_dominates_bounded_oracle_on_random_games(self):
        rng = Random(23)
        for _ in range(15):
            game = random_game(rng, n_states=2)
            profile = constant_profile(
                game.arena, [rng.randint(0, 1), rng.randint(0, 1)]
            )
            agent = rng.randint(0, 1)
            best = tg.best_response(game, profile, agent, None)
            for value in oracle_response_values(game, profile, agent, 2):
                assert tg.prefers(value, best) <= 0


class TestIsNash:
    def test_untaxed_junction(self):
        game = junction_game()
        arena = game.arena
        assert tg.is_nash(game, constant_profile(arena, [0, 0]), None)
        assert tg.is_nash(game, constant_profile(arena, [0, 1]), None)
        assert tg.is_nash(game, constant_profile(arena, [1, 0]), None)
        assert not tg.is_nash(game, constant_profile(arena, [1, 1]), None)

    def test_taxed_junction(self):
        game = junction_game()
        arena = game.arena
        tax = junction_tax()
        assert not tg.is_nash(game, constant_profile(arena, [0, 0]), tax)
        assert tg.is_nash(game, constant_profile(arena, [0, 1]), tax)
        assert tg.is_nash(game, constant_profile(arena, [1, 0]), tax)
        assert not tg.is_nash(game, constant_profile(arena, [1, 1]), tax)


class TestFindNe:
    def test_bound_one_equilibria(self):
        game = junction_game()
        found = tg.find_ne(game, None, 1, None)
        runs = {
            tuple(
                s.state
                for s in tg.lasso_canonical(
                    tg.generate_run(game.arena, p)
                ).cycle
            )
            for p in found
        }
        assert len(found) == 3
        assert runs == {(0, 2), (0, 1)}

    def test_objective_filters_runs(self):
        game = junction_game()
        shared = tg.parse_ltl("G F q", game.arena.vocabulary)
        found = tg.find_ne(game, None, 1, shared)
        assert len(found) == 2  # only the two shared-lane equilibria

    def test_tax_changes_the_set(self):
        game = junction_game()
        found = tg.find_ne(game, junction_tax(), 1, None)
        assert len(found) == 2

    def test_cap_enforced(self):
        game = junction_game()
        with pytest.raises(tg.ResourceLimitError):
            tg.find_ne(game, None, 2, None, cap=100)

    def test_sweep_matches_profilewise_check(self):
        # unit costs leave ties, so most games have several equilibria
        rng = Random(41)
        for _ in range(10):
            game = random_game(rng, n_states=3, n_actions=(3, 3), max_cost=1)
            arena = game.arena
            static = random_static_tax(rng, game, max_component=1)
            taxes = [None, tg.lift_static(static, arena.n_letters)]
            objectives = [None] + [
                tg.parse_ltl(text, arena.vocabulary)
                for text in ("G F p", "!G F p")
            ]
            for tax in taxes:
                for objective in objectives:
                    assert tg.find_ne(game, tax, 1, objective) == profilewise_ne(
                        game, tax, objective
                    )
            for objective in objectives[1:]:
                expected = profilewise_ne(tg.zero_cost_game(game), None, objective)
                verdict = tg.e_nash_implement(game, objective, 1)
                assert verdict.witness_profile == (
                    expected[0] if expected else None
                )


def profilewise_ne(game, tax, objective) -> list[tg.Profile]:
    """Bound-1 equilibria satisfying the objective, one profile at a time."""
    return [
        p
        for p in tg.enumerate_profiles(game.arena, 1)
        if tg.is_nash(game, p, tax)
        and (
            objective is None
            or oracle_eval(
                objective,
                tg.label_trace(game.arena, tg.evaluate(game, p, tax).run),
            )
        )
    ]
