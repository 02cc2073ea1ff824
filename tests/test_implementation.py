"""Tests for deviation graphs, eliminating taxes, and implementation checks."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

import taxgames as tg

from helpers import constant_machine, constant_profile, junction_game


def alpha(game, first: int, second: int) -> tg.Profile:
    return constant_profile(game.arena, [first, second])


def one_action_game() -> tg.Game:
    arena = tg.make_arena(
        states=["s0"],
        vocabulary=["p"],
        agents=["one", "two"],
        actions={"one": ["go"], "two": ["go"]},
        labels={"s0": []},
        transitions={("s0", ("go", "go")): "s0"},
        costs={("s0", ("go", "go")): [0, 0]},
        initial="s0",
    )
    return tg.make_game(arena, ["true", "true"])


def witness_graph(game) -> tg.DeviationGraph:
    # the full bound-1 graph minus the return edges, leaving one
    # out-edge per agent from the cut-through profile
    full = tg.build_deviation_graph(game, [alpha(game, 0, 0)], 1)
    keep = tuple(e for e in full.edges if e[0] == 0)
    return replace(full, edges=keep)


class TestInitialDeviation:
    def test_requires_run_change(self):
        game = junction_game()
        profile = alpha(game, 0, 0)
        same = constant_machine(0, game.arena.n_letters)
        assert not tg.initial_deviation(game, profile, 0, same)

    def test_winner_must_stay_winning(self):
        game = junction_game()
        profile = alpha(game, 0, 1)
        ruinous = constant_machine(1, game.arena.n_letters)
        assert not tg.initial_deviation(game, profile, 0, ruinous)

    def test_winning_switch_counts(self):
        game = junction_game()
        profile = alpha(game, 0, 0)
        assert tg.initial_deviation(
            game, profile, 0, constant_machine(1, game.arena.n_letters)
        )

    def test_loser_may_move_anywhere(self):
        game = junction_game()
        profile = alpha(game, 1, 1)
        assert tg.initial_deviation(
            game, profile, 0, constant_machine(0, game.arena.n_letters)
        )


class TestBuildDeviationGraph:
    def test_junction_one_seed(self):
        game = junction_game()
        graph = tg.build_deviation_graph(game, [alpha(game, 0, 0)], 1)
        assert graph.n_nodes == 3
        assert graph.nodes[0] == alpha(game, 0, 0)
        assert set(graph.nodes[1:]) == {alpha(game, 1, 0), alpha(game, 0, 1)}
        assert all(w == frozenset({0, 1}) for w in graph.winners)
        by_agent = {a for (_, _, a) in graph.edges}
        assert len(graph.edges) == 4  # both directions for each agent
        assert by_agent == {0, 1}

    def test_seed_with_no_deviations(self):
        game = one_action_game()
        profile = alpha(game, 0, 0)
        graph = tg.build_deviation_graph(game, [profile], 1)
        assert graph.n_nodes == 1
        assert graph.edges == ()


class TestObservedQuotient:
    def test_full_junction_graph_has_agent_cycle(self):
        game = junction_game()
        graph = tg.build_deviation_graph(game, [alpha(game, 0, 0)], 1)
        hit = tg.single_agent_observed_cycle(graph)
        assert hit is not None
        agent, cycle = hit
        assert agent in (0, 1)
        assert len(cycle) == 2
        # classes are numbered by first occurrence of their run
        class_of: dict = {}
        for run in graph.runs:
            class_of.setdefault(run, len(class_of))
        agent_edges = {
            (class_of[graph.runs[u]], class_of[graph.runs[v]])
            for u, v, a in graph.edges
            if a == agent
        }
        for k, cls in enumerate(cycle):
            assert (cls, cycle[(k + 1) % len(cycle)]) in agent_edges

    def test_long_single_agent_ring(self):
        n = 5000
        machine = constant_machine(0, 1)
        graph = tg.DeviationGraph(
            nodes=(tg.Profile((machine,)),) * n,
            runs=tuple(
                tg.LassoRun(prefix=(), cycle=(tg.RunStep(i, 0, ()),))
                for i in range(n)
            ),
            winners=(frozenset(),) * n,
            edges=tuple((i, (i + 1) % n, 0) for i in range(n)),
        )
        agent, cycle = tg.single_agent_observed_cycle(graph)
        assert agent == 0
        assert len(cycle) == n
        assert all(
            cycle[(k + 1) % n] == (cls + 1) % n for k, cls in enumerate(cycle)
        )
        with pytest.raises(ValueError, match="for agent 0"):
            tg.observed_path_index(graph)

    def test_index_rejects_cyclic_graph(self):
        game = junction_game()
        graph = tg.build_deviation_graph(game, [alpha(game, 0, 0)], 1)
        with pytest.raises(ValueError):
            tg.observed_path_index(graph)

    def test_path_statistics(self):
        game = junction_game()
        graph = witness_graph(game)
        assert tg.single_agent_observed_cycle(graph) is None
        index = tg.observed_path_index(graph)
        assert index.node_class == (0, 1, 2)  # three distinct runs
        root = index.node_class[0]
        assert index.d_out[0][root] == 1
        assert index.d_out[1][root] == 1
        assert index.longest == (1, 1)
        assert index.indev[root] == frozenset({0, 1})

    def test_long_single_agent_chain(self):
        # one class per node, agent 0 deviating from each class to the next
        n = 5000
        machine = constant_machine(0, 1)
        graph = tg.DeviationGraph(
            nodes=(tg.Profile((machine,)),) * n,
            runs=tuple(
                tg.LassoRun(prefix=(), cycle=(tg.RunStep(i, 0, ()),))
                for i in range(n)
            ),
            winners=(frozenset(),) * n,
            edges=tuple((i, i + 1, 0) for i in range(n - 1)),
        )
        index = tg.observed_path_index(graph)
        assert index.longest == (n - 1,)
        assert index.d_out[0][0] == n - 1
        assert index.d_out[0][n - 1] == 0


class TestSynthesize:
    def test_junction_witness(self):
        game = junction_game()
        graph = witness_graph(game)
        tax = tg.synthesize_eliminating_tax(game, graph)
        seed_run = graph.runs[0]
        # ceiling is 2 for both agents, so the seed class pays 3 extra
        assert tg.taxed_cost(seed_run, tax, 0) == Fraction(3)
        for u, v, agent in graph.edges:
            before = tg.taxed_cost(graph.runs[u], tax, agent)
            after = tg.taxed_cost(graph.runs[v], tax, agent)
            assert after < before
        assert not tg.is_nash(game, graph.nodes[0], tax)

    def test_untargeted_runs_untouched(self):
        game = junction_game()
        tax = tg.synthesize_eliminating_tax(game, witness_graph(game))
        outside = tg.lasso_canonical(
            tg.generate_run(game.arena, alpha(game, 1, 1))
        )
        for agent in (0, 1):
            assert tg.taxed_cost(outside, tax, agent) == tg.taxed_cost(
                outside, None, agent
            )

    def test_targets_must_have_out_edges(self):
        game = junction_game()
        graph = witness_graph(game)
        with pytest.raises(ValueError):
            tg.synthesize_eliminating_tax(
                game, graph, targets=[graph.nodes[1]]
            )


class TestCheckEliminable:
    def test_junction_seed_is_eliminable(self):
        game = junction_game()
        target = alpha(game, 0, 0)
        graph = tg.check_eliminable(game, [target], 1)
        assert graph is not None
        assert tg.single_agent_observed_cycle(graph) is None
        tax = tg.synthesize_eliminating_tax(game, graph)
        assert not tg.is_nash(game, target, tax)

    def test_empty_targets(self):
        game = junction_game()
        graph = tg.check_eliminable(game, [], 1)
        assert graph is not None
        assert graph.n_nodes == 0

    def test_stuck_profile_is_not_eliminable(self):
        game = one_action_game()
        assert tg.check_eliminable(game, [alpha(game, 0, 0)], 1) is None

    def test_search_budget(self):
        game = junction_game()
        with pytest.raises(tg.SearchLimitError):
            tg.check_eliminable(game, [alpha(game, 0, 0)], 1, search_cap=0)


class TestImplementationVerdicts:
    def test_e_nash_yes(self):
        game = junction_game()
        objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
        verdict = tg.e_nash_implement(game, objective, 1)
        assert verdict.answer == "yes"
        assert verdict.problem == "enash"
        assert tg.is_nash(game, verdict.witness_profile, verdict.witness_tax)
        run = tg.lasso_canonical(
            tg.generate_run(game.arena, verdict.witness_profile)
        )
        assert tg.eval_on_lasso(objective, tg.label_trace(game.arena, run))

    def test_e_nash_no_within_bound(self):
        game = junction_game()
        objective = tg.parse_ltl("G !p", game.arena.vocabulary)
        verdict = tg.e_nash_implement(game, objective, 1)
        assert verdict.answer == "no-within-bound"
        assert verdict.witness_tax is None

    def test_a_nash_yes(self):
        game = junction_game()
        objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
        verdict = tg.a_nash_implement(game, objective, 1)
        assert verdict.answer == "yes"
        tax = verdict.witness_tax
        bad = tg.Not(objective)
        assert tg.find_ne(game, tax, 1, bad) == []
        good = tg.find_ne(game, tax, 1, objective)
        assert verdict.witness_profile in good
        assert any("eliminated" in d for d in verdict.diagnostics)

    def test_a_nash_inherits_e_nash_failure(self):
        game = junction_game()
        objective = tg.parse_ltl("G !p", game.arena.vocabulary)
        verdict = tg.a_nash_implement(game, objective, 1)
        assert verdict.problem == "anash"
        assert verdict.answer == "no-within-bound"
        assert any("precondition" in d for d in verdict.diagnostics)


class TestVerifyWitness:
    def objective(self, game) -> tg.Formula:
        return tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)

    @pytest.mark.parametrize(
        "problem, driver",
        [("enash", tg.e_nash_implement), ("anash", tg.a_nash_implement)],
    )
    def test_driver_witnesses_hold(self, problem, driver):
        game = junction_game()
        objective = self.objective(game)
        verdict = driver(game, objective, 1)
        assert verdict.answer == "yes"
        assert tg.verify_witness(
            game,
            problem,
            objective,
            1,
            verdict.witness_tax,
            verdict.witness_profile,
        ) == ()

    def test_non_equilibrium(self):
        # driver1 pays 9 for heading to s1 and would rather cut through
        game = junction_game()
        tax = tg.lift_static(tg.static_tax(2, {(0, 1): (9, 0)}), 4)
        problems = tg.verify_witness(
            game, "enash", self.objective(game), 1, tax, alpha(game, 0, 1)
        )
        assert problems == (
            "witness profile is not an equilibrium under the witness tax",
        )

    def test_run_violates_objective(self):
        game = junction_game()
        objective = self.objective(game)
        levelling = tg.e_nash_implement(game, objective, 1).witness_tax
        problems = tg.verify_witness(
            game, "enash", objective, 1, levelling, alpha(game, 0, 0)
        )
        assert problems == ("witness run does not satisfy the objective",)

    def test_violating_equilibrium_survives_levelling(self):
        game = junction_game()
        objective = self.objective(game)
        verdict = tg.e_nash_implement(game, objective, 1)
        witness = (verdict.witness_tax, verdict.witness_profile)
        assert tg.verify_witness(game, "enash", objective, 1, *witness) == ()
        assert tg.verify_witness(game, "anash", objective, 1, *witness) == (
            "1 objective-violating equilibria survive the tax at bound 1",
        )


class TestStaticInsufficiency:
    def test_zero_tax_keeps_bad_equilibrium(self):
        game = junction_game()
        objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
        report = tg.static_insufficiency_check(
            game, objective, 2, [tg.zero_tax(2)]
        )
        assert report.all_found
        row = report.rows[0]
        assert row.witness is not None
        assert tg.is_nash(game, row.witness, None)

    def test_witnesses_are_exact_equilibria(self):
        game = junction_game()
        objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
        on_s2 = {(2, letter): (2, 2) for letter in range(4)}
        grid = [tg.zero_tax(2), tg.static_tax(2, on_s2)]
        report = tg.static_insufficiency_check(game, objective, 2, grid)
        for row in report.rows:
            if row.found:
                taxed = tg.apply_static(game, row.tax)
                assert tg.is_nash(taxed, row.witness, None)
        assert report.analytic_note

    def test_prefix_family_defeats_state_taxes(self):
        # a tax on every visible state cannot price a one-step detour
        game = junction_game()
        objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
        cells = {(s, letter): (9, 9) for s in (2, 3) for letter in range(4)}
        heavy = tg.static_tax(2, cells)
        report = tg.static_insufficiency_check(game, objective, 2, [heavy])
        assert report.rows[0].found
