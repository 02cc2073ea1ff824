"""Tests for eliminability on run classes, eliminating taxes, and the
implementation checks."""

from __future__ import annotations

import hashlib
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from random import Random

import pytest

import taxgames as tg
from taxgames.equilibrium import _nash_sweep, _Plays, _Responses
from taxgames.implementation import _chain_lengths

from helpers import (
    RESPONSE_GOALS,
    DeviationGraph,
    constant_machine,
    constant_profile,
    junction_game,
    quotient_synthesis_input,
    random_game,
    rational_game,
    reference_check_eliminable,
    reference_deviation_graph,
    reference_no_agent_improves,
    reference_quotient,
    single_agent_observed_cycle,
)


# the goals of TestCheckEliminable::test_matches_profile_level_reference,
# whose coverage floors hold for the games they draw
ELIMINABLE_GOALS = (
    "false",
    "true",
    "p",
    "!p",
    "X q",
    "G F p",
    "F G q",
    "G (p -> F q)",
    "(G F p) | (F G q)",
)


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


def witness_graph(game) -> DeviationGraph:
    # the full bound-1 graph minus the return edges, leaving one
    # out-edge per agent from the cut-through profile
    full = reference_deviation_graph(game, [alpha(game, 0, 0)], 1)
    keep = tuple(e for e in full.edges if e[0] == 0)
    return replace(full, edges=keep)


def ring_runs(n: int) -> tuple[tg.LassoRun, ...]:
    return tuple(tg.LassoRun(prefix=(), cycle=(tg.RunStep(i, 0),)) for i in range(n))


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
    """The profile-level reference graph of the eliminability tests."""

    def test_junction_one_seed(self):
        game = junction_game()
        graph = reference_deviation_graph(game, [alpha(game, 0, 0)], 1)
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
        graph = reference_deviation_graph(game, [profile], 1)
        assert graph.n_nodes == 1
        assert graph.edges == ()


class TestObservedQuotient:
    def test_full_junction_graph_has_agent_cycle(self):
        game = junction_game()
        graph = reference_deviation_graph(game, [alpha(game, 0, 0)], 1)
        hit = single_agent_observed_cycle(graph)
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
        edges = tuple((i, (i + 1) % n, 0) for i in range(n))
        graph = DeviationGraph(
            nodes=(tg.Profile((machine,)),) * n,
            runs=ring_runs(n),
            winners=(frozenset(),) * n,
            edges=edges,
        )
        agent, cycle = single_agent_observed_cycle(graph)
        assert agent == 0
        assert len(cycle) == n
        assert all(
            cycle[(k + 1) % n] == (cls + 1) % n for k, cls in enumerate(cycle)
        )
        with pytest.raises(ValueError, match="for agent 0"):
            _chain_lengths(n, 1, edges)

    def test_index_rejects_cyclic_graph(self):
        game = junction_game()
        graph = reference_deviation_graph(game, [alpha(game, 0, 0)], 1)
        with pytest.raises(ValueError, match="single-agent observed cycle"):
            tg.synthesize_eliminating_tax(game, *quotient_synthesis_input(graph))

    def test_edge_from_a_run_to_itself_is_a_cycle(self):
        with pytest.raises(ValueError, match="for agent 1"):
            _chain_lengths(2, 2, [(0, 1, 0), (1, 1, 1)])

    def test_path_statistics(self):
        game = junction_game()
        graph = witness_graph(game)
        assert single_agent_observed_cycle(graph) is None
        _, node_class, class_edges = reference_quotient(graph)
        assert node_class == [0, 1, 2]  # three distinct runs
        lengths = _chain_lengths(3, 2, class_edges)
        root = node_class[0]
        assert lengths[0][root] == 1
        assert lengths[1][root] == 1
        assert (max(lengths[0]), max(lengths[1])) == (1, 1)

    def test_long_single_agent_chain(self):
        # one run per class, agent 0 deviating from each run to the next
        n = 5000
        lengths = _chain_lengths(n, 1, [(i, i + 1, 0) for i in range(n - 1)])
        assert max(lengths[0]) == n - 1
        assert lengths[0][0] == n - 1
        assert lengths[0][n - 1] == 0


class TestSynthesize:
    def test_junction_witness(self):
        game = junction_game()
        graph = witness_graph(game)
        runs, edges = quotient_synthesis_input(graph)
        tax = tg.synthesize_eliminating_tax(game, runs, edges)
        seed_run = graph.runs[0]
        # ceiling is 2 for both agents, so the seed class pays 3 extra
        assert tg.taxed_cost(game, seed_run, tax, 0) == Fraction(3)
        for u, v, agent in edges:
            before = tg.taxed_cost(game, runs[u], tax, agent)
            after = tg.taxed_cost(game, runs[v], tax, agent)
            assert after < before
        assert not tg.is_nash(game, graph.nodes[0], tax)

    def test_untargeted_runs_untouched(self):
        game = junction_game()
        tax = tg.synthesize_eliminating_tax(
            game, *quotient_synthesis_input(witness_graph(game))
        )
        outside = tg.lasso_canonical(
            tg.generate_run(game.arena, alpha(game, 1, 1))
        )
        for agent in (0, 1):
            assert tg.taxed_cost(game, outside, tax, agent) == tg.taxed_cost(
                game, outside, None, agent
            )

    def test_runs_must_be_distinct(self):
        game = junction_game()
        run = witness_graph(game).runs[0]
        with pytest.raises(ValueError, match="share one action-profile word"):
            tg.synthesize_eliminating_tax(game, [run, run], [])

    @pytest.mark.parametrize(
        "edge", [(0, -1, -1), (0, 1, 2), (0, 5, 0)], ids=["negative", "agent", "run"]
    )
    def test_edge_outside_the_runs_or_agents_raises(self, edge):
        # unchecked, a negative index would wrap and a large one would raise
        # IndexError
        game = junction_game()
        runs = [
            tg.lasso_canonical(tg.generate_run(game.arena, alpha(game, first, 0)))
            for first in (0, 1)
        ]
        with pytest.raises(ValueError, match=r"is outside 2 runs and 2 agents"):
            tg.synthesize_eliminating_tax(game, runs, [edge])


class TestCheckEliminable:
    def test_junction_seed_is_eliminable(self):
        game = junction_game()
        target = alpha(game, 0, 0)
        tax = tg.check_eliminable(game, [target], 1)
        assert tax is not None
        graph, expected = reference_check_eliminable(game, [target], 1)
        assert single_agent_observed_cycle(graph) is None
        assert tax == expected
        assert not tg.is_nash(game, target, tax)

    def test_empty_targets(self):
        game = junction_game()
        tax = tg.check_eliminable(game, [], 1)
        assert tax == tg.lift_static(tg.zero_tax(2), game.arena.n_letters)

    def test_stuck_profile_is_not_eliminable(self):
        game = one_action_game()
        assert tg.check_eliminable(game, [alpha(game, 0, 0)], 1) is None

    def test_search_budget(self):
        game = junction_game()
        with pytest.raises(tg.SearchLimitError):
            tg.check_eliminable(game, [alpha(game, 0, 0)], 1, search_cap=0)

    def test_expansion_cap(self):
        # targets times the machines of every universe: 1 x (2 + 2) > 1
        game = junction_game()
        with pytest.raises(
            tg.ResourceLimitError,
            match=r"^deviation graph expansion exceeds cap 1$",
        ):
            tg.check_eliminable(game, [alpha(game, 0, 0)], 1, cap=1)

    def test_matches_profile_level_reference(self):
        # on random bound-1 games, the run-class search returns the tax of
        # the profile-level search, or None with it, on a fresh table and
        # on one that a find_ne sweep has read, whose rows refute targets;
        # targets are the cost-free objective-violating equilibria, 1-3
        # random bounded profiles, and the whole bounded universe.  The
        # goals are the test's own, so RESPONSE_GOALS may grow without
        # re-drawing these games
        rng = Random(61)
        answers = []
        for k in range(44):
            goals = (rng.choice(ELIMINABLE_GOALS), rng.choice(ELIMINABLE_GOALS))
            n_actions = rng.choice(((2, 2), (3, 2), (2, 3)))
            if k % 2:
                game = rational_game(rng, goals=goals, n_actions=n_actions)
            else:
                game = random_game(rng, n_actions=n_actions, goals=goals)
            objective = tg.parse_ltl(
                rng.choice(("G F p", "F G q", "G (p <-> q)", "G !q")),
                game.arena.vocabulary,
            )
            universe = list(tg.enumerate_profiles(game.arena, 1))
            target_sets = [
                tg.find_ne(tg.zero_cost_game(game), None, 1, tg.Not(objective)),
                rng.sample(universe, rng.randint(1, 3)),
                universe,
            ]
            read = _Plays(game, 1, 10**7)
            list(_nash_sweep(_Responses(game, None), read))
            for targets in target_sets:
                found = reference_check_eliminable(game, targets, 1)
                expected = None if found is None else found[1]
                assert tg.check_eliminable(game, targets, 1) == expected
                assert (
                    tg.check_eliminable(game, targets, 1, plays=read)
                    == expected
                )
                answers.append(expected is not None)
        assert len(answers) == 132
        assert answers.count(False) >= 5 and answers.count(True) >= 100


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

    def test_a_nash_tax_composes_its_parts(self):
        # the eliminator for the cost-free violating equilibria, on top of
        # the tax levelling every cost to the junction's maximum of 2
        game = junction_game()
        objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
        violating = tg.find_ne(
            tg.zero_cost_game(game), None, 1, tg.Not(objective)
        )
        eliminator = tg.check_eliminable(game, violating, 1)
        levelling = tg.uniform_levelling_tax(game, 2)
        verdict = tg.a_nash_implement(game, objective, 1)
        assert verdict.witness_tax == tg.compose_tax(eliminator, levelling)

    def test_a_nash_inherits_e_nash_failure(self):
        game = junction_game()
        objective = tg.parse_ltl("G !p", game.arena.vocabulary)
        verdict = tg.a_nash_implement(game, objective, 1)
        assert verdict.problem == "anash"
        assert verdict.answer == "no-within-bound"
        assert any("precondition" in d for d in verdict.diagnostics)


def test_driver_verdicts_match_fraction_reference(monkeypatch):
    # the drivers' sweeps, witness checks and eliminability checks all run
    # the integer Nash test; swapping in the Fraction reference, which has
    # no cost-floor shortcut and no memo, must leave every verdict as it is
    rng = Random(37)
    cases = [(junction_game(), "G (p <-> q)")]
    for _ in range(12):
        game = rational_game(
            rng, goals=(rng.choice(RESPONSE_GOALS), rng.choice(RESPONSE_GOALS))
        )
        cases.append((game, rng.choice(("G F p", "F G q", "G (p -> F q)", "true"))))

    def verdicts() -> list:
        return [
            (v.answer, v.witness_tax, v.witness_profile, v.diagnostics)
            for game, text in cases
            for driver in (tg.e_nash_implement, tg.a_nash_implement)
            for v in [driver(game, tg.parse_ltl(text, game.arena.vocabulary), 1)]
        ]

    integer = verdicts()
    for module in (tg.equilibrium, tg.implementation):
        monkeypatch.setattr(module, "_no_agent_improves", reference_no_agent_improves)
    assert verdicts() == integer
    answers = [answer for answer, *_ in integer[1::2]]
    assert "yes" in answers and "no-within-bound" in answers


def test_driver_yes_verdicts_pass_verify_witness():
    # the drivers check witnesses on the levelled game; the public check
    # reads the per-cell witness tax and must agree with every yes
    rng = Random(41)
    cases = [(junction_game(), "G (p <-> q)")]
    for _ in range(12):
        game = rational_game(
            rng, goals=(rng.choice(RESPONSE_GOALS), rng.choice(RESPONSE_GOALS))
        )
        cases.append((game, rng.choice(("G F p", "F G q", "G (p -> F q)", "true"))))
    answers = []
    for game, text in cases:
        objective = tg.parse_ltl(text, game.arena.vocabulary)
        for problem, driver in (
            ("enash", tg.e_nash_implement),
            ("anash", tg.a_nash_implement),
        ):
            verdict = driver(game, objective, 1)
            answers.append((verdict.answer, verdict.diagnostics))
            if verdict.answer == "yes":
                assert tg.verify_witness(
                    game,
                    problem,
                    objective,
                    1,
                    verdict.witness_tax,
                    verdict.witness_profile,
                ) == ()
    yes = [diagnostics for answer, diagnostics in answers if answer == "yes"]
    assert len(yes) >= 10
    assert any("eliminated" in line for lines in yes for line in lines)
    assert any(answer != "yes" for answer, _ in answers)


CORPUS_GOALS = (
    ("G F p", "G F q"),
    ("F G q", "G F p"),
    ("G (p -> F q)", "F G p"),
    ("G F p & G F q", "F q"),
    ("(G F p) | (F G q)", "G !p"),
)
CORPUS_OBJECTIVES = (
    "G F p",
    "F G q",
    "G (p -> F q)",
    "G F p & G F q",
    "F p",
    "G !q",
    "p U q",
    "X p",
    "(G F p) | (F G q)",
    "G (p <-> q)",
)


def test_bound_one_verdict_corpus_is_pinned():
    # 41 games x 10 objectives x 2 drivers: every verdict document, witness
    # taxes and profiles included, hashed in this order; the digest changes
    # when any answer, witness or diagnostic does
    games = [junction_game()]
    for s in range(20):
        games.append(random_game(Random(s), n_states=3, goals=CORPUS_GOALS[s % 5]))
        games.append(rational_game(Random(100 + s), goals=CORPUS_GOALS[(s + 2) % 5]))
    digest = hashlib.sha256()
    answers = []
    for game in games:
        for text in CORPUS_OBJECTIVES:
            objective = tg.parse_ltl(text, game.arena.vocabulary)
            for driver in (tg.e_nash_implement, tg.a_nash_implement):
                verdict = driver(game, objective, 1)
                digest.update(tg.verdict_to_yaml(verdict).encode())
                answers.append(verdict.answer)
    assert (len(answers), answers.count("yes")) == (820, 516)
    assert digest.hexdigest() == (
        "708fe3cf8736c3fa7e138cd4c0208e9502c2c810619203ad0496d1bf125aee1a"
    )


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


def record_plays(monkeypatch) -> list:
    """Record the profile of every run generated for a sweep, driver or
    check."""
    played: list = []
    generate = tg.equilibrium._generate_run

    def recording(arena, profile):
        played.append(profile)
        return generate(arena, profile)

    monkeypatch.setattr(tg.equilibrium, "_generate_run", recording)
    return played


def test_a_nash_plays_each_profile_once(monkeypatch):
    # the e-nash sweep, the violating sweep, the eliminability search, the
    # final sweep and the witness checks read one run-class table: each profile
    # of the bound-1 universe is played once, and each run's goals are
    # decided once
    game = junction_game()
    objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
    universe = list(tg.enumerate_profiles(game.arena, 1))
    runs = {tg.lasso_canonical(tg.generate_run(game.arena, p)) for p in universe}
    played = record_plays(monkeypatch)
    decided: list = []
    evaluate = tg.equilibrium.eval_on_lasso

    def recording(formula, trace):
        if formula in game.goals:
            decided.append((formula, trace))
        return evaluate(formula, trace)

    monkeypatch.setattr(tg.equilibrium, "eval_on_lasso", recording)
    verdict = tg.a_nash_implement(game, objective, 1)
    assert verdict.answer == "yes"
    assert verdict.diagnostics[0].startswith("eliminated")
    assert len(universe) == 4
    assert sorted(played, key=universe.index) == universe
    assert len(decided) == len(game.goals) * len(runs)


@pytest.mark.parametrize("bound", [1, 2])
def test_e_nash_plays_no_profile_past_its_witness(monkeypatch, bound):
    # the e-nash sweep stops at its witness and plays nothing ahead: rows
    # are played on first read, but every agent of each profile it tests
    # up to the witness wins at its cost floor in the cost-free game, so
    # none reads a row; at bound 2 one row of agent 0 spans 962 profiles,
    # so reading one would play far past the witness
    game = junction_game()
    objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
    played = record_plays(monkeypatch)
    verdict = tg.e_nash_implement(game, objective, bound)
    assert verdict.answer == "yes"
    universe = tg.enumerate_profiles(game.arena, bound)
    expected = list(islice(universe, len(played)))
    assert played == expected
    assert played[-1] == verdict.witness_profile
    assert next(universe, None) is not None


@pytest.mark.parametrize(
    "text, stray", [("G !Q", "Q"), ("G (p <-> Q)", "Q"), ("F (R & Q)", "Q, R")]
)
@pytest.mark.parametrize(
    "check",
    [
        pytest.param(lambda game, f: tg.find_ne(game, None, 1, f), id="find_ne"),
        pytest.param(lambda game, f: tg.e_nash_implement(game, f, 1), id="enash"),
        pytest.param(lambda game, f: tg.a_nash_implement(game, f, 1), id="anash"),
        pytest.param(
            lambda game, f: tg.verify_witness(
                game,
                "anash",
                f,
                1,
                tg.lift_static(tg.zero_tax(2), game.arena.n_letters),
                constant_profile(game.arena, [0, 0]),
            ),
            id="verify_witness",
        ),
        pytest.param(
            lambda game, f: tg.static_insufficiency_check(game, f, 1, [tg.zero_tax(2)]),
            id="static_insufficiency",
        ),
    ],
)
def test_objective_outside_vocabulary_is_rejected(check, text, stray):
    # a variable the arena never labels would read false on every run, so
    # each check names it instead of answering
    game = junction_game()
    with pytest.raises(
        tg.UnknownVariableError, match=f"^variables outside vocabulary: {stray}$"
    ):
        check(game, tg.parse_ltl(text))


class TestStaticInsufficiency:
    def test_each_candidate_is_played_once(self, monkeypatch):
        # one run-class table serves every tax of the grid
        game = junction_game()
        objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
        rng = Random(53)
        grid = [
            tg.static_tax(2, {
                (s, a): (rng.randint(0, 3), rng.randint(0, 3))
                for s in range(4)
                for a in range(4)
                if rng.random() < 0.5
            })
            for _ in range(4)
        ]
        played = record_plays(monkeypatch)
        report = tg.static_insufficiency_check(game, objective, 2, grid)
        assert len(report.rows) == 4
        assert played and len(played) == len(set(played))

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
