"""Tests for preferences, mean cycles, best responses, and equilibria."""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import lcm
from random import Random

import pytest

import taxgames as tg

from helpers import (
    RESPONSE_GOALS,
    constant_machine,
    constant_profile,
    junction_game,
    junction_tax,
    min_mean_cycle,
    oracle_eval,
    oracle_response_values,
    random_game,
    random_static_tax,
    rational_game,
    rational_tax,
    reference_is_nash,
    reference_response_value,
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
        assert min_mean_cycle(graph) == 2

    def test_self_loop_beats_long_cycle(self):
        graph = {
            0: [(0, Fraction(1)), (1, Fraction(0))],
            1: [(0, Fraction(0))],
        }
        assert min_mean_cycle(graph) == 0

    def test_acyclic_returns_none(self):
        graph = {0: [(1, Fraction(1))], 1: []}
        assert min_mean_cycle(graph) is None

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
            assert min_mean_cycle(graph) == simple_cycle_min_mean(graph)


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

    def test_unsatisfiable_goal_is_never_met(self):
        game = random_game(Random(1), goals=("false", "G F p"))
        profile = constant_profile(game.arena, [0, 0])
        best = tg.best_response(game, profile, 0, None)
        assert not best.goal_met
        values = oracle_response_values(game, profile, 0, 2)
        assert all(tg.prefers(value, best) <= 0 for value in values)
        assert best in values  # the cheapest cycle is reachable at bound 2

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

    def test_rational_weights_under_dynamic_taxes(self):
        # step weights are scaled to integers by a common denominator; mixed
        # cost denominators and rational rates of multi-state taxes are
        # where that scaling can go wrong
        rng = Random(5)
        for _ in range(20):
            game = rational_game(rng)
            tax = rational_tax(rng, game.arena)
            machines = list(tg.enumerate_machines(2, game.arena.n_letters, 2))
            profile = tg.Profile((rng.choice(machines), rng.choice(machines)))
            agent = rng.randint(0, 1)
            best = tg.best_response(game, profile, agent, tax)
            for value in oracle_response_values(game, profile, agent, 2, tax):
                assert tg.prefers(value, best) <= 0
            # 42 clears every denominator: the integer game needs no
            # scaling and its value is 42 times the rational one
            assert tg.best_response(
                scaled_game(game, 42), profile, agent, scaled_tax(tax, 42)
            ) == tg.LexValue(goal_met=best.goal_met, cost=best.cost * 42)

    def test_equals_unguarded_product(self):
        # the bounded oracle only shows best_response is high enough; the
        # unguarded product shows it is not too high either
        rng = Random(17)
        contradicted = 0
        for goal in RESPONSE_GOALS:
            for _ in range(6):
                game = rational_game(rng, goals=(goal, rng.choice(RESPONSE_GOALS)))
                machines = list(tg.enumerate_machines(2, game.arena.n_letters, 2))
                profile = tg.Profile((rng.choice(machines), rng.choice(machines)))
                for tax in (None, rational_tax(rng, game.arena)):
                    for agent in (0, 1):
                        assert tg.best_response(
                            game, profile, agent, tax
                        ) == reference_response_value(game, profile, agent, tax)
                contradicted += goal != "false" and initial_label_contradicted(game)
        assert contradicted >= 3


def initial_label_contradicted(game: tg.Game) -> bool:
    """Whether agent 0's initial automaton states all disagree with the
    label of the initial arena state."""
    arena = game.arena
    automaton = tg.to_buchi(game.goals[0], arena.vocabulary)
    label = arena.labels[arena.initial] & automaton.constrained
    return all(automaton.atoms[b] != label for b in automaton.initial)


class TestResponseGraph:
    def test_vertices_agree_with_their_labels(self):
        game = junction_game()
        arena = game.arena
        automaton = tg.to_buchi(game.goals[0], arena.vocabulary)
        for actions in product(range(2), repeat=2):
            for agent in (0, 1):
                graph = tg.response_graph(
                    game, constant_profile(arena, actions), agent
                )
                for state, _, _, b in graph.vertices:
                    if b != automaton.sink:
                        assert automaton.atoms[b] == (
                            arena.labels[state] & automaton.constrained
                        )
                # a vertex whose atom contradicts its label is never built
                assert len(graph.vertices) == 3

    def test_unsatisfiable_goal_keeps_to_the_sink(self):
        game = tg.make_game(junction_game().arena, ["false", "G F p"])
        automaton = tg.to_buchi(tg.FALSE, game.arena.vocabulary)
        graph = tg.response_graph(game, constant_profile(game.arena, [0, 1]), 0)
        assert {b for *_, b in graph.vertices} == {automaton.sink}
        assert not any(graph.masks)

    def test_scale_is_fixed_by_game_and_tax(self):
        # the ring's costs have denominators 1, 2 and 3, and B's graphs
        # reach s1 and s2 only when A goes round; every graph is still over
        # the one scale of (game, tax), whether its memo is fresh or shared
        game = growing_denominator_game()
        cost = game.arena.cost
        partial = 0
        for tax in (None, rational_tax(Random(11), game.arena)):
            vectors = [vector for row in cost for vector in row]
            if tax is not None:
                vectors += [v for out in tax.outputs for *_, v in out.entries]
            scale = lcm_of_denominators(vectors)
            shared = tg.equilibrium._Responses(game, tax)
            for profile in tg.enumerate_profiles(game.arena, 1):
                for agent in (0, 1):
                    fresh = tg.equilibrium._Responses(game, tax)
                    graph = tg.response_graph(game, profile, agent, tax, fresh)
                    reached = [cost[s][a] for s, a, _ in fresh.steps]
                    if tax is not None:
                        reached += [
                            tax.outputs[q].rate(s, a) for s, a, q in fresh.steps
                        ]
                    partial += lcm_of_denominators(reached) != scale
                    again = tg.response_graph(game, profile, agent, tax, shared)
                    assert graph.scale == again.scale == shared.scale == scale
                    assert graph.successors == again.successors
                    assert graph.weights == again.weights
                    assert tg.equilibrium._response_value(
                        graph
                    ) == reference_response_value(game, profile, agent, tax)
        assert partial


    def test_full_acceptance_sets_dropped(self):
        # the sets of G F p & G F q that hold every non-sink state decide
        # nothing; a goal whose sets are all full keeps one
        vocabulary = ("p", "q")
        for text, automaton_sets, goal_sets in [
            ("G F p & G F q", 4, 2),
            ("G F p", 2, 1),
            ("G p", 1, 1),
        ]:
            formula = tg.parse_ltl(text, vocabulary)
            assert len(tg.to_buchi(formula, vocabulary).acceptance) == automaton_sets
            goal = tg.equilibrium._goal_automaton(formula, vocabulary)
            assert goal.full == (1 << goal_sets) - 1
        rng = Random(43)
        for _ in range(8):
            game = rational_game(rng, goals=("G F p & G F q", "G F p"))
            machines = list(tg.enumerate_machines(2, game.arena.n_letters, 2))
            profile = tg.Profile((rng.choice(machines), rng.choice(machines)))
            tax = rational_tax(rng, game.arena)
            assert tg.response_graph(game, profile, 0, tax).full == 0b11
            assert tg.best_response(
                game, profile, 0, tax
            ) == reference_response_value(game, profile, 0, tax)


def lcm_of_denominators(vectors) -> int:
    return lcm(*(x.denominator for vector in vectors for x in vector))


def growing_denominator_game() -> tg.Game:
    """A three-state ring s0 -> s1 -> s2 -> s0 with step costs 1, 1/2 and
    1/3 for both agents; agent A may instead idle at s0 for 2."""
    ring = {"s0": ("s1", 1), "s1": ("s2", "1/2"), "s2": ("s0", "1/3")}
    transitions, costs = {}, {}
    for state, (target, step) in ring.items():
        for a in ("go", "idle"):
            idle = a == "idle" and state == "s0"
            transitions[(state, (a, "c"))] = state if idle else target
            costs[(state, (a, "c"))] = (2, 2) if idle else (step, step)
    arena = tg.make_arena(
        states=list(ring),
        vocabulary=["p"],
        agents=["A", "B"],
        actions={"A": ["go", "idle"], "B": ["c"]},
        labels={"s1": ["p"]},
        transitions=transitions,
        costs=costs,
        initial="s0",
    )
    return tg.make_game(arena, ["G F p", "G F p"])


def scaled_game(game: tg.Game, factor: int) -> tg.Game:
    cost = tuple(
        tuple(tuple(x * factor for x in vector) for vector in row)
        for row in game.arena.cost
    )
    return replace(game, arena=replace(game.arena, cost=cost))


def scaled_tax(tax: tg.DynamicTax, factor: int) -> tg.DynamicTax:
    outputs = tuple(
        tg.StaticTax(
            n_agents=out.n_agents,
            entries=tuple(
                (s, a, tuple(x * factor for x in vector))
                for s, a, vector in out.entries
            ),
        )
        for out in tax.outputs
    )
    return replace(tax, outputs=outputs)


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


class TestIntegerNashTest:
    """is_nash and find_ne compare integer run costs with integer best
    responses and skip agents at their cost floor; the reference is
    reference_taxed_costs against reference_response_value, on Fractions."""

    @staticmethod
    def instances(rng: Random, count: int):
        """Rational games under multi-state rational taxes, and their
        cost-free copies untaxed, where every winner is at its floor."""
        for _ in range(count):
            game = rational_game(
                rng, goals=(rng.choice(RESPONSE_GOALS), rng.choice(RESPONSE_GOALS))
            )
            yield game, rational_tax(rng, game.arena)
            yield tg.zero_cost_game(game), None

    def test_is_nash_matches_fraction_reference(self):
        rng = Random(29)
        verdicts = []
        for game, tax in self.instances(rng, 12):
            machines = list(tg.enumerate_machines(2, game.arena.n_letters, 2))
            for _ in range(4):
                profile = tg.Profile((rng.choice(machines), rng.choice(machines)))
                expected = reference_is_nash(game, profile, tax)
                assert tg.is_nash(game, profile, tax) == expected
                verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)

    def test_find_ne_matches_fraction_reference(self):
        rng = Random(31)
        found = 0
        for game, tax in self.instances(rng, 10):
            arena = game.arena
            for text in (None, "G F p", "F G !q"):
                objective = None if text is None else tg.parse_ltl(text)
                expected = [
                    p
                    for p in tg.enumerate_profiles(arena, 1)
                    if reference_is_nash(game, p, tax)
                    and (
                        objective is None
                        or oracle_eval(
                            objective,
                            tg.label_trace(arena, tg.evaluate(game, p).run),
                        )
                    )
                ]
                assert tg.find_ne(game, tax, 1, objective) == expected
                found += len(expected)
        assert found

    def test_floor_winner_builds_no_graph(self, monkeypatch):
        game = junction_game()
        keys = count_response_graphs(monkeypatch)
        # at (a, c) both drivers pass p every other step at cost 0, the
        # cheapest step of each
        profile = constant_profile(game.arena, [0, 0])
        assert tg.is_nash(game, profile, None)
        assert keys == []
        # a surcharge on every cell lifts the run above the floor
        everywhere = {(s, a): (1, 1) for s in range(4) for a in range(4)}
        tax = tg.lift_static(tg.static_tax(2, everywhere), 4)
        assert tg.is_nash(game, profile, tax)
        assert [agent for agent, _ in keys] == [0, 1]

    def test_a_nash_final_tax_has_one_memo(self, monkeypatch):
        # the final sweep and the witness check read the levelled game
        # under the eliminator, and share one memo, so no product graph
        # under it is built twice; the cost-free sweeps and the e-nash
        # check run untaxed, and the eliminability check taxes the game.
        # Here agents lose on bounded equilibria under the eliminator, so
        # the final memo builds graphs
        game = random_game(Random(2), n_states=3, max_cost=3, goals=("p", "p"))
        objective = tg.parse_ltl("F G q", game.arena.vocabulary)
        built = record_response_graphs(monkeypatch)
        verdict = tg.a_nash_implement(game, objective, 1)
        assert verdict.answer == "yes"
        assert verdict.diagnostics[0].startswith("eliminated")
        final = [
            (memo, key)
            for memo, key in built
            if memo.tax is not None and memo.game is not game
        ]
        keys = [key for _, key in final]
        assert len(keys) >= 2 and len(keys) == len(set(keys))
        assert len({id(memo) for memo, _ in final}) == 1

    def test_a_nash_on_junction_refutes_by_rows(self, monkeypatch):
        # on junction every profile that the final sweep, the witness
        # check and the candidate checks test is refuted by its row or
        # skipped at its floor, so no taxed memo builds a graph
        game = junction_game()
        objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
        built = record_response_graphs(monkeypatch)
        verdict = tg.a_nash_implement(game, objective, 1)
        assert verdict.answer == "yes"
        assert verdict.diagnostics[0].startswith("eliminated")
        assert [memo for memo, _ in built if memo.tax is not None] == []

    def test_drivers_check_witnesses_on_the_levelled_game(self, monkeypatch):
        # no product graph reads the per-cell witness tax; the levelled
        # game charges its floor on every step, so no winner of the e-nash
        # witness run needs a graph either, while its loser does
        game = random_game(
            Random(3), n_states=3, max_cost=3, goals=("G F p", "F G q")
        )
        objective = tg.parse_ltl("G (p -> F q)", game.arena.vocabulary)
        free: list = []
        zero_cost_game = tg.implementation.zero_cost_game

        def recording(g):
            free.append(zero_cost_game(g))
            return free[-1]

        monkeypatch.setattr(tg.implementation, "zero_cost_game", recording)
        built = record_response_graphs(monkeypatch)
        verdict = tg.a_nash_implement(game, objective, 1)
        assert verdict.answer == "yes"
        assert built and all(memo.tax != verdict.witness_tax for memo, _ in built)

        built.clear()
        verdict = tg.e_nash_implement(game, objective, 1)
        assert verdict.answer == "yes"
        winners = tg.evaluate(game, verdict.witness_profile).winners
        checked = {agent for memo, (agent, _) in built if memo.game is not free[-1]}
        assert winners and checked and not winners & checked

    def test_row_refuted_profile_builds_no_graph(self, monkeypatch):
        # at (d, d) both drivers lose, and driver 1 improves by swerving,
        # a bounded machine: on a fresh table that has played nothing
        # else, its row is played on first read and refutes the profile
        # before any graph, where the exact test builds one
        game = junction_game()
        profile = constant_profile(game.arena, [1, 1])
        plays = tg.equilibrium._Plays(game, 1)
        plays.numbered()
        index = plays.position(profile)
        k = plays.class_at(index, profile)
        responses = tg.equilibrium._Responses(game, None)
        keys = count_response_graphs(monkeypatch)
        no_improves = tg.equilibrium._no_agent_improves
        assert not no_improves(responses, plays, profile, k, index)
        assert keys == []
        assert not no_improves(responses, plays, profile, k)
        assert [agent for agent, _ in keys] == [0]

    def test_floor_winners_read_no_row(self, monkeypatch):
        # in the cost-free junction every step costs the floor, and when
        # the drivers play a and d both win: neither can improve, so the
        # Nash test reads no row and builds no graph for either
        game = tg.zero_cost_game(junction_game())
        profile = constant_profile(game.arena, [0, 1])
        plays = tg.equilibrium._Plays(game, 1)
        plays.numbered()
        index = plays.position(profile)
        k = plays.class_at(index, profile)
        assert plays.winners[k] == {0, 1}
        responses = tg.equilibrium._Responses(game, None)
        rows: list = []
        row_best = tg.equilibrium._Responses.row_best

        def recording(memo, *args):
            rows.append(args)
            return row_best(memo, *args)

        monkeypatch.setattr(tg.equilibrium._Responses, "row_best", recording)
        keys = count_response_graphs(monkeypatch)
        assert tg.equilibrium._no_agent_improves(responses, plays, profile, k, index)
        assert rows == [] and keys == []

    def test_find_ne_builds_graphs_only_for_bounded_equilibria(self, monkeypatch):
        # a profile that some bounded machine of one agent beats is refuted
        # by that agent's row, so every graph find_ne builds belongs to a
        # bounded equilibrium: no agent gains by another bounded machine
        rng = Random(43)
        graphs = refuted = 0
        for _ in range(6):
            game = random_game(
                rng, goals=(rng.choice(RESPONSE_GOALS), rng.choice(RESPONSE_GOALS))
            )
            arena = game.arena
            universes = [
                list(tg.enumerate_machines(len(actions), arena.n_letters, 1))
                for actions in arena.actions
            ]
            profiles = list(tg.enumerate_profiles(arena, 1))
            bounded = [
                p
                for p in profiles
                if all(
                    tg.prefers(
                        tg.evaluate(game, p.replace(agent, m)).value(agent),
                        tg.evaluate(game, p).value(agent),
                    )
                    <= 0
                    for agent, machines in enumerate(universes)
                    for m in machines
                )
            ]
            keys = count_response_graphs(monkeypatch)
            found = tg.find_ne(game, None, 1)
            assert set(found) <= set(bounded)
            tested = {
                (agent, p.machines[:agent] + p.machines[agent + 1 :])
                for p in bounded
                for agent in range(2)
            }
            assert set(keys) <= tested
            graphs += len(keys)
            refuted += len(profiles) - len(bounded)
        assert graphs and refuted


@pytest.mark.parametrize(
    "malformed",
    [
        pytest.param(lambda n: (constant_machine(0, n),), id="one-machine"),
        pytest.param(
            lambda n: (constant_machine(5, n), constant_machine(0, n)),
            id="action-out-of-range",
        ),
        pytest.param(
            lambda n: (constant_machine(0, n - 1), constant_machine(0, n)),
            id="letter-count",
        ),
    ],
)
@pytest.mark.parametrize(
    "entry", ["generate_run", "evaluate", "is_nash", "best_response"]
)
def test_malformed_profile_rejected_at_entry(entry, malformed):
    # sweeps play enumerated profiles unchecked; every public entry point
    # that takes a profile still checks it
    game = junction_game()
    profile = tg.Profile(malformed(game.arena.n_letters))
    calls = {
        "generate_run": lambda: tg.generate_run(game.arena, profile),
        "evaluate": lambda: tg.evaluate(game, profile),
        "is_nash": lambda: tg.is_nash(game, profile),
        "best_response": lambda: tg.best_response(game, profile, 0),
    }
    with pytest.raises(tg.AlphabetMismatchError):
        calls[entry]()


@pytest.mark.parametrize(
    "entry", ["find_ne", "is_nash", "evaluate", "best_response", "verify_witness"]
)
def test_tax_of_another_alphabet_rejected_at_entry(entry):
    # a tax machine whose rows read 1 letter, on an arena with 4; every
    # public entry point that takes a tax checks its shape against the arena
    game = junction_game()
    tax = tg.DynamicTax(outputs=(tg.zero_tax(2),) * 2, transitions=((1,), (0,)))
    profile = constant_profile(game.arena, [0, 0])
    objective = tg.parse_ltl("G F p", game.arena.vocabulary)
    calls = {
        "find_ne": lambda: tg.find_ne(game, tax, 1),
        "is_nash": lambda: tg.is_nash(game, profile, tax),
        "evaluate": lambda: tg.evaluate(game, profile, tax),
        "best_response": lambda: tg.best_response(game, profile, 0, tax),
        "verify_witness": lambda: tg.verify_witness(
            game, "enash", objective, 1, tax, profile
        ),
    }
    with pytest.raises(tg.AlphabetMismatchError, match="reads 1 letters, game has 4"):
        calls[entry]()


@pytest.mark.parametrize("agent", [-1, 2])
@pytest.mark.parametrize(
    "entry",
    [
        "best_response",
        "response_graph",
        "initial_deviation",
        "taxed_cost",
        "max_cost",
    ],
)
def test_agent_outside_the_game_rejected(entry, agent):
    # one check for every entry point taking an agent index: -1 must not
    # wrap to the last agent, and 2 must not raise IndexError
    game = junction_game()
    profile = constant_profile(game.arena, [0, 0])
    run = tg.lasso_canonical(tg.generate_run(game.arena, profile))
    alt = constant_profile(game.arena, [1, 1]).machines[0]
    calls = {
        "best_response": lambda: tg.best_response(game, profile, agent),
        "response_graph": lambda: tg.response_graph(game, profile, agent),
        "initial_deviation": lambda: tg.initial_deviation(
            game, profile, agent, alt
        ),
        "taxed_cost": lambda: tg.taxed_cost(game, run, None, agent),
        "max_cost": lambda: tg.max_cost(game, agent),
    }
    with pytest.raises(ValueError, match=rf"agent index {agent} is outside 0\.\.1"):
        calls[entry]()


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


    def test_sweep_computes_each_response_once(self, monkeypatch):
        game = junction_game()
        keys = count_response_graphs(monkeypatch)
        tg.find_ne(game, None, 1)
        assert keys and len(keys) == len(set(keys))
        # in the bound-1 universe each (agent, other machine) pair occurs
        # in two profiles, so without the memo every key would repeat
        assert len(keys) <= 4

    def test_nash_check_stops_at_first_improving_agent(self, monkeypatch):
        game = junction_game()
        keys = count_response_graphs(monkeypatch)
        # both drivers lose at (d, d); driver 1 improves by swerving
        assert not tg.is_nash(game, constant_profile(game.arena, [1, 1]), None)
        assert [agent for agent, _ in keys] == [0]

    def test_caches_die_with_the_call(self):
        game = junction_game()
        tax = junction_tax()
        objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
        refs = [weakref.ref(game), weakref.ref(tax)]
        assert tg.find_ne(game, tax, 1)
        verdict = tg.a_nash_implement(game, objective, 1)
        assert verdict.answer == "yes"
        del game, tax
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


def count_response_graphs(monkeypatch) -> list:
    """Record (agent, other machines) of every product graph built."""
    keys: list = []
    build = tg.equilibrium.response_graph

    def recording(game, profile, agent, *args):
        others = profile.machines[:agent] + profile.machines[agent + 1 :]
        keys.append((agent, others))
        return build(game, profile, agent, *args)

    monkeypatch.setattr(tg.equilibrium, "response_graph", recording)
    return keys


def record_response_graphs(monkeypatch) -> list:
    """Record (memo, (agent, other machines)) of every product graph built
    for a memo."""
    built: list = []
    build = tg.equilibrium.response_graph

    def recording(game, profile, agent, tax=None, responses=None):
        others = profile.machines[:agent] + profile.machines[agent + 1 :]
        built.append((responses, (agent, others)))
        return build(game, profile, agent, tax, responses)

    monkeypatch.setattr(tg.equilibrium, "response_graph", recording)
    return built


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


def malformed_cases():
    """(machine, tax) parameters on junction, one of them None: each bad
    machine plays agent 0 against a constant agent 1, and each bad tax
    taxes a well-formed profile."""
    zero = tg.zero_tax(2)
    machines = {
        "target-outside": tg.StrategyMachine((0,), ((1, 1, 1, 1),)),
        "target-negative": tg.StrategyMachine((0,), ((-1, 0, 0, 0),)),
        "fewer-rows": tg.StrategyMachine((0, 1), ((0, 0, 0, 0),)),
        "no-states": tg.StrategyMachine((), ()),
    }
    taxes = {
        "next-outside": tg.DynamicTax((zero, zero), ((0, 0, 0, 2), (0,) * 4)),
        "next-negative": tg.DynamicTax((zero, zero), ((0, 0, 0, -1), (0,) * 4)),
        "fewer-rows": tg.DynamicTax((zero, zero), ((0, 0, 0, 0),)),
        "no-states": tg.DynamicTax((), ()),
    }
    for name, machine in machines.items():
        yield pytest.param(machine, None, id=f"machine-{name}")
    for name, tax in taxes.items():
        yield pytest.param(None, tax, id=f"tax-{name}")


@pytest.mark.parametrize("machine, tax", malformed_cases())
def test_malformed_machines_are_rejected(machine, tax):
    # a machine needs a state, one transition row per state and targets
    # among its states; check_profile and check_tax refuse any other
    game = junction_game()
    profile = constant_profile(game.arena, [0, 0])
    calls = []
    if machine is not None:
        profile = tg.Profile((machine, constant_machine(0, 4)))
        calls.append(lambda: tg.generate_run(game.arena, profile))
    else:
        calls.append(lambda: tg.find_ne(game, tax, 1))
    calls.append(lambda: tg.is_nash(game, profile, tax))
    calls.append(lambda: tg.evaluate(game, profile, tax))
    for call in calls:
        with pytest.raises(tg.AlphabetMismatchError):
            call()
