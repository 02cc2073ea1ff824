"""End-to-end acceptance checks with pinned runtime budgets."""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

import taxgames as tg
from taxgames.cli import main

from helpers import (
    DeviationGraph,
    buchi_accepts_lasso,
    constant_profile,
    min_mean_cycle,
    oracle_response_values,
    quotient_synthesis_input,
    random_game,
    random_static_tax,
    reference_deviation_graph,
    reference_running_means,
    reference_to_buchi,
    simple_cycle_min_mean,
    single_agent_observed_cycle,
)

FIXTURES = Path(tg.__file__).parent / "fixtures"
GAME = str(FIXTURES / "junction.game")

LETTER_SETS = (
    frozenset(),
    frozenset({"p"}),
    frozenset({"q"}),
    frozenset({"p", "q"}),
)

FORMULA_TEMPLATES = (
    "true",
    "p",
    "!p",
    "p | q",
    "p & q",
    "p -> q",
    "p <-> q",
    "X p",
    "X X p",
    "F q",
    "G p",
    "G !p",
    "p U q",
    "true U q",
    "p U (p & q)",
    "G F p",
    "F G q",
    "G (p -> F q)",
    "(p U q) U p",
    "p U (q U p)",
    "F (p & X q)",
    "!(p U q)",
    "G p | G q",
    "X (p U q)",
    "G (p <-> X p)",
    "F p & F q",
)


# ============================ random generators =============================

def random_machine(rng: Random, n_actions: int, n_letters: int, max_states: int):
    n = rng.randint(1, max_states)
    raw = tg.StrategyMachine(
        outputs=tuple(rng.randrange(n_actions) for _ in range(n)),
        transitions=tuple(
            tuple(rng.randrange(n) for _ in range(n_letters))
            for _ in range(n)
        ),
    )
    return tg.canonicalize_machine(raw)


def random_profile(rng: Random, arena: tg.Arena, max_states: int) -> tg.Profile:
    return tg.Profile(
        tuple(
            random_machine(rng, len(arena.actions[i]), arena.n_letters, max_states)
            for i in range(arena.n_agents)
        )
    )


def random_formula(rng: Random, size: int) -> tg.Formula:
    if size <= 1:
        return rng.choice((tg.TRUE, tg.Var("p"), tg.Var("q")))
    op = rng.choice(("not", "next", "or", "until"))
    if op == "not":
        return tg.Not(random_formula(rng, size - 1))
    if op == "next":
        return tg.Next(random_formula(rng, size - 1))
    left = rng.randint(1, size - 2) if size > 2 else 1
    first = random_formula(rng, left)
    second = random_formula(rng, size - 1 - left)
    return tg.Or(first, second) if op == "or" else tg.Until(first, second)


def random_trace(rng: Random) -> tg.LabelTrace:
    prefix = tuple(
        rng.choice(LETTER_SETS) for _ in range(rng.randint(0, 3))
    )
    cycle = tuple(rng.choice(LETTER_SETS) for _ in range(rng.randint(1, 3)))
    return tg.LabelTrace(prefix=prefix, cycle=cycle)


def all_traces() -> list[tg.LabelTrace]:
    traces = []
    for pl in range(4):
        for prefix in product(LETTER_SETS, repeat=pl):
            for cl in range(1, 4):
                for cycle in product(LETTER_SETS, repeat=cl):
                    traces.append(tg.LabelTrace(prefix=prefix, cycle=cycle))
    return traces


def admits_constant_equilibrium(game: tg.Game, tax: tg.StaticTax) -> bool:
    taxed = tg.apply_static(game, tax)
    return any(
        tg.is_nash(taxed, constant_profile(game.arena, [a, b]), None)
        for a in range(2)
        for b in range(2)
    )


# ============================ planted instances =============================

def plant_witness(rng: Random):
    """A random game plus a deviation graph whose targets all have an
    out-edge and whose run quotient has no single-agent cycle."""
    while True:
        game = random_game(rng, n_states=rng.randint(2, 3))
        arena = game.arena
        seeds = []
        for first in range(2):
            for second in range(2):
                seeds.append(constant_profile(arena, [first, second]))
        rng.shuffle(seeds)
        seeds = seeds[: rng.randint(1, 2)]
        full = reference_deviation_graph(game, seeds, 1)
        target_ids = list(range(len(seeds)))
        pools = [
            [e for e in full.edges if e[0] == t] for t in target_ids
        ]
        if any(not pool for pool in pools):
            continue
        for combo in product(*pools):
            candidate = replace(full, edges=tuple(combo))
            if single_agent_observed_cycle(candidate) is None:
                targets = [full.nodes[t] for t in target_ids]
                return game, candidate, targets
        # every one-edge-per-target selection closed a cycle; resample


def lex_of(
    game: tg.Game, graph: DeviationGraph, node: int, agent: int, tax
) -> tg.LexValue:
    return tg.LexValue(
        goal_met=agent in graph.winners[node],
        cost=tg.taxed_cost(game, graph.runs[node], tax, agent),
    )


class TestAcceptance:
    def test_junction_tax_reshapes_bound_one_equilibria(self, tmp_path):
        """The shipped tax deters lane-grabbing, and the solver proves it."""
        start = time.monotonic()
        game = tg.load_game(FIXTURES / "junction.game")
        tax = tg.load_tax(FIXTURES / "junction.tax")
        for profile in tg.enumerate_profiles(game.arena, 1):
            run = tg.lasso_canonical(tg.generate_run(game.arena, profile))
            visited = {step.state for step in run.prefix + run.cycle}
            if visited & {2, 3}:
                assert not tg.is_nash(game, profile, tax)
            else:
                assert tg.is_nash(game, profile, tax)
        out = tmp_path / "verdict.yaml"
        code = main(
            [
                "check",
                "anash",
                "--game",
                GAME,
                "--objective",
                "G (p <-> q)",
                "--bound",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert main(["verify", "--game", GAME, "--verdict", str(out)]) == 0
        assert time.monotonic() - start < 1.0

    def test_no_static_tax_implements_the_junction_objective(self):
        """Every sampled static tax leaves an objective-violating equilibrium."""
        start = time.monotonic()
        rng = Random(20260816)
        game = tg.load_game(FIXTURES / "junction.game")
        objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
        # The detour argument needs an equilibrium to survive the tax at
        # all: taxes so punishing that no bounded equilibrium remains fail
        # to implement the objective vacuously, with nothing to witness.
        grid = [tg.zero_tax(2)]
        while len(grid) < 51:
            tax = random_static_tax(rng, game, max_component=10)
            if admits_constant_equilibrium(game, tax):
                grid.append(tax)
        report = tg.static_insufficiency_check(game, objective, 2, grid)
        missing = [k for k, row in enumerate(report.rows) if not row.found]
        assert not missing, f"no violating equilibrium under taxes {missing}"
        assert len(report.rows) == 51
        assert time.monotonic() - start < 30.0

    def test_limit_average_taxed_costs(self):
        """Taxed limit averages match hand values and truncation converges."""
        start = time.monotonic()
        game = tg.load_game(FIXTURES / "junction.game")
        arena = game.arena
        tax = tg.load_tax(FIXTURES / "junction.tax")
        run_ad = tg.lasso_canonical(
            tg.generate_run(arena, constant_profile(arena, [0, 1]))
        )
        run_ac = tg.lasso_canonical(
            tg.generate_run(arena, constant_profile(arena, [0, 0]))
        )
        assert tg.taxed_cost(game, run_ad, None, 0) == Fraction(1)
        assert tg.taxed_cost(game, run_ac, tax, 0) == Fraction(3)
        assert tg.taxed_cost(game, run_ac, tax, 1) == Fraction(3)
        free = tg.zero_cost_game(game)
        run_free = tg.lasso_canonical(
            tg.generate_run(free.arena, constant_profile(free.arena, [0, 0]))
        )
        assert tg.taxed_cost(free, run_free, None, 0) == 0
        ceiling = Fraction(5)  # worst step cost plus worst tax rate
        for run, applied in ((run_ad, None), (run_ac, tax)):
            horizon = len(run.prefix) + 100 * len(run.cycle)
            means = reference_running_means(arena, run, applied, horizon + 1)
            for agent in (0, 1):
                gap = means[horizon][agent] - tg.taxed_cost(game, run, applied, agent)
                assert abs(gap) <= ceiling / 100
        assert time.monotonic() - start < 1.0

    def test_taxes_never_create_new_equilibrium_outcomes(self):
        """Equilibria of every taxed game are cost-free-game equilibria."""
        start = time.monotonic()
        rng = Random(404)
        goal_pool = ("G F p", "F q", "G !q", "p U q", "true")
        for _ in range(200):
            game = random_game(
                rng,
                n_states=rng.randint(1, 3),
                n_actions=(rng.randint(1, 2), rng.randint(1, 2)),
                goals=(rng.choice(goal_pool), rng.choice(goal_pool)),
            )
            shape_only = set(tg.find_ne(tg.zero_cost_game(game), None, 1, None))
            for _ in range(5):
                tax = random_static_tax(rng, game)
                taxed = set(tg.find_ne(tg.apply_static(game, tax), None, 1, None))
                assert taxed <= shape_only
        assert time.monotonic() - start < 120.0

    def test_best_response_dominates_every_bounded_machine(self):
        """The supremum beats all three-state deviations, strictly when they win."""
        start = time.monotonic()
        rng = Random(515)
        for k in range(100):
            game = random_game(rng, n_states=rng.randint(1, 3))
            profile = random_profile(rng, game.arena, 2)
            agent = rng.randrange(2)
            tax = None
            if k % 2:
                tax = tg.lift_static(
                    random_static_tax(rng, game), game.arena.n_letters
                )
            best = tg.best_response(game, profile, agent, tax)
            current = tg.evaluate(game, profile, tax).value(agent)
            improved = False
            for value in oracle_response_values(game, profile, agent, 3, tax):
                assert tg.prefers(value, best) <= 0
                if tg.prefers(value, current) > 0:
                    improved = True
            if improved:
                assert tg.prefers(best, current) > 0
        assert time.monotonic() - start < 300.0

    def test_lasso_semantics_agree_with_automaton_oracle(self):
        """Fixpoint evaluation matches the automaton oracle everywhere."""
        start = time.monotonic()
        vocabulary = ("p", "q")
        traces = all_traces()
        for text in FORMULA_TEMPLATES:
            formula = tg.parse_ltl(text, vocabulary)
            automaton = tg.to_buchi(formula, vocabulary)
            for trace in traces:
                assert tg.eval_on_lasso(formula, trace) == buchi_accepts_lasso(
                    automaton, trace
                ), f"{text} disagrees on {trace}"
        rng = Random(606)
        for _ in range(1000):
            formula = random_formula(rng, rng.randint(1, 8))
            trace = random_trace(rng)
            automaton = tg.to_buchi(formula, vocabulary)
            assert tg.eval_on_lasso(formula, trace) == buchi_accepts_lasso(
                automaton, trace
            )
        assert time.monotonic() - start < 120.0

    def test_automata_pinned(self):
        """reference_to_buchi keeps the tableau automata with their
        round-robin counter, and to_buchi keeps its on-the-fly automata:
        same states, numbering and acceptance."""
        vocabulary = ("p", "q")

        def digest(translate, acceptance) -> str:
            hashed = hashlib.sha256()
            for text in FORMULA_TEMPLATES:
                a = translate(tg.parse_ltl(text, vocabulary))
                fields = (
                    sorted(a.constrained),
                    [sorted(atom) for atom in a.atoms],
                    a.edges,
                    a.initial,
                    acceptance(a.acceptance),
                    a.sink,
                )
                hashed.update(repr(fields).encode())
            return hashed.hexdigest()

        # the counter's one acceptance set hashes as the accepting set of
        # the automaton it degeneralised
        assert digest(reference_to_buchi, lambda sets: sorted(*sets)) == (
            "3ebbaa1061fae9fd50defbbf8cce6520cfdab7a9093c859ecbb48ef950d33bcf"
        )
        assert digest(
            lambda f: tg.to_buchi(f, vocabulary),
            lambda sets: [sorted(marks) for marks in sets],
        ) == "47e1737fc57496fb8bc71a7086049e48e8b7373c9c5ca34fdf39c3df6226fcca"

    def test_synthesized_taxes_eliminate_planted_targets(self):
        """Synthesis prices out planted targets and spares other runs."""
        start = time.monotonic()
        rng = Random(707)
        for _ in range(50):
            game, graph, targets = plant_witness(rng)
            tax = tg.synthesize_eliminating_tax(
                game, *quotient_synthesis_input(graph)
            )
            for u, v, agent in graph.edges:
                gain = tg.prefers(
                    lex_of(game, graph, v, agent, tax),
                    lex_of(game, graph, u, agent, tax),
                )
                assert gain > 0
            for target in targets:
                assert not tg.is_nash(game, target, tax)
            planted_runs = set(graph.runs)
            for _ in range(10):
                other = random_profile(rng, game.arena, 2)
                run = tg.lasso_canonical(tg.generate_run(game.arena, other))
                if run in planted_runs:
                    continue
                for agent in (0, 1):
                    assert tg.taxed_cost(game, run, tax, agent) == tg.taxed_cost(
                        game, run, None, agent
                    )
        assert time.monotonic() - start < 300.0

    def test_min_mean_cycle_matches_cycle_enumeration(self):
        """Karp values equal exhaustive simple-cycle minima on random graphs."""
        start = time.monotonic()
        rng = Random(808)
        for _ in range(500):
            n = rng.randint(1, 7)
            graph = {}
            for u in range(n):
                edges = []
                for v in range(n):
                    if rng.random() < 0.35:
                        weight = Fraction(
                            rng.randint(-9, 9), rng.randint(1, 5)
                        )
                        edges.append((v, weight))
                graph[u] = edges
            assert min_mean_cycle(graph) == simple_cycle_min_mean(graph)
        assert time.monotonic() - start < 30.0

    def test_documents_and_commands_are_deterministic(self, tmp_path, capsys):
        """Loads, dumps, and repeated command runs are byte-identical."""
        start = time.monotonic()
        pairs = (
            ("junction.game", tg.parse_game, tg.game_to_yaml),
            ("profile_ac.profile", tg.parse_profile, tg.profile_to_yaml),
            ("profile_bd.profile", tg.parse_profile, tg.profile_to_yaml),
            ("junction.tax", tg.parse_tax, tg.tax_to_yaml),
            ("corridor.grid", tg.parse_grid, tg.grid_to_yaml),
            ("orchard.grid", tg.parse_grid, tg.grid_to_yaml),
        )
        for name, parse, dump in pairs:
            text = (FIXTURES / name).read_text()
            once = dump(parse(text))
            assert dump(parse(once)) == once
        commands = (
            [
                "evaluate",
                "--game",
                GAME,
                "--profile",
                str(FIXTURES / "profile_ac.profile"),
                "--tax",
                str(FIXTURES / "junction.tax"),
                "--out",
                str(tmp_path / "report.yaml"),
            ],
            [
                "check",
                "anash",
                "--game",
                GAME,
                "--objective",
                "G (p <-> q)",
                "--bound",
                "1",
                "--out",
                str(tmp_path / "verdict.yaml"),
            ],
            [
                "gridworld",
                "--grid",
                str(FIXTURES / "corridor.grid"),
                "--out",
                str(tmp_path / "corridor.game"),
            ],
        )
        for argv in commands:
            outfile = Path(argv[-1])
            assert main(argv) == 0
            first_stdout = capsys.readouterr().out
            first_bytes = outfile.read_bytes()
            assert main(argv) == 0
            assert capsys.readouterr().out == first_stdout
            assert outfile.read_bytes() == first_bytes
        verdict = tmp_path / "verdict.yaml"
        text = verdict.read_text()
        assert tg.verdict_to_yaml(tg.parse_verdict(text)) == text
        generated = (tmp_path / "corridor.game").read_text()
        assert tg.game_to_yaml(tg.parse_game(generated)) == generated
        assert time.monotonic() - start < 10.0
