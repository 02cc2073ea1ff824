"""Tests for the command line interface and its exit codes."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import taxgames as tg
from taxgames.cli import main

FIXTURES = Path(tg.__file__).parent / "fixtures"

GAME = str(FIXTURES / "junction.game")
TAX = str(FIXTURES / "junction.tax")
PROFILE_AC = str(FIXTURES / "profile_ac.profile")
PROFILE_BD = str(FIXTURES / "profile_bd.profile")


class TestEvaluate:
    def test_untaxed_report(self, capsys):
        assert main(["evaluate", "--game", GAME, "--profile", PROFILE_AC]) == 0
        out = capsys.readouterr().out
        assert "driver1: G F p  met" in out
        assert "driver1: untaxed 0" in out

    def test_taxed_report_shows_tax_states(self, capsys):
        code = main(
            ["evaluate", "--game", GAME, "--profile", PROFILE_AC, "--tax", TAX]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tax state" in out
        assert "taxed 3" in out

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.yaml"
        code = main(
            [
                "evaluate",
                "--game",
                GAME,
                "--profile",
                PROFILE_AC,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "report:" in out.read_text()

    def test_joint_cycle_longer_than_run_cycle(self, tmp_path, capsys):
        # the run cycles s0, s2; a 3-state tax machine rotating on every
        # letter makes the joint (run step, tax state) cycle 6 steps long
        game = tg.load_game(GAME)
        rotating = tg.DynamicTax(
            outputs=tuple(
                tg.static_tax(2, {(0, 0): (q + 1, 0)}) for q in range(3)
            ),
            transitions=((1,) * 4, (2,) * 4, (0,) * 4),
        )
        tax = tmp_path / "rotating.tax"
        tax.write_text(tg.tax_to_yaml(rotating))
        out = tmp_path / "report.yaml"
        code = main(
            [
                "evaluate", "--game", GAME, "--profile", PROFILE_AC,
                "--tax", str(tax), "--out", str(out),
            ]
        )
        assert code == 0
        run = tg.evaluate(game, tg.load_profile(PROFILE_AC)).run
        assert (len(run.prefix), len(run.cycle)) == (0, 2)
        report = yaml.safe_load(out.read_text())["report"]
        assert report["run"]["prefix"] == []
        cycle = report["run"]["cycle"]
        assert [step["state"] for step in cycle] == ["s0", "s2"] * 3
        assert [step["tax_state"] for step in cycle] == [0, 1, 2] * 2
        assert [step["rates"] for step in cycle] == [
            ["1", "0"], ["0", "0"], ["3", "0"],
            ["0", "0"], ["2", "0"], ["0", "0"],
        ]
        assert report["costs"][0]["taxed"] == "1"

    def test_fixture_reports_pinned(self, tmp_path, capsys):
        # stdout and --out YAML of every fixture profile, untaxed and taxed
        digest = hashlib.sha256()
        out = tmp_path / "report.yaml"
        for name in ("ac", "ad", "bc", "bd"):
            for tax in ([], ["--tax", TAX]):
                profile = str(FIXTURES / f"profile_{name}.profile")
                argv = ["evaluate", "--game", GAME, "--profile", profile]
                assert main(argv + ["--out", str(out)] + tax) == 0
                digest.update(capsys.readouterr().out.encode())
                digest.update(out.read_bytes())
        assert digest.hexdigest() == (
            "032cd830d8bec82ca6823a2563785dc37421ae6a66eff2e2e9aceafc1c97d155"
        )

    def test_bad_document_is_input_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.game"
        broken.write_text("game:\n  states: [s0]\n")
        code = main(["evaluate", "--game", str(broken), "--profile", PROFILE_AC])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, old, new",
        [
            ("game", "cost: [2, 0]", 'cost: ["1/0", 0]'),
            ("tax", "rate: [3, 3]", 'rate: [3, "1/0"]'),
            ("grid", "grid:\n", 'grid:\n  action_costs: {stay: "1/0"}\n'),
        ],
    )
    def test_zero_denominator_is_input_error(self, tmp_path, capsys, kind, old, new):
        source = {"game": GAME, "tax": TAX, "grid": str(FIXTURES / "corridor.grid")}
        text = Path(source[kind]).read_text()
        assert old in text
        broken = tmp_path / f"broken.{kind}"
        broken.write_text(text.replace(old, new, 1))
        argv = {
            "game": ["evaluate", "--game", str(broken), "--profile", PROFILE_AC],
            "tax": ["evaluate", "--game", GAME, "--profile", PROFILE_AC,
                    "--tax", str(broken)],
            "grid": ["gridworld", "--grid", str(broken)],
        }[kind]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "zero denominator" in err
        assert err.count("\n") == 1

    def test_invalid_game_and_grid_name_every_violation(self, tmp_path, capsys):
        game = tmp_path / "bad.game"
        game.write_text(
            Path(GAME).read_text()
            .replace("cost: [2, 0]", "cost: [-2, 0]", 1)
            .replace("    s3: [q]", "    s3: [q, r]")
        )
        grid = tmp_path / "bad.grid"
        grid.write_text("grid:\n  width: 0\n  height: 1\n  robots: [[0, 0]]\n")
        for argv in (
            ["evaluate", "--game", str(game), "--profile", PROFILE_AC],
            ["gridworld", "--grid", str(grid)],
        ):
            assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: game: invalid arena: unknown-label: state s3 uses r; "
            "negative-cost: (s0, a/d) agent driver1 = -2",
            "error: grid: invalid grid spec: bad-dimensions: 0x1; "
            "robot-out-of-bounds: robot 0 at (0, 0)",
        ]

    def test_exponent_notation_is_input_error(self, tmp_path, capsys):
        text = Path(GAME).read_text()
        huge = tmp_path / "huge.game"
        huge.write_text(text.replace("cost: [2, 0]", 'cost: ["1e999999999", 0]', 1))
        start = time.monotonic()
        assert main(["evaluate", "--game", str(huge), "--profile", PROFILE_AC]) == 2
        assert time.monotonic() - start < 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "exponent notation" in err[0]

    def test_profile_arena_mismatch(self, tmp_path, capsys):
        narrow = tmp_path / "narrow.profile"
        narrow.write_text(
            "profile:\n  machines:\n"
            "    - {outputs: [0], transitions: [[0, 0]]}\n"
            "    - {outputs: [0], transitions: [[0, 0]]}\n"
        )
        code = main(["evaluate", "--game", GAME, "--profile", str(narrow)])
        assert code == 2


class TestCheck:
    def test_ne_yes(self, capsys):
        code = main(["check", "ne", "--game", GAME, "--profile", PROFILE_AC])
        assert code == 0
        assert "equilibrium: yes" in capsys.readouterr().out

    def test_ne_no(self, capsys):
        code = main(["check", "ne", "--game", GAME, "--profile", PROFILE_BD])
        assert code == 3

    def test_ne_under_tax(self, capsys):
        code = main(
            [
                "check",
                "ne",
                "--game",
                GAME,
                "--profile",
                PROFILE_AC,
                "--tax",
                TAX,
            ]
        )
        assert code == 3

    def test_ne_on_uncovered_cell_is_one_input_error(self, tmp_path, capsys):
        # s1 has no outgoing transition: one error line names both its cells
        path = tmp_path / "holed.game"
        path.write_text(
            "game:\n"
            "  states: [s0, s1]\n"
            "  initial: s0\n"
            "  labels: {s0: [p]}\n"
            "  agents:\n"
            "    - {name: a, actions: [x]}\n"
            "  transitions:\n"
            "    - {from: s0, when: [x], to: s1, cost: [0]}\n"
            "  goals: [G F p]\n"
        )
        code = main(["check", "ne", "--game", str(path), "--profile", PROFILE_AC])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: game: arena is not total: "
            "missing-transition: (s1, x); missing-cost: (s1, x)"
        ]

    def test_anash_yes_writes_verdict(self, tmp_path, capsys):
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
        printed = capsys.readouterr().out
        assert "answer: yes" in printed
        assert "objective: G (p <-> q)" in printed
        verdict = tg.load_verdict(out)
        assert verdict.answer == "yes"
        assert verdict.witness_tax is not None

    def test_enash_no_within_bound(self, capsys):
        code = main(
            [
                "check",
                "enash",
                "--game",
                GAME,
                "--objective",
                "G !p",
                "--bound",
                "1",
            ]
        )
        assert code == 3

    def test_profile_cap_is_resource_exit(self, capsys):
        code = main(
            [
                "check",
                "enash",
                "--game",
                GAME,
                "--objective",
                "G (p <-> q)",
                "--bound",
                "1",
                "--cap-profiles",
                "2",
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("flag", ["--cap-states", "--cap-profiles"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cap_below_one_is_input_error(self, capsys, flag, value):
        code = main(
            [
                "check",
                "anash",
                "--game",
                GAME,
                "--objective",
                "G (p <-> q)",
                flag,
                value,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag} must be at least 1\n"

    def test_missing_objective(self, capsys):
        assert main(["check", "enash", "--game", GAME, "--bound", "1"]) == 2

    def test_deep_parenthesised_objective_gets_a_verdict(self, capsys):
        deep = "(" * 300 + "p" + ")" * 300
        code = main(
            ["check", "enash", "--game", GAME, "--objective", deep, "--bound", "1"]
        )
        assert code == 3
        assert "answer: no-within-bound" in capsys.readouterr().out

    def test_deep_objective_gets_a_verdict(self, capsys):
        deep = "X " * 600 + "p"
        code = main(
            ["check", "enash", "--game", GAME, "--objective", deep, "--bound", "1"]
        )
        assert code == 3
        assert "answer: no-within-bound" in capsys.readouterr().out


    def test_many_joint_letters_get_a_verdict(self, tmp_path, capsys):
        # 4 agents with 6 actions each: 1,296 letters per machine row
        actions = "[" + ", ".join(f"x{i}" for i in range(6)) + "]"
        path = tmp_path / "wide.game"
        path.write_text(
            "\n".join(
                [
                    "game:",
                    "  states: [s0]",
                    "  initial: s0",
                    "  vocabulary: [p]",
                    "  labels: {s0: [p]}",
                    "  agents:",
                    *[f"    - {{name: a{i}, actions: {actions}}}" for i in range(4)],
                    "  transitions:",
                    '    - {from: "*", when: ["*", "*", "*", "*"], to: s0,'
                    " cost: [0, 0, 0, 0]}",
                    "  goals: [G F p, G F p, G F p, G F p]",
                ]
            )
        )
        code = main(
            ["check", "enash", "--game", str(path), "--objective", "G p"]
        )
        assert code in (0, 3)
        assert "answer: " in capsys.readouterr().out

    def test_deeply_nested_document_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.game"
        path.write_text("game: " + "[" * 3000 + "]" * 3000)
        code = main(["check", "enash", "--game", str(path), "--objective", "p"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid yaml: ")


# Deep documents run in a child process, so that a crashing loader fails the
# test instead of killing pytest.
DEEP_DOCUMENTS = {
    "flow": lambda n: "game: " + "[" * n + "]" * n,
    "compact-block": lambda n: "game:\n" + "- " * n + "p\n",
}


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(DEEP_DOCUMENTS[shape](n), id=f"{shape}-{n}")
        for shape in DEEP_DOCUMENTS
        for n in (40_000, 100_000)
    ]
    + [pytest.param("game: " + '["]", ' * 40_000 + "]" * 40_000, id="quoted-brackets")],
)
def test_deep_document_exits_2_in_a_process(tmp_path, text):
    path = tmp_path / "deep.game"
    path.write_text(text)
    env = dict(os.environ)
    src = str(Path(tg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "taxgames.cli", "check", "enash"]
        + ["--game", str(path), "--objective", "p"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 2
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid yaml: nested too deeply")


class TestGridworld:
    def test_prints_generated_game(self, capsys):
        code = main(["gridworld", "--grid", str(FIXTURES / "corridor.grid")])
        assert code == 0
        text = capsys.readouterr().out
        game = tg.parse_game(text)
        assert game.arena.n_states == 8

    def test_out_summary(self, tmp_path, capsys):
        out = tmp_path / "corridor.game"
        code = main(
            [
                "gridworld",
                "--grid",
                str(FIXTURES / "corridor.grid"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "8 states" in capsys.readouterr().out
        assert out.exists()


class TestVerify:
    def run_anash(self, tmp_path) -> Path:
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
        return out

    def test_good_witness(self, tmp_path, capsys):
        out = self.run_anash(tmp_path)
        assert main(["verify", "--game", GAME, "--verdict", str(out)]) == 0
        assert "witness verified" in capsys.readouterr().out

    def test_tampered_witness(self, tmp_path, capsys):
        out = self.run_anash(tmp_path)
        verdict = tg.load_verdict(out)
        cut_through = tg.parse_profile(
            Path(PROFILE_AC).read_text()
        )
        bad = replace(verdict, witness_profile=cut_through)
        out.write_text(tg.verdict_to_yaml(bad))
        code = main(["verify", "--game", GAME, "--verdict", str(out)])
        assert code == 5
        assert "failure:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tax",
        [
            tg.DynamicTax(outputs=(tg.zero_tax(2),), transitions=((0, 0),)),
            tg.lift_static(tg.zero_tax(3), 4),
            tg.lift_static(tg.static_tax(2, {(99, 0): (1, 1)}), 4),
        ],
        ids=["two-letters", "three-agents", "unknown-cell"],
    )
    def test_mismatched_witness_tax(self, tmp_path, capsys, tax):
        out = self.run_anash(tmp_path)
        verdict = tg.load_verdict(out)
        out.write_text(tg.verdict_to_yaml(replace(verdict, witness_tax=tax)))
        capsys.readouterr()
        code = main(["verify", "--game", GAME, "--verdict", str(out)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: tax ")

    def test_bad_witness_profile_names_its_path(self, tmp_path, capsys):
        out = self.run_anash(tmp_path)
        verdict = tg.load_verdict(out)
        machines = verdict.witness_profile.machines
        broken = tg.StrategyMachine(outputs=(0,), transitions=((0, 0, 7, 0),))
        bad = replace(
            verdict, witness_profile=tg.Profile((machines[0], broken))
        )
        out.write_text(tg.verdict_to_yaml(bad))
        capsys.readouterr()
        assert main(["verify", "--game", GAME, "--verdict", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: verdict.witness_profile.machines[1].transitions[0][2] "
            "is 7, want 0..0"
        ]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cap_below_one_is_input_error(self, tmp_path, capsys, value):
        out = self.run_anash(tmp_path)
        capsys.readouterr()
        code = main(
            ["verify", "--game", GAME, "--verdict", str(out), "--cap-profiles", value]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --cap-profiles must be at least 1\n"

    def test_witnessless_verdict(self, tmp_path, capsys):
        text = "\n".join(
            [
                "verdict:",
                "  problem: enash",
                "  answer: no-within-bound",
                "  bound: 1",
                "  objective: G !p",
            ]
        )
        path = tmp_path / "no_witness.yaml"
        path.write_text(text)
        assert main(["verify", "--game", GAME, "--verdict", str(path)]) == 2


@pytest.mark.parametrize(
    "command",
    [
        ["check", "enash", "--game", GAME, "--objective", "G F p"],
        ["evaluate", "--game", GAME, "--profile", PROFILE_AC],
        ["gridworld", "--grid", str(FIXTURES / "corridor.grid")],
    ],
    ids=["check", "evaluate", "gridworld"],
)
def test_unwritable_out_is_input_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.yaml"
    assert main(command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")
    assert not out.exists()


HUGE_TAX = """\
tax:
  agents: 2
  arena_states: 1000000000000
  letters: 4
  rates:
    - {state: "*", letter: 0, rate: [1, 1]}
"""

HUGE_VERDICT = """\
verdict:
  problem: anash
  answer: "yes"
  bound: 1
  objective: G (p <-> q)
  witness_tax:
    agents: 2
    arena_states: 1000000000000
    letters: 4
    rates:
      - {state: "*", letter: 0, rate: [1, 1]}
"""


@pytest.mark.parametrize(
    "command, where",
    [
        (["check", "ne", "--game", GAME, "--profile", PROFILE_AC, "--tax"], "tax"),
        (["evaluate", "--game", GAME, "--profile", PROFILE_AC, "--tax"], "tax"),
        (["verify", "--game", GAME, "--verdict"], "verdict.witness_tax"),
    ],
    ids=["check-ne", "evaluate", "verify"],
)
def test_tax_declaring_another_arena_is_rejected_before_expanding(
    tmp_path, capsys, command, where
):
    # a state wildcard over 10**12 declared states would never finish
    path = tmp_path / "huge.yaml"
    path.write_text(HUGE_TAX if command[0] != "verify" else HUGE_VERDICT)
    start = time.monotonic()
    assert main(command + [str(path)]) == 2
    assert time.monotonic() - start < 5
    assert capsys.readouterr().err.splitlines() == [
        f"error: {where}.arena_states is 1000000000000, the game has 4"
    ]
