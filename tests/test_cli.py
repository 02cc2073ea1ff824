"""Tests for the command line interface and its exit codes."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

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

    def test_bad_document_is_input_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.game"
        broken.write_text("game:\n  states: [s0]\n")
        code = main(["evaluate", "--game", str(broken), "--profile", PROFILE_AC])
        assert code == 2
        assert "error:" in capsys.readouterr().err

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

    def test_missing_objective(self, capsys):
        assert main(["check", "enash", "--game", GAME, "--bound", "1"]) == 2

    def test_deep_objective_is_input_error(self, capsys):
        deep = "X " * 600 + "p"
        code = main(
            ["check", "enash", "--game", GAME, "--objective", deep, "--bound", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input nested too deeply")
        assert err.count("\n") == 1


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
