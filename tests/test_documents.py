"""Tests for the YAML document formats and their round-trip stability."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

import taxgames as tg

FIXTURES = Path(tg.__file__).parent / "fixtures"


def roundtrip_game(text: str) -> str:
    return tg.game_to_yaml(tg.parse_game(text))


class TestGameDocuments:
    def test_fixture_parses(self):
        game = tg.load_game(FIXTURES / "junction.game")
        assert game.arena.n_states == 4
        assert game.arena.agents == ("driver1", "driver2")

    def test_round_trip_is_fixed_point(self):
        text = (FIXTURES / "junction.game").read_text()
        once = roundtrip_game(text)
        assert roundtrip_game(once) == once

    def test_wildcards_resolve_by_specificity(self):
        game = tg.load_game(FIXTURES / "junction.game")
        # the catch-all reset loses to every fully concrete entry
        assert game.arena.transition[0][0] == 2
        assert game.arena.transition[1][0] == 0

    def test_equal_specificity_conflict(self):
        text = (FIXTURES / "junction.game").read_text()
        reset = '    - {from: "*", when: ["*", "*"], to: s0, cost: [0, 0]}'
        rival = '    - {from: "*", when: ["*", "*"], to: s1, cost: [1, 1]}'
        with pytest.raises(tg.DocumentError) as err:
            tg.parse_game(text.replace(reset, reset + "\n" + rival))
        assert "conflict" in str(err.value)

    def test_floats_rejected(self):
        text = (FIXTURES / "junction.game").read_text()
        with pytest.raises(tg.DocumentError):
            tg.parse_game(text.replace("cost: [2, 0]", "cost: [2.5, 0]"))

    def test_fraction_costs_survive(self):
        text = (FIXTURES / "junction.game").read_text()
        game = tg.parse_game(text.replace("cost: [2, 0]", 'cost: ["1/3", 0]'))
        assert Fraction(1, 3) in {
            c for row in game.arena.cost for cell in row for c in cell
        }

    def test_unknown_key_rejected(self):
        text = (FIXTURES / "junction.game").read_text()
        injected = text.replace("game:", "game:\n  extra_field: 1")
        with pytest.raises(tg.DocumentError) as err:
            tg.parse_game(injected)
        assert "extra_field" in str(err.value)

    def test_validation_diagnostics_surface(self):
        text = "\n".join(
            [
                "game:",
                "  states: [s0, s1]",
                "  initial: s0",
                "  labels: {s0: [p]}",
                "  agents:",
                "    - {name: a, actions: [x]}",
                "  transitions:",
                "    - {from: s0, when: [x], to: s1, cost: [0]}",
                "  goals: [G F p]",
            ]
        )
        with pytest.raises(tg.DocumentError) as err:
            tg.parse_game(text)
        assert "s1" in str(err.value)  # s1 has no outgoing transition

    def test_labels_of_unknown_state_rejected(self):
        text = (FIXTURES / "junction.game").read_text()
        with pytest.raises(tg.DocumentError) as err:
            tg.parse_game(text.replace("    s3: [q]", "    s3: [q]\n    s9: [p]"))
        assert "s9" in str(err.value)

    def test_duplicate_agent_names_rejected(self):
        text = "\n".join(
            [
                "game:",
                "  states: [s0]",
                "  initial: s0",
                "  labels: {s0: [p]}",
                "  agents:",
                "    - {name: a, actions: [x, y]}",
                "    - {name: a, actions: [u, v, w]}",
                "  transitions:",
                '    - {from: s0, when: ["*", "*"], to: s0, cost: [0, 0]}',
                "  goals: [G F p, G F p]",
            ]
        )
        with pytest.raises(tg.DocumentError) as err:
            tg.parse_game(text)
        assert "duplicate agent" in str(err.value)


class TestProfileDocuments:
    def test_fixture_round_trip(self):
        text = (FIXTURES / "profile_ac.profile").read_text()
        profile = tg.parse_profile(text)
        dumped = tg.profile_to_yaml(profile)
        assert tg.profile_to_yaml(tg.parse_profile(dumped)) == dumped

    def test_machines_canonicalized_on_load(self):
        # an unreachable second state disappears
        text = "\n".join(
            [
                "profile:",
                "  machines:",
                "    - outputs: [0, 1]",
                "      transitions: [[0, 0], [1, 1]]",
                "    - outputs: [0]",
                "      transitions: [[0, 0]]",
            ]
        )
        profile = tg.parse_profile(text)
        assert profile.machines[0].n_states == 1

    def test_ragged_rows_rejected(self):
        text = "\n".join(
            [
                "profile:",
                "  machines:",
                "    - outputs: [0]",
                "      transitions: [[0, 0, 0]]",
                "    - outputs: [0]",
                "      transitions: [[0, 0]]",
            ]
        )
        with pytest.raises(tg.DocumentError):
            tg.parse_profile(text)


class TestTaxDocuments:
    def test_static_round_trip(self):
        text = "\n".join(
            [
                "tax:",
                "  agents: 2",
                "  rates:",
                "    - {state: 2, letter: 0, rate: [3, 3]}",
                '    - {state: 2, letter: 1, rate: ["1/2", 0]}',
            ]
        )
        tax = tg.parse_tax(text)
        assert isinstance(tax, tg.StaticTax)
        dumped = tg.tax_to_yaml(tax)
        assert tg.tax_to_yaml(tg.parse_tax(dumped)) == dumped

    def test_machine_fixture_round_trip(self):
        text = (FIXTURES / "junction.tax").read_text()
        tax = tg.parse_tax(text)
        assert isinstance(tax, tg.DynamicTax)
        assert tax.n_states == 3
        dumped = tg.tax_to_yaml(tax)
        assert tg.tax_to_yaml(tg.parse_tax(dumped)) == dumped

    def test_wildcards_need_declared_shape(self):
        text = "\n".join(
            [
                "tax:",
                "  agents: 2",
                "  rates:",
                '    - {state: "*", letter: 0, rate: [1, 1]}',
            ]
        )
        with pytest.raises(tg.DocumentError):
            tg.parse_tax(text)

    def test_negative_rate_rejected(self):
        text = "\n".join(
            [
                "tax:",
                "  agents: 2",
                "  rates:",
                "    - {state: 0, letter: 0, rate: [-1, 0]}",
            ]
        )
        with pytest.raises(tg.DocumentError):
            tg.parse_tax(text)


class TestGridDocuments:
    def test_fixture_round_trips(self):
        for name in ("corridor.grid", "orchard.grid"):
            text = (FIXTURES / name).read_text()
            spec = tg.parse_grid(text)
            dumped = tg.grid_to_yaml(spec)
            assert tg.grid_to_yaml(tg.parse_grid(dumped)) == dumped

    def test_robot_off_board_rejected(self):
        text = "\n".join(
            [
                "grid:",
                "  width: 2",
                "  height: 1",
                "  robots: [[5, 0]]",
            ]
        )
        with pytest.raises(tg.DocumentError):
            tg.parse_grid(text)


class TestVerdictDocuments:
    def test_round_trip_with_witnesses(self):
        game = tg.load_game(FIXTURES / "junction.game")
        objective = tg.parse_ltl("G (p <-> q)", game.arena.vocabulary)
        verdict = tg.a_nash_implement(game, objective, 1)
        dumped = tg.verdict_to_yaml(verdict)
        reparsed = tg.parse_verdict(dumped)
        assert tg.verdict_to_yaml(reparsed) == dumped
        assert reparsed.answer == "yes"
        assert reparsed.witness_profile == verdict.witness_profile

    def test_bad_answer_rejected(self):
        text = "\n".join(
            [
                "verdict:",
                "  problem: ne",
                "  answer: maybe",
                "  bound: 1",
                "  objective: true",
            ]
        )
        with pytest.raises(tg.DocumentError):
            tg.parse_verdict(text)
