"""Tests for strategy machines, run generation, and canonical enumeration."""

from __future__ import annotations

import pytest

import taxgames as tg

from helpers import (
    constant_machine,
    constant_profile,
    junction_game,
    raw_machines,
    reference_canonical,
    run_at,
)


def simulate(arena: tg.Arena, profile: tg.Profile, steps: int):
    """Step-by-step reference simulation, no lasso detection."""
    state = arena.initial
    memories = [0] * len(profile.machines)
    out = []
    for _ in range(steps):
        actions = [m.outputs[q] for m, q in zip(profile.machines, memories)]
        letter = arena.letter_of(actions)
        out.append((state, letter))
        nxt = arena.transition[state][letter]
        memories = [
            m.transitions[q][letter] for m, q in zip(profile.machines, memories)
        ]
        state = nxt
    return out


class TestRuns:
    def test_run_matches_step_simulation(self):
        arena = junction_game().arena
        m1 = tg.StrategyMachine(
            outputs=(0, 1), transitions=((1, 1, 1, 1), (0, 0, 0, 0))
        )
        m2 = constant_machine(1, 4)
        profile = tg.Profile((m1, m2))
        run = tg.generate_run(arena, profile)
        total = len(run.prefix) + len(run.cycle)
        wrap = len(run.prefix)
        for k, expected in enumerate(simulate(arena, profile, 24)):
            pos = k if k < total else wrap + (k - wrap) % (total - wrap)
            assert run_at(run, pos) == expected
        # a run reads no cost, so re-costing the game leaves it alone
        free = tg.zero_cost_game(junction_game()).arena
        assert tg.generate_run(free, profile) == run

    def test_constant_profile_two_step_loop(self):
        arena = junction_game().arena
        run = tg.lasso_canonical(
            tg.generate_run(arena, constant_profile(arena, [0, 0]))
        )
        assert len(run.prefix) == 0
        assert [s.state for s in run.cycle] == [0, 2]

    def test_alphabet_mismatch_rejected(self):
        arena = junction_game().arena
        bad = tg.Profile((constant_machine(0, 3), constant_machine(0, 4)))
        with pytest.raises(tg.AlphabetMismatchError):
            tg.check_profile(arena, bad)

    def test_output_out_of_range_rejected(self):
        arena = junction_game().arena
        bad = tg.Profile((constant_machine(5, 4), constant_machine(0, 4)))
        with pytest.raises(tg.AlphabetMismatchError):
            tg.check_profile(arena, bad)


class TestCanonicalLasso:
    def test_prefix_tail_absorbed(self):
        arena = junction_game().arena
        # one-shot machine: plays b then a forever, against constant c
        m1 = tg.StrategyMachine(
            outputs=(1, 0), transitions=((1, 1, 1, 1), (1, 1, 1, 1))
        )
        profile = tg.Profile((m1, constant_machine(0, 4)))
        run = tg.lasso_canonical(tg.generate_run(arena, profile))
        # raw run is s0 -bc-> s1 -ac-> s0 -ac-> s2 -ac-> s0 ... ; the
        # canonical split keeps the one-off prefix only
        assert [s.state for s in run.prefix] == [0, 1]
        assert [s.state for s in run.cycle] == [0, 2]

    def test_minimal_period(self):
        arena = junction_game().arena
        run = tg.generate_run(arena, constant_profile(arena, [0, 1]))
        doubled = tg.LassoRun(prefix=run.prefix, cycle=run.cycle + run.cycle)
        assert tg.lasso_canonical(doubled) == tg.lasso_canonical(run)


class TestCanonicalizeMachine:
    def test_drops_unreachable(self):
        machine = tg.StrategyMachine(
            outputs=(0, 1, 0), transitions=((0, 0), (2, 2), (1, 1))
        )
        small = tg.canonicalize_machine(machine)
        assert small.n_states == 1
        assert small.outputs == (0,)

    def test_renumbers_by_first_reference(self):
        machine = tg.StrategyMachine(
            outputs=(0, 2, 1), transitions=((2, 1), (1, 1), (2, 2))
        )
        fixed = tg.canonicalize_machine(machine)
        assert fixed == reference_canonical(machine)

    def test_preserves_behavior(self):
        arena = junction_game().arena
        machine = tg.StrategyMachine(
            outputs=(0, 1, 0),
            transitions=((2, 2, 2, 2), (0, 0, 0, 0), (0, 1, 0, 1)),
        )
        profile = tg.Profile((machine, constant_machine(0, 4)))
        fixed = tg.Profile(
            (tg.canonicalize_machine(machine), constant_machine(0, 4))
        )
        assert tg.lasso_canonical(
            tg.generate_run(arena, profile)
        ) == tg.lasso_canonical(tg.generate_run(arena, fixed))


class TestEnumeration:
    def brute_set(self, n_actions, n_letters, bound):
        return {
            reference_canonical(m)
            for m in raw_machines(n_actions, n_letters, bound)
        }

    def test_matches_brute_force_small(self):
        for n_actions, n_letters, bound in [
            (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 4, 2), (2, 3, 2),
        ]:
            mine = list(tg.enumerate_machines(n_actions, n_letters, bound))
            brute = self.brute_set(n_actions, n_letters, bound)
            assert len(mine) == len(set(mine)), "enumeration emitted a duplicate"
            assert set(mine) == brute, (n_actions, n_letters, bound)

    def test_junction_universe_size(self):
        # 2 one-state machines plus 240 reachable two-state structures
        # times 4 output choices
        machines = list(tg.enumerate_machines(2, 4, 2))
        assert len(machines) == 962

    def test_all_emitted_machines_canonical(self):
        for machine in tg.enumerate_machines(2, 3, 2):
            assert reference_canonical(machine) == machine

    def test_profile_enumeration_counts(self):
        arena = junction_game().arena
        profiles = list(tg.enumerate_profiles(arena, 1))
        assert len(profiles) == 4
        assert all(isinstance(p, tg.Profile) for p in profiles)

    def test_profile_cap(self):
        arena = junction_game().arena
        with pytest.raises(tg.ResourceLimitError):
            list(tg.enumerate_profiles(arena, 2, cap=10))


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(
            tg.LassoRun(prefix=(), cycle=(tg.RunStep(7, 0),)), id="state-outside"
        ),
        pytest.param(
            tg.LassoRun(prefix=(), cycle=(tg.RunStep(0, 99),)), id="letter-outside"
        ),
        pytest.param(
            tg.LassoRun(prefix=(tg.RunStep(0, 0),), cycle=()), id="empty-cycle"
        ),
    ],
)
def test_run_that_does_not_fit_the_game_is_rejected(run):
    # the two readers of a run check it with check_run
    game = junction_game()
    with pytest.raises(ValueError, match="run"):
        tg.taxed_cost(game, run, None, 0)
    with pytest.raises(ValueError, match="run"):
        tg.label_trace(game.arena, run)
    with pytest.raises(ValueError, match="run"):
        tg.check_run(game.arena, run)
