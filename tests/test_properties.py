"""Property tests over small random games, run by hypothesis.

Settings are derandomized and use no example database, so every run
draws the same examples.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import taxgames as tg  # noqa: E402

from helpers import (  # noqa: E402
    RESPONSE_GOALS,
    random_game,
    rational_tax,
    reference_response_value,
)

DETERMINISTIC = settings(
    derandomize=True, deadline=None, database=None, max_examples=200
)


@DETERMINISTIC
@given(
    rng=st.randoms(use_true_random=False),
    goals=st.tuples(*[st.sampled_from(RESPONSE_GOALS)] * 2),
    n_states=st.integers(1, 3),
    memory=st.integers(1, 2),
    taxed=st.booleans(),
)
def test_best_response_equals_unguarded_product(
    rng, goals, n_states, memory, taxed
):
    game = random_game(rng, n_states=n_states, max_cost=4, goals=goals)
    arena = game.arena
    machines = list(tg.enumerate_machines(2, arena.n_letters, memory))
    profile = tg.Profile((rng.choice(machines), rng.choice(machines)))
    tax = rational_tax(rng, arena) if taxed else None
    for agent in (0, 1):
        assert tg.best_response(game, profile, agent, tax) == (
            reference_response_value(game, profile, agent, tax)
        )
