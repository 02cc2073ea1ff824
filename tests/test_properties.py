"""Property tests over small random games, run by hypothesis.

Settings are derandomized and use no example database, so every run
draws the same examples.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import taxgames as tg  # noqa: E402
from taxgames._graphs import strongly_connected_components  # noqa: E402
from taxgames.equilibrium import _component_means, _Responses  # noqa: E402

from helpers import (  # noqa: E402
    RESPONSE_GOALS,
    left_nested_or,
    min_mean_cycle,
    random_game,
    rational_game,
    rational_tax,
    reachable_components,
    reference_machines,
    reference_nash_sweep,
    reference_no_agent_improves,
    reference_parse,
    reference_response_value,
    simple_cycle_min_mean,
    structure,
)

DETERMINISTIC = settings(
    derandomize=True, deadline=None, database=None, max_examples=200
)


# goals whose automata keep two and four acceptance sets, so product
# vertices carry multi-bit acceptance masks
MULTI_SET_GOALS = ("(G F p) & (G F q)", "(G F p) & (G F q) & (F G p)")


@DETERMINISTIC
@given(
    rng=st.randoms(use_true_random=False),
    goals=st.tuples(*[st.sampled_from(RESPONSE_GOALS + MULTI_SET_GOALS)] * 2),
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


weights = st.integers(-6, 6)


@st.composite
def uniform_and_mixed(draw):
    """A graph on vertices 0..n-1 with two strongly connected groups, each a
    ring plus chords: the first group's internal edges all weigh one
    (possibly negative) w, the second's are drawn apart, and edges lead
    only from the first group to the second, so the groups stay two
    components."""
    n_uniform = draw(st.integers(1, 4))
    n_mixed = draw(st.integers(1, 4))
    w = draw(weights)
    uniform = list(range(n_uniform))
    mixed = list(range(n_uniform, n_uniform + n_mixed))
    edges: list[list[tuple[int, int]]] = [[] for _ in uniform + mixed]
    for group, weight in ((uniform, lambda: w), (mixed, lambda: draw(weights))):
        for i, v in enumerate(group):
            targets = {group[(i + 1) % len(group)]} | set(
                draw(st.lists(st.sampled_from(group), max_size=2))
            )
            edges[v] += [(t, weight()) for t in sorted(targets)]
    for v in draw(st.lists(st.sampled_from(uniform), max_size=2)):
        edges[v].append((draw(st.sampled_from(mixed)), draw(weights)))
    return uniform, mixed, w, edges


# objectives that tell the runs of small games apart in different ways
SWEEP_OBJECTIVES = ("p", "X q", "G F p", "!p U q")


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(
    rng=st.randoms(use_true_random=False),
    goals=st.tuples(*[st.sampled_from(RESPONSE_GOALS)] * 2),
    rational=st.booleans(),
    memory=st.integers(1, 2),
)
def test_find_ne_matches_profilewise_sweep(rng, goals, rational, memory):
    # the run-class sweep against the sweep that plays every profile from
    # scratch: the same equilibria in the same order, untaxed and taxed,
    # with no objective and with each objective.  At bound 2 one agent has
    # a single action, so the universes stay in the hundreds
    n_actions = rng.choice(((2, 1), (1, 2))) if memory == 2 else (2, 2)
    if rational:
        game = rational_game(rng, goals, n_actions)
    else:
        game = random_game(
            rng, n_states=rng.randint(1, 3), n_actions=n_actions, max_cost=2,
            goals=goals,
        )
    vocabulary = game.arena.vocabulary
    objectives = [None] + [tg.parse_ltl(text, vocabulary) for text in SWEEP_OBJECTIVES]
    for tax in (None, rational_tax(rng, game.arena)):
        responses = _Responses(game, tax)
        for objective in objectives:
            expected = list(reference_nash_sweep(responses, memory, objective))
            assert tg.find_ne(game, tax, memory, objective) == expected


# the drivers' objectives: each of them splits the equilibria of some
# small games, so both the e-nash and the a-nash paths are taken
DRIVER_OBJECTIVES = ("G F p", "F G q", "G (p -> F q)", "true")


@settings(derandomize=True, deadline=None, database=None, max_examples=24)
@given(
    seed=st.integers(0, 2**32),
    goals=st.tuples(*[st.sampled_from(RESPONSE_GOALS)] * 2),
    rational=st.booleans(),
    memory=st.integers(1, 2),
    taxed=st.booleans(),
    filtered=st.booleans(),
    objective_text=st.sampled_from(DRIVER_OBJECTIVES),
)
def test_row_refutation_keeps_every_answer(
    seed, goals, rational, memory, taxed, filtered, objective_text
):
    # find_ne, e_nash_implement and a_nash_implement against the same
    # calls with the Nash test swapped for the Fraction reference, which
    # reads no rows: rows only refute profiles that the exact test
    # refutes too.  find_ne runs untaxed or under a rational tax, with no
    # objective or with the drivers' one; the bound-2 universes stay in
    # the hundreds, as one agent has a single action
    rng = Random(seed)
    n_actions = rng.choice(((2, 1), (1, 2))) if memory == 2 else (2, 2)
    if rational:
        game = rational_game(rng, goals, n_actions)
    else:
        game = random_game(
            rng, n_states=rng.randint(1, 3), n_actions=n_actions, max_cost=2,
            goals=goals,
        )
    tax = rational_tax(rng, game.arena) if taxed else None
    objective = tg.parse_ltl(objective_text, game.arena.vocabulary)

    def answers() -> list:
        return [tg.find_ne(game, tax, memory, objective if filtered else None)] + [
            (v.answer, v.witness_tax, v.witness_profile, v.diagnostics)
            for driver in (tg.e_nash_implement, tg.a_nash_implement)
            for v in [driver(game, objective, memory)]
        ]

    library = answers()
    with pytest.MonkeyPatch.context() as patch:
        for module in (tg.equilibrium, tg.implementation):
            patch.setattr(module, "_no_agent_improves", reference_no_agent_improves)
        assert answers() == library


@DETERMINISTIC
@given(uniform_and_mixed())
def test_component_means_match_cycle_enumeration(case):
    uniform, mixed, w, edges = case
    means = {}
    successors = [[t for t, _ in out] for out in edges]
    weights = [[x for _, x in out] for out in edges]
    for members, (num, den) in _component_means(successors, weights):
        inside = set(members)
        means[frozenset(members)] = Fraction(num, den)
        sub = {v: [(t, x) for t, x in edges[v] if t in inside] for v in members}
        assert Fraction(num, den) == simple_cycle_min_mean(sub)
    assert means[frozenset(uniform)] == w
    assert frozenset(mixed) in means
    graph = {v: [(t, Fraction(x)) for t, x in out] for v, out in enumerate(edges)}
    assert min_mean_cycle(graph) == simple_cycle_min_mean(graph)


@DETERMINISTIC
@given(
    st.integers(0, 30).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, n - 1), max_size=6) if n else st.nothing(),
            min_size=n,
            max_size=n,
        )
    )
)
def test_components_match_mutual_reachability(successors):
    # drawn lists may repeat a target and name the vertex itself
    components = strongly_connected_components(successors)
    expected = reachable_components(range(len(successors)), successors.__getitem__)
    assert sorted(map(sorted, components)) == sorted(expected)
    # successors first: every edge stays inside or leads to an earlier one
    position = {v: k for k, members in enumerate(components) for v in members}
    assert all(
        position[t] <= position[v]
        for v, targets in enumerate(successors)
        for t in targets
    )


TOKENS = (
    "p", "q", "r", "pq", "true", "false", "X", "U", "F", "G",
    "!", "|", "&", "->", "<->", "<>", "[]", "(", ")", "#",
)
UNARY = ("!", "X", "F", "G", "<>", "[]")
BINARY = ("<->", "->", "|", "&", "U")


def outcome(parse, text, vocabulary):
    try:
        return parse(text, vocabulary)
    except Exception as err:  # the exception type and message are compared
        return type(err), str(err)


# Random token strings, mostly malformed, and formula texts built from the
# grammar's operators without regard to precedence, mostly well formed.
texts = st.one_of(
    st.builds(
        str.join,
        st.sampled_from((" ", "", "  ")),
        st.lists(st.sampled_from(TOKENS), max_size=14),
    ),
    st.recursive(
        st.sampled_from(("p", "q", "r", "true", "false")),
        lambda inner: st.one_of(
            st.builds("{} {}".format, st.sampled_from(UNARY), inner),
            st.builds("{} {} {}".format, inner, st.sampled_from(BINARY), inner),
            st.builds("({})".format, inner),
        ),
        max_leaves=8,
    ),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=3000)
@given(text=texts, vocabulary=st.sampled_from((None, ("p", "q"))))
def test_parser_matches_recursive_descent(text, vocabulary):
    assert outcome(tg.parse_ltl, text, vocabulary) == outcome(
        reference_parse, text, vocabulary
    )


formulas = st.recursive(
    st.sampled_from((tg.TRUE, tg.Var("p"), tg.Var("q"))),
    lambda children: st.one_of(
        st.builds(tg.Not, children),
        st.builds(tg.Next, children),
        st.builds(tg.Or, children, children),
        st.builds(tg.Until, children, children),
    ),
    max_leaves=10,
)


@DETERMINISTIC
@given(formulas)
def test_to_text_round_trip(f):
    # to_text leaves a disjunction's right disjunction unbracketed, so the
    # text reads back with `|` nested to the left
    text = tg.to_text(f)
    assert tg.parse_ltl(text) == left_nested_or(f)
    assert tg.to_text(tg.parse_ltl(text)) == text


@settings(derandomize=True, deadline=None, database=None, max_examples=1000)
@given(formulas, formulas)
def test_equality_and_hash_are_structural(f, g):
    assert (f == g) == (structure(f) == structure(g))
    assert (f != g) == (structure(f) != structure(g))
    if f == g:
        assert hash(f) == hash(g)
    copy = tg.parse_ltl(tg.to_text(left_nested_or(f)))
    assert copy == left_nested_or(f) and hash(copy) == hash(left_nested_or(f))


def test_machine_order_matches_recursive_enumeration():
    for n_actions in (1, 2, 3):
        for n_letters in (1, 2, 3):
            assert list(tg.enumerate_machines(n_actions, n_letters, 3)) == list(
                reference_machines(n_actions, n_letters, 3)
            )
