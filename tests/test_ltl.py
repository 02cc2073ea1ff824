"""Tests for the temporal logic core: parsing, lasso evaluation, automata."""

from __future__ import annotations

import time

import pytest

import taxgames as tg
from taxgames.ltl import FALSE, TRUE

from helpers import (
    buchi_accepts_lasso,
    buchi_successors,
    junction_game,
    oracle_eval,
)

p, q = tg.Var("p"), tg.Var("q")


def trace(prefix, cycle):
    return tg.LabelTrace(
        prefix=tuple(frozenset(x) for x in prefix),
        cycle=tuple(frozenset(x) for x in cycle),
    )


# ======================== Parsing ========================

DEPTH = 10_000

# (text, its to_text rendering, an equivalent shallow formula)
DEEP = {
    "parentheses": ("(" * DEPTH + "p" + ")" * DEPTH, "p", "p"),
    "not": ("!" * DEPTH + "p", "!" * DEPTH + "p", "p"),
    "next": ("X " * DEPTH + "p", "X " * DEPTH + "p", None),
    "implies": (
        " -> ".join(["p"] * (DEPTH + 1)), "!p | " * DEPTH + "p", "true"
    ),
    "until": (" U ".join(["p"] * (DEPTH + 1)),) * 2 + ("p",),
    "or": (" | ".join(["p"] * (DEPTH + 1)),) * 2 + ("p",),
}


class TestParsing:
    def test_atoms(self):
        assert tg.parse_ltl("p") == p
        assert tg.parse_ltl("true") == TRUE
        assert tg.parse_ltl("false") == FALSE

    def test_unary_chain(self):
        assert tg.parse_ltl("! X p") == tg.Not(tg.Next(p))

    def test_until_right_associative(self):
        assert tg.parse_ltl("p U q U p") == tg.Until(p, tg.Until(q, p))

    def test_or_binds_looser_than_until(self):
        assert tg.parse_ltl("p U q | q") == tg.Or(tg.Until(p, q), q)

    def test_and_desugars(self):
        assert tg.parse_ltl("p & q") == tg.and_(p, q)

    def test_implication_right_associative(self):
        f = tg.parse_ltl("p -> q -> p")
        assert f == tg.implies(p, tg.implies(q, p))

    def test_iff(self):
        assert tg.parse_ltl("p <-> q") == tg.iff(p, q)

    def test_eventually_always(self):
        assert tg.parse_ltl("F p") == tg.eventually(p)
        assert tg.parse_ltl("G p") == tg.always(p)
        assert tg.parse_ltl("<> p") == tg.eventually(p)
        assert tg.parse_ltl("[] p") == tg.always(p)

    def test_parentheses(self):
        assert tg.parse_ltl("p U (q | p)") == tg.Until(p, tg.Or(q, p))

    def test_vocabulary_enforced(self):
        with pytest.raises(tg.UnknownVariableError):
            tg.parse_ltl("r", vocabulary=("p", "q"))
        assert tg.parse_ltl("p", vocabulary=("p",)) == p

    def test_reserved_words_rejected_as_names(self):
        with pytest.raises(tg.LtlSyntaxError):
            tg.parse_ltl("U")

    def test_trailing_garbage(self):
        with pytest.raises(tg.LtlSyntaxError):
            tg.parse_ltl("p q")

    def test_empty(self):
        with pytest.raises(tg.LtlSyntaxError):
            tg.parse_ltl("")

    def test_to_text_round_trip(self):
        samples = [
            "p", "! p", "p U q", "X (p | q)", "p & q", "G F p",
            "p -> q", "p <-> q", "! (p U ! q)", "F (p & X q)",
        ]
        for text in samples:
            f = tg.parse_ltl(text)
            assert tg.parse_ltl(tg.to_text(f)) == f

    def test_variables(self):
        assert tg.variables(tg.parse_ltl("p U (q & X p)")) == {"p", "q"}

    def test_subformulas_deduplicated(self):
        f = tg.Or(p, p)
        subs = tg.subformulas(f)
        assert subs.count(p) == 1 and f in subs


@pytest.mark.parametrize("shape", list(DEEP))
class TestDeepFormulas:
    """10,000 levels: no parse, walk, render, hash or comparison recurses."""

    def test_parse_render_hash_compare(self, shape):
        text, rendered, _ = DEEP[shape]
        f, copy = tg.parse_ltl(text), tg.parse_ltl(text)
        assert f == copy and hash(f) == hash(copy)
        assert f != tg.parse_ltl(text.replace("p", "q", 1))
        assert tg.to_text(f) == rendered
        assert tg.to_text(tg.parse_ltl(rendered)) == rendered
        assert repr(f) == f"<{type(f).__name__} {rendered}>"
        assert rendered in repr(tg.make_game(junction_game().arena, [text, "G F p"]))

    def test_evaluates(self, shape):
        text, _, shallow = DEEP[shape]
        f = tg.parse_ltl(text)
        for t in (
            trace([{"p"}], [{}]), trace([], [{}, {"p"}]), trace([{}], [{"p"}])
        ):
            # X^10000 p reads position 10000, the first cycle position of
            # each of these traces
            expected = (
                "p" in (t.prefix + t.cycle)[len(t.prefix)]
                if shallow is None
                else tg.eval_on_lasso(tg.parse_ltl(shallow), t)
            )
            assert tg.eval_on_lasso(f, t) == expected

    def test_find_ne_answers(self, shape):
        text, _, shallow = DEEP[shape]
        arena = junction_game().arena
        deep = tg.make_game(arena, [text, "G F p"])
        # every junction run is in the unlabelled s0 at each even position,
        # so X^10000 p holds on no run, as p does not
        shallow_game = tg.make_game(arena, [shallow or "p", "G F p"])
        start = time.monotonic()
        try:
            answer = tg.find_ne(deep, None, 1)
        except tg.ResourceLimitError:
            # a 10,000-deep until chain may stop at the automaton cap, fast
            assert shape == "until" and time.monotonic() - start < 5.0
        else:
            assert answer == tg.find_ne(shallow_game, None, 1)


class TestCompile:
    def test_compiled_once_per_formula(self, monkeypatch):
        f = tg.parse_ltl("G (p -> F q) | X (p U q)")
        assert tg.ltl._compile(f) is tg.ltl._compile(f)
        built = []
        program = tg.ltl._Program

        def counting(*args):
            built.append(args)
            return program(*args)

        monkeypatch.setattr(tg.ltl, "_Program", counting)
        g = tg.parse_ltl("G (p -> F q)")
        letters = [set(), {"p"}, {"q"}, {"p", "q"}]
        traces = [
            trace([letters[k % 4]], [letters[k // 4 % 4], letters[k % 3]])
            for k in range(20)
        ]
        verdicts = [tg.eval_on_lasso(g, t) for t in traces]
        assert len(built) == 1
        assert verdicts == [oracle_eval(g, t) for t in traces]
        assert True in verdicts and False in verdicts

    def test_subformulas_list_is_a_copy(self):
        f = tg.parse_ltl("p U X q")
        t = trace([{"p"}], [{"q"}, {}])
        before = (tg.eval_on_lasso(f, t), tg.to_buchi(f, ("p", "q")))
        subs = tg.subformulas(f)
        subs.reverse()
        subs[0] = TRUE
        assert tg.subformulas(f) != subs
        assert (tg.eval_on_lasso(f, t), tg.to_buchi(f, ("p", "q"))) == before


# ======================== Lasso evaluation ========================


class TestEvalOnLasso:
    def test_var_first_position(self):
        assert tg.eval_on_lasso(p, trace([], [{"p"}]))
        assert not tg.eval_on_lasso(p, trace([{}], [{"p"}]))

    def test_next_wraps(self):
        # single-letter cycle: X p is p
        assert tg.eval_on_lasso(tg.Next(p), trace([], [{"p"}]))
        assert not tg.eval_on_lasso(tg.Next(p), trace([{"p"}], [{}]))

    def test_until_on_cycle(self):
        f = tg.parse_ltl("p U q")
        assert tg.eval_on_lasso(f, trace([{"p"}], [{"q"}]))
        assert not tg.eval_on_lasso(f, trace([{"p"}], [{}]))

    def test_always_eventually(self):
        f = tg.parse_ltl("G F p")
        assert tg.eval_on_lasso(f, trace([{}], [{}, {"p"}]))
        assert not tg.eval_on_lasso(f, trace([{"p"}], [{}]))

    def test_eventually_always(self):
        f = tg.parse_ltl("F G p")
        assert tg.eval_on_lasso(f, trace([{}], [{"p"}]))
        assert not tg.eval_on_lasso(f, trace([{"p"}], [{}, {"p"}]))

    def test_prefix_independent_of_cycle_rotation_for_gf(self):
        f = tg.parse_ltl("G F (p & q)")
        assert tg.eval_on_lasso(f, trace([], [{"p", "q"}, {}]))
        assert tg.eval_on_lasso(f, trace([], [{}, {"p", "q"}]))

    def test_matches_oracle_on_handmade_suite(self):
        formulas = [
            "p", "! p", "X p", "X X q", "p U q", "q U p",
            "F p", "G p", "G F p", "F G q", "p U (q U p)",
            "! (p U q)", "G (p -> X q)", "F (p & X q)", "p <-> X p",
        ]
        traces = [
            trace([], [{}]),
            trace([], [{"p"}]),
            trace([{"p"}], [{}]),
            trace([{"p"}, {"q"}], [{"p", "q"}]),
            trace([], [{"p"}, {}]),
            trace([{}], [{"q"}, {"p"}, {}]),
            trace([{"q"}, {}], [{}, {"p"}]),
        ]
        for text in formulas:
            f = tg.parse_ltl(text)
            for t in traces:
                assert tg.eval_on_lasso(f, t) == oracle_eval(f, t), (text, t)


    def test_deep_formula(self):
        # X applied 600 times reads position 600 of the word
        f = tg.parse_ltl("X " * 600 + "p")
        for prefix, cycle in (
            ([], [{"p"}]),
            ([{"p"}], [{}]),
            ([{}], [{}, {"p"}]),
            ([{"p"}, {}], [{}, {}, {"p"}]),
            ([{}] * 600, [{"p"}, {}]),
        ):
            t = trace(prefix, cycle)
            at = 600 if 600 < len(prefix) else (
                len(prefix) + (600 - len(prefix)) % len(cycle)
            )
            letters = t.prefix + t.cycle
            assert tg.eval_on_lasso(f, t) == ("p" in letters[at]), (prefix, cycle)

    def test_shared_operands(self):
        # <-> repeats its operands, so the chain is a DAG whose tree
        # unfolding doubles with every link
        f = p
        for k in range(1, 24):
            f = tg.iff(f, (p, q)[k % 2])
        auto = tg.to_buchi(f, vocabulary=("p", "q"))
        letters = [frozenset(), frozenset({"p"}), frozenset({"q"}),
                   frozenset({"p", "q"})]
        for a in letters:
            for b in letters:
                for c in letters:
                    t = tg.LabelTrace(prefix=(a,), cycle=(b, c))
                    assert tg.eval_on_lasso(f, t) == oracle_eval(f, t)
                    assert tg.eval_on_lasso(f, t) == buchi_accepts_lasso(auto, t)


# ======================== Büchi translation ========================


class TestBuchi:
    @pytest.mark.parametrize(
        "deep, shallow",
        [
            # junction is in s0, unlabelled, at every even position
            ("X " * 600 + "p", "p"),
            ("X " * 601 + "p", "X p"),
            (" U ".join(["p"] * 601), "p"),
        ],
        ids=["next-600", "next-601", "until-600"],
    )
    def test_deep_goals_answer_on_junction(self, deep, shallow):
        arena = junction_game().arena
        start = time.monotonic()
        answer = tg.find_ne(tg.make_game(arena, [deep, "G F p"]), None, 1)
        assert time.monotonic() - start < 1.0
        assert answer == tg.find_ne(tg.make_game(arena, [shallow, "G F p"]), None, 1)

    def test_simple_formula_accepts_matching_lasso(self):
        auto = tg.to_buchi(tg.parse_ltl("G F p"), vocabulary=("p",))
        assert buchi_accepts_lasso(auto, trace([], [{"p"}]))
        assert not buchi_accepts_lasso(auto, trace([{"p"}], [{}]))

    def test_automaton_total_via_sink(self):
        auto = tg.to_buchi(p, vocabulary=("p", "q"))
        for state in range(len(auto)):
            for letter in [frozenset(), frozenset({"p"}), frozenset({"q"})]:
                assert buchi_successors(auto, state, letter)

    def test_sink_rejects(self):
        auto = tg.to_buchi(p, vocabulary=("p",))
        assert not buchi_accepts_lasso(auto, trace([], [{}]))

    def test_until_agreement_small(self):
        f = tg.parse_ltl("p U q")
        auto = tg.to_buchi(f, vocabulary=("p", "q"))
        letters = [frozenset(), frozenset({"p"}), frozenset({"q"}),
                   frozenset({"p", "q"})]
        for a in letters:
            for b in letters:
                t = tg.LabelTrace(prefix=(a,), cycle=(b,))
                assert buchi_accepts_lasso(auto, t) == tg.eval_on_lasso(f, t)

    def test_state_cap(self):
        f = tg.parse_ltl("G F p & G F q")
        with pytest.raises(tg.ResourceLimitError):
            tg.to_buchi(f, state_cap=1)
