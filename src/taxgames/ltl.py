"""Linear temporal logic: core syntax, parsing, evaluation, Buchi translation.

The core connectives are truth, variables, negation, disjunction, next and
until.  Everything else (and, implies, iff, eventually, always) is rewritten
into the core at construction time, so downstream algorithms only handle six
node kinds.

Every algorithm below reads one compiled form of the formula: its distinct
subformulas in postorder as rows of integers, built by one iterative walk
that hashes no formula node (`_compile`).  The walk runs once per formula
object, whose node keeps the immutable program for every later call.
Evaluation is exact on ultimately periodic words (a finite prefix followed
by a repeated cycle of label sets): each row becomes an int bitset over the
word's positions.  The Buchi translation is the declarative tableau
construction: states are maximal consistent assignments over the rows, and
the acceptance is generalized, one set per until node, so no counter
multiplies the states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct
from typing import Iterable, NamedTuple

from .errors import ResourceLimitError, TaxgamesError


class LtlError(TaxgamesError):
    """A formula could not be parsed or translated."""


class LtlSyntaxError(LtlError):
    """Malformed formula text; the message includes a character position."""


class UnknownVariableError(LtlError):
    """A formula mentions a variable outside the allowed vocabulary."""


# ---------------------------------------------------------------------------
# Syntax


class Formula:
    """Base class for formula nodes.  All nodes are frozen and hashable.

    Equality and hash read the compiled program, which is canonical: equal
    trees give equal rows and the rows fix the tree, and repr renders it as
    to_text does, so no node is visited recursively.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return _compile(self).rows == _compile(other).rows

    def __hash__(self) -> int:
        return hash(_compile(self).rows)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {to_text(self)}>"


@dataclass(frozen=True, eq=False, repr=False)
class TrueConst(Formula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Var(Formula):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Until(Formula):
    left: Formula
    right: Formula


TRUE = TrueConst()
FALSE = Not(TRUE)


def and_(left: Formula, right: Formula) -> Formula:
    return Not(Or(Not(left), Not(right)))


def implies(left: Formula, right: Formula) -> Formula:
    return Or(Not(left), right)


def iff(left: Formula, right: Formula) -> Formula:
    return and_(implies(left, right), implies(right, left))


def eventually(operand: Formula) -> Formula:
    return Until(TRUE, operand)


def always(operand: Formula) -> Formula:
    return Not(Until(TRUE, Not(operand)))


# Row kinds of a compiled formula.
_TRUE, _VAR, _NOT, _OR, _NEXT, _UNTIL = range(6)
_KINDS = {TrueConst: _TRUE, Var: _VAR, Not: _NOT, Or: _OR, Next: _NEXT, Until: _UNTIL}


class _Program(NamedTuple):
    """A compiled formula: its distinct subformulas in postorder, as rows
    and as the first-occurring node objects."""

    rows: tuple[tuple, ...]
    nodes: tuple[Formula, ...]


def _compile(formula: Formula) -> _Program:
    """The formula's program, built on the first call for a node object and
    kept on it.

    Children come before parents and left before right; the first occurrence
    of a subformula fixes its place, so the root is the last row.  A row is
    the kind followed by the children's row indices or the variable name.
    Equal subformulas share the row that is their key, so no node is hashed;
    each node object is visited once, keyed by id(), on an explicit stack.
    The program is stored in the frozen node's __dict__, which its fields,
    equality and hash do not read; it is immutable, so every caller may
    share it.
    """
    if type(formula) not in _KINDS:
        raise TypeError(f"not a formula node: {formula!r}")
    program = formula.__dict__.get("_program")
    if program is not None:
        return program
    row_of: dict[tuple, int] = {}
    nodes: list[Formula] = []
    done: dict[int, int] = {}
    stack = [formula]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        kind = _KINDS.get(type(node))
        if kind is None:
            raise TypeError(f"not a formula node: {node!r}")
        if kind == _NOT or kind == _NEXT:
            children = (node.operand,)
        elif kind == _OR or kind == _UNTIL:
            children = (node.left, node.right)
        else:
            children = ()
        waiting = [child for child in reversed(children) if id(child) not in done]
        if waiting:
            stack += waiting
            continue
        stack.pop()
        if kind == _VAR:
            key = (kind, node.name)
        else:
            key = (kind, *[done[id(child)] for child in children])
        if key not in row_of:
            row_of[key] = len(nodes)
            nodes.append(node)
        done[id(node)] = row_of[key]
    program = formula.__dict__["_program"] = _Program(tuple(row_of), tuple(nodes))
    return program


def variables(formula: Formula) -> frozenset[str]:
    """All variable names occurring in the formula."""
    return frozenset(row[1] for row in _compile(formula).rows if row[0] == _VAR)


def subformulas(formula: Formula) -> list[Formula]:
    """Distinct subformulas in postorder (children before parents), as a
    fresh list."""
    return list(_compile(formula).nodes)


# Rendering per row kind: precedence (higher binds tighter), template, and
# the precedence each operand needs to go without parentheses.  Until is
# right associative, so its left operand is bracketed when it is an until.
_LAYOUT = {
    _NOT: (6, "!{}", (6,)),
    _NEXT: (6, "X {}", (6,)),
    _OR: (2, "{} | {}", (2, 2)),
    _UNTIL: (4, "{} U {}", (5, 4)),
}


def to_text(formula: Formula) -> str:
    """Render a core formula in the concrete syntax accepted by parse_ltl,
    row by row bottom-up, each row as (text, precedence)."""
    rendered: list[tuple[str, int]] = []

    def operand(row: int, required: int) -> str:
        text, prec = rendered[row]
        return "(" + text + ")" if prec < required else text

    for row in _compile(formula).rows:
        if row[0] == _TRUE:  # atoms bind tighter than every operator
            rendered.append(("true", 8))
        elif row[0] == _VAR:
            rendered.append((row[1], 8))
        else:
            prec, template, required = _LAYOUT[row[0]]
            rendered.append((template.format(*map(operand, row[1:], required)), prec))
    return rendered[-1][0]


# ---------------------------------------------------------------------------
# Parsing
#
# Operators, loosest to tightest: <-> (left associative), -> (right), |, &,
# U (right), then the prefix operators ! X F G <> [], which bind tightest.
# Atoms are true, false, a name, or a parenthesised formula.  Reserved
# words: true false X U F G.  <> and [] are synonyms for F and G.

_RESERVED = {"true", "false", "X", "U", "F", "G"}


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            tokens.append(_Token("op", "<->", i))
            i += 3
        elif text.startswith("->", i):
            tokens.append(_Token("op", "->", i))
            i += 2
        elif text.startswith("<>", i):
            tokens.append(_Token("op", "<>", i))
            i += 2
        elif text.startswith("[]", i):
            tokens.append(_Token("op", "[]", i))
            i += 2
        elif ch in "!|&()":
            tokens.append(_Token("op", ch, i))
            i += 1
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
        else:
            raise LtlSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(_Token("end", "", n))
    return tokens


_PREFIX = {
    "!": Not, "X": Next, "F": eventually, "<>": eventually, "G": always, "[]": always,
}
# Binary operators: binding power (higher binds tighter), right associative?
# Prefix operators bind tighter than all of them.
_BINARY = {
    "<->": (1, False, iff),
    "->": (2, True, implies),
    "|": (3, False, Or),
    "&": (4, False, and_),
    "U": (5, True, Until),
}


def _atom(token: _Token, vocabulary: frozenset[str] | None) -> Formula:
    if token.kind == "name":
        if token.text == "true":
            return TRUE
        if token.text == "false":
            return FALSE
        if token.text in _RESERVED:
            raise LtlSyntaxError(
                f"operator {token.text!r} at position {token.pos} needs an operand"
            )
        if vocabulary is not None and token.text not in vocabulary:
            raise UnknownVariableError(
                f"unknown variable {token.text!r} at position {token.pos}"
            )
        return Var(token.text)
    raise LtlSyntaxError(
        f"expected a formula at position {token.pos}, found {token.text!r}"
    )


def parse_ltl(text: str, vocabulary: Iterable[str] | None = None) -> Formula:
    """Parse formula text into the core syntax.

    When a vocabulary is given, variables outside it are rejected.  One
    operator-precedence loop reads the tokens left to right, holding the
    finished operands on one stack and the pending operators and open
    parentheses on another.
    """
    vocab = None if vocabulary is None else frozenset(vocabulary)
    operands: list[Formula] = []
    pending: list[str] = []
    depth = 0

    def reduce(power: int) -> None:
        # apply the pending operators, back to the innermost open
        # parenthesis, that bind at least this tightly
        while pending and pending[-1] != "(":
            if pending[-1] in _PREFIX:
                operands.append(_PREFIX[pending.pop()](operands.pop()))
                continue
            top, right_assoc, build = _BINARY[pending[-1]]
            if top < power or top == power and right_assoc:
                return
            pending.pop()
            right = operands.pop()
            operands.append(build(operands.pop(), right))

    want_operand = True
    for token in _tokenize(text):
        if want_operand:
            if token.text == "(" or token.text in _PREFIX:
                pending.append(token.text)
                depth += token.text == "("
            else:
                operands.append(_atom(token, vocab))
                want_operand = False
        elif token.text in _BINARY:
            reduce(_BINARY[token.text][0])
            pending.append(token.text)
            want_operand = True
        elif depth and token.text == ")":
            reduce(0)
            pending.pop()
            depth -= 1
        elif depth:
            raise LtlSyntaxError(
                f"expected ')' at position {token.pos}, found {token.text!r}"
            )
        elif token.kind != "end":
            raise LtlSyntaxError(f"unexpected {token.text!r} at position {token.pos}")
    reduce(0)
    return operands[0]


# ---------------------------------------------------------------------------
# Evaluation on ultimately periodic words


class LabelTrace(NamedTuple):
    """An ultimately periodic word: finite prefix then an infinitely
    repeated nonempty cycle, both as tuples of label sets."""

    prefix: tuple[frozenset[str], ...]
    cycle: tuple[frozenset[str], ...]


def eval_on_lasso(formula: Formula, trace: LabelTrace) -> bool:
    """Exact satisfaction at position 0 of the infinite word.

    Labels the len(prefix) + len(cycle) canonical positions bottom-up over
    the compiled formula (Markey & Schnoebelen, CONCUR 2003), each row an
    int bitset whose bit i says whether the subformula holds at position i.
    The successor of the last cycle position wraps to the cycle start, so
    next shifts down and carries the wrap bit to the top; until is the least
    fixpoint of its expansion law.
    """
    prefix, cycle = trace
    if not cycle:
        raise ValueError("trace cycle must be nonempty")
    letters = list(prefix) + list(cycle)
    mask = (1 << len(letters)) - 1
    top = 1 << (len(letters) - 1)
    wrap = 1 << len(prefix)

    def after(bits: int) -> int:
        return bits >> 1 | (top if bits & wrap else 0)

    values: list[int] = []
    for row in _compile(formula).rows:
        kind = row[0]
        if kind == _TRUE:
            value = mask
        elif kind == _VAR:
            value = sum(1 << i for i, letter in enumerate(letters) if row[1] in letter)
        elif kind == _NOT:
            value = values[row[1]] ^ mask
        elif kind == _OR:
            value = values[row[1]] | values[row[2]]
        elif kind == _NEXT:
            value = after(values[row[1]])
        else:  # until
            left, value, grown = values[row[1]], 0, values[row[2]]
            while grown != value:
                value, grown = grown, grown | left & after(grown)
        values.append(value)
    return bool(values[-1] & 1)


# ---------------------------------------------------------------------------
# Buchi translation


@dataclass(frozen=True)
class BuchiAutomaton:
    """State-labelled generalized Buchi automaton.

    Each state carries the set of constrained variables that must hold in the
    letter read while leaving it; letters are compared after intersecting
    with `constrained`, so the automaton runs over any superset alphabet.
    A mismatching letter falls into the absorbing non-accepting sink, which
    keeps the successor relation total.  A run accepts when it visits every
    set of `acceptance` infinitely often; the sink is in none of them.
    """

    constrained: frozenset[str]
    atoms: tuple[frozenset[str], ...]
    edges: tuple[tuple[int, ...], ...]
    initial: tuple[int, ...]
    acceptance: tuple[frozenset[int], ...]
    sink: int

    def __len__(self) -> int:
        return len(self.atoms)


def to_buchi(
    formula: Formula,
    vocabulary: Iterable[str] | None = None,
    state_cap: int = 1 << 20,
) -> BuchiAutomaton:
    """Tableau translation of a core formula.

    States are the maximal consistent truth assignments over the closure of
    the formula; the free choices are the variable values, the next-node
    values, and the until-node values where the expansion law leaves a
    choice.  Only the assignments reachable from the initial ones become
    states.  Each until node gives one acceptance set, the states where it
    is not pending, which enforces its eventuality; a formula without until
    nodes gets the one set of all non-sink states, since a run that meets
    no set would otherwise accept the sink's self-loop.
    """
    rows = _compile(formula).rows
    free = [
        i for kind in (_VAR, _NEXT, _UNTIL) for i, row in enumerate(rows)
        if row[0] == kind
    ]
    names = [(rows[i][1], i) for i in free if rows[i][0] == _VAR]
    if vocabulary is not None:
        missing = {name for name, _ in names} - frozenset(vocabulary)
        if missing:
            raise UnknownVariableError(
                "formula variables outside vocabulary: " + ", ".join(sorted(missing))
            )
    if 2 ** len(free) > state_cap:
        raise ResourceLimitError(
            f"tableau would enumerate 2^{len(free)} assignments, cap is {state_cap}"
        )
    slot = {i: k for k, i in enumerate(free)}
    next_pairs = [(i, rows[i][1]) for i in free if rows[i][0] == _NEXT]
    until_triples = [(i, *rows[i][1:]) for i in free if rows[i][0] == _UNTIL]

    # Enumerate consistent assignments.  An until bit must match the value
    # its expansion law forces, so each assignment appears once.
    assignments: list[tuple[bool, ...]] = []
    for bits in _iterproduct((False, True), repeat=len(free)):
        values: list[bool] = []
        for i, row in enumerate(rows):
            kind = row[0]
            if kind == _TRUE:
                value = True
            elif kind == _NOT:
                value = not values[row[1]]
            elif kind == _OR:
                value = values[row[1]] or values[row[2]]
            else:
                value = bits[slot[i]]
                if kind == _UNTIL and value != (
                    values[row[2]] or values[row[1]] and value
                ):
                    break
            values.append(value)
        else:
            assignments.append(tuple(values))

    def step_allowed(a: tuple[bool, ...], b: tuple[bool, ...]) -> bool:
        for node, operand in next_pairs:
            if a[node] != b[operand]:
                return False
        for node, left, right in until_triples:
            if a[left] and not a[right] and a[node] != b[node]:
                return False
        return True

    tableau_edges: list[list[int]] = [
        [j for j, b in enumerate(assignments) if step_allowed(a, b)]
        for a in assignments
    ]

    if len(assignments) + 1 > state_cap:
        raise ResourceLimitError(
            f"automaton would have {len(assignments) + 1} states, "
            f"cap is {state_cap}"
        )

    # Number the assignments reachable from the initial ones, which are
    # those where the formula, the last row of the postorder closure, holds.
    root = len(rows) - 1
    starts = [i for i, a in enumerate(assignments) if a[root]]
    order = list(starts)
    numbering = {i: idx for idx, i in enumerate(order)}
    for i in order:  # order grows while it is walked
        for j in tableau_edges[i]:
            if j not in numbering:
                numbering[j] = len(order)
                order.append(j)

    # One acceptance set per until node: states where the until is not
    # pending (false, or already discharged by its right operand).
    acceptance = tuple(
        frozenset(
            idx for idx, i in enumerate(order)
            if not assignments[i][node] or assignments[i][right]
        )
        for node, _, right in until_triples
    ) or (frozenset(range(len(order))),)

    sink = len(order)
    atoms = [
        frozenset(name for name, node in names if assignments[i][node])
        for i in order
    ]
    edges = [tuple(numbering[j] for j in tableau_edges[i]) for i in order]
    return BuchiAutomaton(
        constrained=frozenset(name for name, _ in names),
        atoms=(*atoms, frozenset()),
        edges=(*edges, (sink,)),
        initial=tuple(range(len(starts))),
        acceptance=acceptance,
        sink=sink,
    )
