"""Linear temporal logic: core syntax, parsing, evaluation, Buchi translation.

The core connectives are truth, variables, negation, disjunction, next and
until.  Everything else (and, implies, iff, eventually, always) is rewritten
into the core at construction time, so downstream algorithms only handle six
node kinds.

Evaluation is exact on ultimately periodic words (a finite prefix followed by
a repeated cycle of label sets).  The Buchi translation is the declarative
tableau construction: states are maximal consistent assignments over the
closure of the formula, eventualities are tracked with a round-robin counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct
from typing import Iterable, NamedTuple

from .errors import ResourceLimitError, TaxgamesError
from ._graphs import strongly_connected_components


class LtlError(TaxgamesError):
    """A formula could not be parsed or translated."""


class LtlSyntaxError(LtlError):
    """Malformed formula text; the message includes a character position."""


class UnknownVariableError(LtlError):
    """A formula mentions a variable outside the allowed vocabulary."""


# ---------------------------------------------------------------------------
# Syntax


class Formula:
    """Base class for formula nodes.  All nodes are frozen and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueConst(Formula):
    def __repr__(self) -> str:
        return "TrueConst()"


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
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


def variables(formula: Formula) -> frozenset[str]:
    """All variable names occurring in the formula."""
    found: set[str] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            found.add(node.name)
        elif isinstance(node, (Not, Next)):
            stack.append(node.operand)
        elif isinstance(node, (Or, Until)):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(found)


def subformulas(formula: Formula) -> list[Formula]:
    """Distinct subformulas in postorder (children before parents)."""
    order: list[Formula] = []
    seen: set[Formula] = set()

    def walk(node: Formula) -> None:
        if node in seen:
            return
        if isinstance(node, (Not, Next)):
            walk(node.operand)
        elif isinstance(node, (Or, Until)):
            walk(node.left)
            walk(node.right)
        seen.add(node)
        order.append(node)

    walk(formula)
    return order


# Rendering precedence: higher binds tighter.
_PREC_OR = 2
_PREC_UNTIL = 4
_PREC_UNARY = 6
_PREC_ATOM = 8


def to_text(formula: Formula) -> str:
    """Render a core formula in the concrete syntax accepted by parse_ltl."""

    def render(node: Formula, required: int) -> str:
        if isinstance(node, TrueConst):
            return "true"
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Not):
            text, prec = "!" + render(node.operand, _PREC_UNARY), _PREC_UNARY
        elif isinstance(node, Next):
            text, prec = "X " + render(node.operand, _PREC_UNARY), _PREC_UNARY
        elif isinstance(node, Or):
            text = render(node.left, _PREC_OR) + " | " + render(node.right, _PREC_OR)
            prec = _PREC_OR
        elif isinstance(node, Until):
            # Until is right associative, so the left child needs parentheses
            # when it is itself an until.
            text = (
                render(node.left, _PREC_UNTIL + 1)
                + " U "
                + render(node.right, _PREC_UNTIL)
            )
            prec = _PREC_UNTIL
        else:
            raise TypeError(f"not a formula node: {node!r}")
        if prec < required:
            return "(" + text + ")"
        return text

    return render(formula, 0)


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar, loosest to tightest:
#   iff    :=  impl ('<->' impl)*          left associative
#   impl   :=  disj ('->' impl)?           right associative
#   disj   :=  conj ('|' conj)*
#   conj   :=  until ('&' until)*
#   until  :=  unary ('U' until)?          right associative
#   unary  :=  ('!' | 'X' | 'F' | 'G' | '<>' | '[]') unary | atom
#   atom   :=  'true' | 'false' | name | '(' iff ')'
# Reserved words: true false X U F G.  <> and [] are synonyms for F and G.

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


class _Parser:
    def __init__(self, tokens: list[_Token], vocabulary: frozenset[str] | None):
        self.tokens = tokens
        self.pos = 0
        self.vocabulary = vocabulary

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, text: str) -> None:
        token = self.take()
        if token.text != text:
            raise LtlSyntaxError(
                f"expected {text!r} at position {token.pos}, found {token.text!r}"
            )

    def parse_iff(self) -> Formula:
        left = self.parse_impl()
        while self.peek().text == "<->":
            self.take()
            left = iff(left, self.parse_impl())
        return left

    def parse_impl(self) -> Formula:
        left = self.parse_disj()
        if self.peek().text == "->":
            self.take()
            return implies(left, self.parse_impl())
        return left

    def parse_disj(self) -> Formula:
        left = self.parse_conj()
        while self.peek().text == "|":
            self.take()
            left = Or(left, self.parse_conj())
        return left

    def parse_conj(self) -> Formula:
        left = self.parse_until()
        while self.peek().text == "&":
            self.take()
            left = and_(left, self.parse_until())
        return left

    def parse_until(self) -> Formula:
        left = self.parse_unary()
        if self.peek().text == "U":
            self.take()
            return Until(left, self.parse_until())
        return left

    def parse_unary(self) -> Formula:
        token = self.peek()
        if token.text == "!":
            self.take()
            return Not(self.parse_unary())
        if token.text == "X":
            self.take()
            return Next(self.parse_unary())
        if token.text in ("F", "<>"):
            self.take()
            return eventually(self.parse_unary())
        if token.text in ("G", "[]"):
            self.take()
            return always(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        token = self.take()
        if token.text == "(":
            inner = self.parse_iff()
            self.expect(")")
            return inner
        if token.kind == "name":
            if token.text == "true":
                return TRUE
            if token.text == "false":
                return FALSE
            if token.text in _RESERVED:
                raise LtlSyntaxError(
                    f"operator {token.text!r} at position {token.pos} needs an operand"
                )
            if self.vocabulary is not None and token.text not in self.vocabulary:
                raise UnknownVariableError(
                    f"unknown variable {token.text!r} at position {token.pos}"
                )
            return Var(token.text)
        raise LtlSyntaxError(
            f"expected a formula at position {token.pos}, found {token.text!r}"
        )


def parse_ltl(text: str, vocabulary: Iterable[str] | None = None) -> Formula:
    """Parse formula text into the core syntax.

    When a vocabulary is given, variables outside it are rejected.
    """
    vocab = None if vocabulary is None else frozenset(vocabulary)
    parser = _Parser(_tokenize(text), vocab)
    formula = parser.parse_iff()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise LtlSyntaxError(
            f"unexpected {trailing.text!r} at position {trailing.pos}"
        )
    return formula


# ---------------------------------------------------------------------------
# Evaluation on ultimately periodic words


class LabelTrace(NamedTuple):
    """An ultimately periodic word: finite prefix then an infinitely
    repeated nonempty cycle, both as tuples of label sets."""

    prefix: tuple[frozenset[str], ...]
    cycle: tuple[frozenset[str], ...]


def eval_on_lasso(formula: Formula, trace: LabelTrace) -> bool:
    """Exact satisfaction at position 0 of the infinite word.

    Works positionally over the len(prefix) + len(cycle) canonical positions,
    where the successor of the last cycle position wraps to the cycle start.
    Until is the least fixpoint of its expansion law over those positions.
    """
    prefix, cycle = trace
    if not cycle:
        raise ValueError("trace cycle must be nonempty")
    count = len(prefix) + len(cycle)
    wrap = len(prefix)

    def succ(i: int) -> int:
        return i + 1 if i + 1 < count else wrap

    letters = list(prefix) + list(cycle)
    table: dict[Formula, list[bool]] = {}

    for node in subformulas(formula):
        if isinstance(node, TrueConst):
            row = [True] * count
        elif isinstance(node, Var):
            row = [node.name in letters[i] for i in range(count)]
        elif isinstance(node, Not):
            sub = table[node.operand]
            row = [not value for value in sub]
        elif isinstance(node, Or):
            left, right = table[node.left], table[node.right]
            row = [left[i] or right[i] for i in range(count)]
        elif isinstance(node, Next):
            sub = table[node.operand]
            row = [sub[succ(i)] for i in range(count)]
        elif isinstance(node, Until):
            left, right = table[node.left], table[node.right]
            row = list(right)
            changed = True
            while changed:
                changed = False
                for i in range(count - 1, -1, -1):
                    if not row[i] and left[i] and row[succ(i)]:
                        row[i] = True
                        changed = True
        else:
            raise TypeError(f"not a formula node: {node!r}")
        table[node] = row

    return table[formula][0]


# ---------------------------------------------------------------------------
# Buchi translation


@dataclass(frozen=True)
class BuchiAutomaton:
    """State-labelled Buchi automaton.

    Each state carries the set of constrained variables that must hold in the
    letter read while leaving it; letters are compared after intersecting
    with `constrained`, so the automaton runs over any superset alphabet.
    A mismatching letter falls into the absorbing non-accepting sink, which
    keeps the successor relation total.
    """

    constrained: frozenset[str]
    atoms: tuple[frozenset[str], ...]
    edges: tuple[tuple[int, ...], ...]
    initial: tuple[int, ...]
    accepting: frozenset[int]
    sink: int

    def __len__(self) -> int:
        return len(self.atoms)

    def successors(self, state: int, letter: frozenset[str]) -> tuple[int, ...]:
        if state == self.sink:
            return (self.sink,)
        if (letter & self.constrained) != self.atoms[state]:
            return (self.sink,)
        out = self.edges[state]
        return out if out else (self.sink,)


def to_buchi(
    formula: Formula,
    vocabulary: Iterable[str] | None = None,
    state_cap: int = 1 << 20,
) -> BuchiAutomaton:
    """Tableau translation of a core formula.

    States are the maximal consistent truth assignments over the closure of
    the formula; the free choices are the variable values, the next-node
    values, and the until-node values where the expansion law leaves a
    choice.  Eventualities are enforced with a round-robin counter over the
    until nodes.
    """
    if vocabulary is not None:
        missing = variables(formula) - frozenset(vocabulary)
        if missing:
            raise UnknownVariableError(
                "formula variables outside vocabulary: " + ", ".join(sorted(missing))
            )

    closure = subformulas(formula)
    index = {node: i for i, node in enumerate(closure)}
    var_nodes = [n for n in closure if isinstance(n, Var)]
    next_nodes = [n for n in closure if isinstance(n, Next)]
    until_nodes = [n for n in closure if isinstance(n, Until)]
    free = var_nodes + next_nodes + until_nodes
    if 2 ** len(free) > state_cap:
        raise ResourceLimitError(
            f"tableau would enumerate 2^{len(free)} assignments, cap is {state_cap}"
        )

    # The closure as a program over closure indices, read by the loops
    # below instead of the formula nodes, whose hashes recurse.  Each row
    # is (kind, first operand, second operand, free slot).
    slot = {index[node]: k for k, node in enumerate(free)}
    program: list[tuple[str, int, int, int]] = []
    for i, node in enumerate(closure):
        if isinstance(node, TrueConst):
            program.append(("true", 0, 0, 0))
        elif isinstance(node, (Var, Next)):
            program.append(("free", 0, 0, slot[i]))
        elif isinstance(node, Not):
            program.append(("not", index[node.operand], 0, 0))
        elif isinstance(node, Or):
            program.append(("or", index[node.left], index[node.right], 0))
        else:  # Until
            program.append(("until", index[node.left], index[node.right], slot[i]))
    var_indices = [(node.name, index[node]) for node in var_nodes]
    next_pairs = [(index[node], index[node.operand]) for node in next_nodes]
    until_triples = [
        (index[node], index[node.left], index[node.right]) for node in until_nodes
    ]

    # Enumerate consistent assignments.  Bits whose value the expansion law
    # forces are rejected on mismatch, so each assignment appears once.
    assignments: list[tuple[bool, ...]] = []
    for bits in _iterproduct((False, True), repeat=len(free)):
        values: list[bool] = [False] * len(closure)
        consistent = True
        for i, (kind, first, second, k) in enumerate(program):
            if kind == "true":
                value = True
            elif kind == "free":
                value = bits[k]
            elif kind == "not":
                value = not values[first]
            elif kind == "or":
                value = values[first] or values[second]
            else:  # until
                if values[second]:
                    value = True
                elif not values[first]:
                    value = False
                else:
                    value = bits[k]
                if value != bits[k]:
                    consistent = False
                    break
            values[i] = value
        if consistent:
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

    # One acceptance set per until node: states where the until is not
    # pending (false, or already discharged by its right operand).
    rounds = max(1, len(until_triples))
    if until_triples:
        acceptance_sets = [
            {i for i, a in enumerate(assignments) if not a[node] or a[right]}
            for node, _, right in until_triples
        ]
    else:
        acceptance_sets = [set(range(len(assignments)))]

    if len(assignments) * rounds + 1 > state_cap:
        raise ResourceLimitError(
            f"automaton would have {len(assignments) * rounds + 1} states, "
            f"cap is {state_cap}"
        )

    # Degeneralize with a counter, keeping only states reachable from the
    # initial ones.  Product state (i, k) gets a dense index on first visit.
    # The formula is the last node of the postorder closure.
    root = len(closure) - 1
    start_pairs = [(i, 0) for i, a in enumerate(assignments) if a[root]]
    numbering: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for pair in start_pairs:
        if pair not in numbering:
            numbering[pair] = len(order)
            order.append(pair)
    cursor = 0
    while cursor < len(order):
        i, k = order[cursor]
        cursor += 1
        bump = i in acceptance_sets[k]
        next_k = (k + 1) % rounds if bump else k
        for j in tableau_edges[i]:
            pair = (j, next_k)
            if pair not in numbering:
                numbering[pair] = len(order)
                order.append(pair)

    sink = len(order)
    atoms: list[frozenset[str]] = []
    edges: list[tuple[int, ...]] = []
    accepting: set[int] = set()
    for idx, (i, k) in enumerate(order):
        atoms.append(
            frozenset(name for name, node in var_indices if assignments[i][node])
        )
        bump = i in acceptance_sets[k]
        next_k = (k + 1) % rounds if bump else k
        edges.append(tuple(numbering[(j, next_k)] for j in tableau_edges[i]))
        if k == 0 and i in acceptance_sets[0]:
            accepting.add(idx)
    atoms.append(frozenset())
    edges.append((sink,))

    return BuchiAutomaton(
        constrained=frozenset(v.name for v in var_nodes),
        atoms=tuple(atoms),
        edges=tuple(edges),
        initial=tuple(numbering[pair] for pair in start_pairs),
        accepting=frozenset(accepting),
        sink=sink,
    )


def buchi_accepts_lasso(automaton: BuchiAutomaton, trace: LabelTrace) -> bool:
    """Whether the automaton accepts the infinite word of the trace.

    Explores the product of automaton states with the canonical trace
    positions and looks for a reachable nontrivial strongly connected
    component containing an accepting automaton state.
    """
    prefix, cycle = trace
    if not cycle:
        raise ValueError("trace cycle must be nonempty")
    count = len(prefix) + len(cycle)
    wrap = len(prefix)
    letters = list(prefix) + list(cycle)

    def succ_pos(i: int) -> int:
        return i + 1 if i + 1 < count else wrap

    def successors(node: tuple[int, int]) -> list[tuple[int, int]]:
        state, pos = node
        return [
            (target, succ_pos(pos))
            for target in automaton.successors(state, letters[pos])
        ]

    start = [(q, 0) for q in automaton.initial]
    seen: set[tuple[int, int]] = set(start)
    queue = list(start)
    while queue:
        node = queue.pop()
        for nxt in successors(node):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)

    for component in strongly_connected_components(sorted(seen), successors):
        members = set(component)
        nontrivial = len(component) > 1 or any(
            nxt in members for nxt in successors(component[0])
        )
        if not nontrivial:
            continue
        if any(state in automaton.accepting for state, _ in component):
            return True
    return False
