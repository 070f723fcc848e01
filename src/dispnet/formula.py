"""Formulas of the Displacement calculus and their sort arithmetic.

Six binary connectives over sorted atoms. The concatenation family is
the familiar one: ``A\\C`` (left division), ``C/B`` (right division)
and ``A*B`` (product). The wrap family is mode-indexed: ``C^kB``
(extraction: C missing an infix B at the separator picked by k),
``A!kC`` (infixation: the thing that wraps inside a circumfix A to give
C) and ``AokB`` (A wrapped around B).

Sorts propagate through connectives by simple arithmetic: products add,
divisions subtract, and each wrap connective additionally accounts for
the one separator it consumes or introduces. Side conditions (the
circumfix argument of ``!``/``o`` must have a separator; numeric modes
must address an existing separator) are what ``well_sorted`` checks.

A Signature fixes the sorts of atoms. Formula nodes are frozen, slotted
dataclasses that keep the sort and the ``well_sorted`` verdict last
computed for them, with the signature those hold under;
``Signature.sort_of`` reads the node when that signature is the one
asking. There is no memo table, so what is remembered lives and dies
with the node.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, fields

from .terms import FIRST, LAST, Mode, at, parse_mode


class _Node:
    """What every formula node remembers beside its fields: the sort and
    well-sortedness verdict last computed for it, with the signature they
    hold under. The slots start unset, also on a node made by
    ``dataclasses.replace``, and are filled on first use."""

    __slots__ = ("_sig", "_sort", "_ok")


@dataclass(frozen=True, slots=True)
class Atom(_Node):
    name: str


@dataclass(frozen=True, slots=True)
class Over(_Node):
    """C/B: wants a B to its right to form a C."""

    result: "Formula"
    arg: "Formula"


@dataclass(frozen=True, slots=True)
class Under(_Node):
    """A\\C: wants an A to its left to form a C."""

    arg: "Formula"
    result: "Formula"


@dataclass(frozen=True, slots=True)
class Prod(_Node):
    """A*B: concatenation of an A and a B."""

    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Up(_Node):
    """C^kB: a C with a B extracted at the k-designated separator."""

    result: "Formula"
    arg: "Formula"
    mode: Mode


@dataclass(frozen=True, slots=True)
class Down(_Node):
    """A!kC: infix that a circumfix A wraps around to form a C."""

    arg: "Formula"
    result: "Formula"
    mode: Mode


@dataclass(frozen=True, slots=True)
class Wrap(_Node):
    """AokB: an A wrapped around a B at the k-designated separator."""

    left: "Formula"
    right: "Formula"
    mode: Mode


Formula = "Atom | Over | Under | Prod | Up | Down | Wrap"

# The operator of each connective in the concrete syntax. Each class takes
# its two subformulas in the order they are written, then the mode for
# ^, ! and o.
OPS = {Over: "/", Under: "\\", Prod: "*", Up: "^", Down: "!", Wrap: "o"}
CONNECTIVES = {op: cls for cls, op in OPS.items()}
MODED = "^!o"
# Field names of each connective's two subformulas, in written order:
# ``result`` and ``arg`` for an implication, ``left`` and ``right`` for a
# product or wrap.
OPERANDS = {cls: tuple(f.name for f in fields(cls))[:2] for cls in OPS}


def operands(f) -> tuple:
    """The two immediate subformulas of a compound formula, as written."""
    return tuple(getattr(f, name) for name in OPERANDS[type(f)])


def connective(op, first, second, mode=None):
    """The formula ``first op second``; ``mode`` is dropped for the
    connectives that take none."""
    if op in MODED:
        return CONNECTIVES[op](first, second, mode)
    return CONNECTIVES[op](first, second)


class FormulaError(ValueError):
    pass


class IllSorted(FormulaError):
    """Raised when sort arithmetic is read off an ill-sorted formula."""


def content_lines(text: str):
    """(line number, line) for each line of ``text`` that holds more than
    a comment, with the comment and the outer blanks removed."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_sorts(lines):
    """The sorts that ``atom sort`` lines, given as (line number, line),
    declare, and a message for each line that is malformed or declares
    its atom again."""
    sorts, violations = {}, []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2 or not parts[1].isdecimal():
            violations.append(f"line {lineno}: bad signature entry {line!r}")
        elif parts[0] in sorts:
            violations.append(f"line {lineno}: atom {parts[0]} declared twice")
        else:
            sorts[parts[0]] = int(parts[1])
    return sorts, violations


class Signature:
    """Sorts of the atomic formulas of a grammar.

    A formula's sort is kept on the formula node itself, for the
    signature that last asked for it, so the signature holds no table of
    formulas: asking again under the same signature reads the node, and
    asking under another one computes the sort afresh and keeps that."""

    def __init__(self, sorts: dict):
        for name, s in sorts.items():
            if s < 0:
                raise FormulaError(f"atom {name}: negative sort {s}")
        self.sorts = dict(sorts)

    def __contains__(self, name):
        return name in self.sorts

    def __eq__(self, other):
        return isinstance(other, Signature) and self.sorts == other.sorts

    def sort_of(self, f) -> int:
        """Sort of a formula, assuming it is well-sorted."""
        try:
            if f._sig is self:
                return f._sort
        except AttributeError:
            pass
        s = self._raw_sort(f)
        if s < 0:
            raise IllSorted(f"{format_formula(f)} has negative sort {s}")
        object.__setattr__(f, "_sig", self)
        object.__setattr__(f, "_sort", s)
        object.__setattr__(f, "_ok", False)  # not yet checked under self
        return s

    def _raw_sort(self, f) -> int:
        if isinstance(f, Atom):
            if f.name not in self.sorts:
                raise IllSorted(f"atom {f.name} not in signature")
            return self.sorts[f.name]
        op = OPS.get(type(f))
        if op is None:
            raise FormulaError(f"not a formula: {f!r}")
        # an implication's sort is result - argument, a product's the sum;
        # a wrap connective consumes (^, !) or introduces (o) a separator
        moded = op in MODED
        if "result" in OPERANDS[type(f)]:
            return self.sort_of(f.result) - self.sort_of(f.arg) + moded
        return self.sort_of(f.left) + self.sort_of(f.right) - moded

    @classmethod
    def parse(cls, text: str) -> "Signature":
        sorts, violations = read_sorts(content_lines(text))
        if violations:
            raise FormulaError(violations[0])
        return cls(sorts)

    def format(self) -> str:
        return "".join(f"{n} {s}\n" for n, s in self.sorts.items())


def well_sorted(f, sig: Signature) -> list:
    """Check a formula recursively; returns a list of violations
    (empty when the formula is well-sorted). Never raises: violations
    are accumulated so grammar validation can report everything at
    once. A node found well-sorted remembers it for ``sig``, so asking
    again, for it or for a formula that contains it, skips its subtree;
    violations are found afresh each time."""
    violations = []
    _check_sorts(f, sig, violations)
    return violations


def _check_sorts(g, sig: Signature, violations: list):
    """Add the violations of g's subtree to ``violations``, innermost
    first, and mark each compound node found well-sorted."""
    if isinstance(g, Atom):
        if g.name not in sig:
            violations.append(f"unknown atom {g.name}")
        return
    try:
        if g._ok and g._sig is sig:
            return
    except AttributeError:
        pass
    before = len(violations)
    for child in _children(g):
        _check_sorts(child, sig, violations)
    for v in _outer_violations(g, sig):
        violations.append(f"{format_formula(g)}: {v}")
    if len(violations) == before:
        sig.sort_of(g)  # ties g's slots to sig
        object.__setattr__(g, "_ok", True)


def _children(f):
    if isinstance(f, Atom):
        return ()
    if isinstance(f, (Under, Over, Up, Down)):
        return (f.arg, f.result)
    return (f.left, f.right)


def _sort_or_none(f, sig: Signature):
    try:
        return sig.sort_of(f)
    except IllSorted:
        return None


def _outer_violations(g, sig: Signature) -> list:
    """The side conditions of the outermost connective of the compound
    formula g that g breaks, each worded to follow ``g:``. A ! or o needs
    a circumfix (its first operand) with a separator, which its numeric
    mode must address. The conditions on g's own sort are read only when
    both operands have one, so that a violation is reported where it
    arises and not again for each formula around it: an implication's
    result sort must reach its argument's, g's sort must not be
    negative, and the numeric mode of a ^ must address a separator of g."""
    op = OPS[type(g)]
    first, second = (_sort_or_none(f, sig) for f in operands(g))
    out = []
    if op in "!o" and first is not None:
        if first < 1:
            out.append("circumfix argument has sort 0")
        elif g.mode.kind == "@" and g.mode.index > first:
            out.append(f"mode {g.mode} exceeds circumfix sort {first}")
    if first is None or second is None:
        return out
    s = _sort_or_none(g, sig)
    if op == "^" and first < second:
        out.append(f"result sort {first} below argument sort {second}")
    elif op == "^" and g.mode.kind == "@" and g.mode.index > s:
        out.append(f"mode {g.mode} exceeds sort {s}")
    elif s is None:
        out.append("negative sort" if op in MODED else
                   "result sort smaller than argument sort")
    return out


def top_level_ok(f, sig: Signature) -> bool:
    """Side conditions of the outermost connective only; assumes the
    immediate subformulas are already well-sorted. Cheap enough for the
    inner loops of the random generators."""
    if _sort_or_none(f, sig) is None:
        return False
    return isinstance(f, Atom) or not _outer_violations(f, sig)


# --- concrete syntax ---------------------------------------------------
#
# /  \  *        concatenation family
# ^> ^< ^n       extraction, by mode
# !> !< !n       infixation
# o> o< on       wrap (needs a token boundary before the o)
#
# Mixed connectives must be parenthesized; only chains of a single /
# (left-associative) or a single \ (right-associative) may omit parens.

_IDENT = re.compile(r"[A-Za-z_'][A-Za-z0-9_']*")
_UNMODED = "".join(op for op in OPS.values() if op not in MODED)
_MODE_START = frozenset("><0123456789")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            tokens.append((c, c))
            i += 1
            continue
        if c in _UNMODED:
            tokens.append(("op", c, None))
            i += 1
            continue
        # a moded connective that is a letter (o) starts an atom name
        # unless a mode follows it
        if c in MODED and (not c.isalpha() or text[i + 1:i + 2] in _MODE_START):
            j = i + 1
            if j < n and text[j] in "><":
                mode = parse_mode(text[j])
                j += 1
            else:
                k = j
                while k < n and text[k].isdecimal():
                    k += 1
                if k == j:
                    raise FormulaError(f"connective {c!r} needs a mode in {text!r}")
                mode = parse_mode(text[j:k])
                j = k
            tokens.append(("op", c, mode))
            i = j
            continue
        m = _IDENT.match(text, i)
        if not m:
            raise FormulaError(f"bad character {c!r} in formula {text!r}")
        tokens.append(("atom", m.group(0)))
        i += len(m.group(0))
    return tokens


def parse_formula(text: str):
    parser = _Parser(text)
    f = parser.expr()
    if parser.pos != len(parser.tokens):
        raise FormulaError(f"trailing tokens in {text!r}")
    return f


class _Parser:
    """Recursive descent over the tokens of one formula, ``pos`` being
    the next token's index. The methods recurse; the parser holds no
    reference to them."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def primary(self):
        tok, text = self.peek(), self.text
        if tok is None:
            raise FormulaError(f"unexpected end of formula in {text!r}")
        if tok[0] == "atom":
            self.pos += 1
            return Atom(tok[1])
        if tok[0] == "(":
            self.pos += 1
            f = self.expr()
            if self.peek() is None or self.peek()[0] != ")":
                raise FormulaError(f"missing ) in {text!r}")
            self.pos += 1
            return f
        raise FormulaError(f"unexpected {tok!r} in {text!r}")

    def expr(self):
        operands = [self.primary()]
        ops = []
        while self.peek() is not None and self.peek()[0] == "op":
            ops.append(self.peek()[1:])
            self.pos += 1
            operands.append(self.primary())
        if not ops:
            return operands[0]
        if len(ops) > 1:
            kinds = {op for op, _ in ops}
            if kinds == {"/"}:
                f = operands[0]
                for right in operands[1:]:
                    f = Over(f, right)
                return f
            if kinds == {"\\"}:
                f = operands[-1]
                for left in reversed(operands[:-1]):
                    f = Under(left, f)
                return f
            raise FormulaError(
                f"mixed connectives need parentheses in {self.text!r}"
            )
        (op, mode), (a, b) = ops[0], operands
        return connective(op, a, b, mode)


def format_formula(f) -> str:
    if isinstance(f, Atom):
        return f.name
    a, b = operands(f)
    op = OPS[type(f)]
    if op in MODED:
        op += str(f.mode)
    if op[0] == "o":  # o needs a token boundary before it
        op = f" {op} "
    # only a chain of one / (nesting to the left) or of one \ (to the
    # right) drops its parentheses
    return (_group(a, type(f) is type(a) is Over) + op
            + _group(b, type(f) is type(b) is Under))


def _group(g, bare_ok) -> str:
    """g formatted as an operand: in parentheses unless it is an atom or
    ``bare_ok``."""
    s = format_formula(g)
    if isinstance(g, Atom) or bare_ok:
        return s
    return f"({s})"


def random_formula(rng: random.Random, sig: Signature, max_connectives: int):
    """A random well-sorted formula over the signature's atoms.

    Used by the fuzz drivers; retries locally until the sort side
    conditions hold, so the result is always well-sorted.
    """
    atom_names = sorted(sig.sorts)
    ops = tuple(CONNECTIVES)

    def gen(budget):
        for _ in range(24):
            if budget == 0 or rng.random() < 0.3:
                return Atom(rng.choice(atom_names))
            op = rng.choice(ops)
            lb = rng.randint(0, budget - 1)
            a = gen(lb)
            b = gen(budget - 1 - lb)
            if a is None or b is None:
                continue
            f = connective(op, a, b, rng.choice((FIRST, LAST, at(1), at(2))))
            if top_level_ok(f, sig):
                return f
        return None

    while True:
        f = gen(rng.randint(0, max_connectives))
        if f is not None:
            return f
