"""String terms over words and a separator symbol.

A string term is a finite sequence of items, each either a word or the
separator (written ``1``). Words cover lexical material as well as the
fresh variables p0, p1, ... that stand in for arbitrary strings. The
*sort* of a term is the number of separators it contains; the empty
term (written ``0``) has sort 0 and is the unit of concatenation.

Besides concatenation, terms support the wrap operations, which replace
a designated separator of one term by another term: the first separator
(mode ``>``), the last one (mode ``<``), or the n-th counted from the
left (numeric modes). Wrapping is what the discontinuous connectives
talk about, so everything downstream leans on this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class TermError(ValueError):
    pass


class WrapOnSortZero(TermError):
    """Wrap applied to a term that has no separators."""


class IndexOutOfRange(TermError):
    """Numeric wrap mode addressing a separator that does not exist."""


@dataclass(frozen=True)
class Separator:
    """The separator item. All instances are interchangeable."""

    def __repr__(self):
        return "1"


SEP = Separator()


@dataclass(frozen=True)
class Mode:
    """A wrap mode: ``>`` (first separator), ``<`` (last separator), or
    ``@`` with a 1-based separator index.

    ``>`` coincides with index 1 and ``<`` with the final index, but the
    three variants are kept distinct syntactically: ``<`` has no fixed
    numeric value independent of the wrapped term's sort.
    """

    kind: str
    index: int | None = None

    def __post_init__(self):
        if self.kind not in (">", "<", "@"):
            raise ValueError(f"bad mode kind {self.kind!r}")
        if self.kind == "@":
            if self.index is None or self.index < 1:
                raise ValueError("numeric wrap mode needs an index >= 1")
        elif self.index is not None:
            raise ValueError(f"mode {self.kind!r} carries no index")

    def __str__(self):
        return str(self.index) if self.kind == "@" else self.kind

    def slot(self, sort: int) -> int:
        """The separator (1-based) this mode picks among ``sort`` of them.
        A numeric mode picks its index even past ``sort``; callers that
        can meet such a mode check it."""
        if self.kind == ">":
            return 1
        if self.kind == "<":
            return sort
        return self.index


FIRST = Mode(">")
LAST = Mode("<")


def at(n: int) -> Mode:
    return Mode("@", n)


def parse_mode(text: str) -> Mode:
    if text == ">":
        return FIRST
    if text == "<":
        return LAST
    if text.isdigit():
        return at(int(text))
    raise TermError(f"bad wrap mode {text!r}")


_WORD_RE = re.compile(r"[A-Za-z_'][A-Za-z0-9_']*\Z")


@dataclass(frozen=True)
class StringTerm:
    """An immutable sequence of words and separators."""

    items: tuple

    @property
    def sort(self) -> int:
        return sum(1 for it in self.items if isinstance(it, Separator))

    def words(self) -> list:
        return [it for it in self.items if not isinstance(it, Separator)]

    def pieces(self) -> list:
        """Maximal word runs of the term, split at separators: sort + 1
        tuples, empty where a separator meets an end or another one."""
        runs, run = [], []
        for it in self.items:
            if isinstance(it, Separator):
                runs.append(tuple(run))
                run = []
            else:
                run.append(it)
        runs.append(tuple(run))
        return runs

    def __str__(self):
        return format_term(self)

    def __add__(self, other: "StringTerm") -> "StringTerm":
        return concat(self, other)


EMPTY = StringTerm(())


def concat(alpha: StringTerm, beta: StringTerm) -> StringTerm:
    return StringTerm(alpha.items + beta.items)


def sep_positions(items) -> list:
    return [i for i, it in enumerate(items) if isinstance(it, Separator)]


def split_at_sep(alpha: StringTerm, mode: Mode):
    """Split ``alpha`` around its mode-designated separator.

    Returns ``(left_items, right_items)`` with the separator itself
    dropped. Raises WrapOnSortZero / IndexOutOfRange when the separator
    does not exist.
    """
    seps = sep_positions(alpha.items)
    if not seps:
        raise WrapOnSortZero(f"term {alpha} has sort 0")
    i = mode.slot(len(seps))
    if i > len(seps):
        raise IndexOutOfRange(f"separator {i} of {alpha} (sort {len(seps)})")
    pos = seps[i - 1]
    return alpha.items[:pos], alpha.items[pos + 1:]


def wrap(alpha: StringTerm, mode: Mode, beta: StringTerm) -> StringTerm:
    """Replace the mode-designated separator of ``alpha`` by ``beta``."""
    left, right = split_at_sep(alpha, mode)
    return StringTerm(left + beta.items + right)


def parse_term(text: str) -> StringTerm:
    """Parse the ``+``-separated concrete syntax, e.g. ``rang+1+up``.

    ``1`` denotes the separator; a sole ``0`` denotes the empty term.
    """
    text = text.strip()
    if text == "0":
        return EMPTY
    if not text:
        raise TermError("empty term text (write 0 for the empty term)")
    items = []
    for tok in text.split("+"):
        tok = tok.strip()
        if tok == "1":
            items.append(SEP)
        elif _WORD_RE.match(tok):
            items.append(tok)
        else:
            raise TermError(f"bad term item {tok!r} in {text!r}")
    return StringTerm(tuple(items))


def format_term(term: StringTerm) -> str:
    if not term.items:
        return "0"
    return "+".join("1" if isinstance(it, Separator) else it for it in term.items)


class FreshVars:
    """Source of fresh variable words p0, p1, ... One counter per
    proving session keeps traces reproducible."""

    def __init__(self, prefix: str = "p", start: int = 0):
        self.prefix = prefix
        self.counter = start

    def word(self) -> str:
        w = f"{self.prefix}{self.counter}"
        self.counter += 1
        return w

    def term(self, sort: int) -> StringTerm:
        """A generic term of the given sort: p_i + 1 + ... + 1 + p_{i+n}."""
        items = [self.word()]
        for _ in range(sort):
            items.append(SEP)
            items.append(self.word())
        return StringTerm(tuple(items))
