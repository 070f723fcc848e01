"""Lexical entries, grammar files, and surface matching.

A grammar file is a signature block (``atom sort`` lines) followed by
entries of the form ``head := stringterm : formula``. In every entry
the string term must have the formula's sort (``string.sort ==
sig.sort_of(formula)``) and contain at least one word. Discontinuous idioms live
under a single headword whose string term lists the surface pieces with
separators, e.g. ``rang_up := rang+1+up : (np\\s)^>np``.

For parsing, entries are matched against the token sequence piecewise:
each maximal word run of an entry must occupy consecutive tokens, the
runs must appear in order, and foreign material is only allowed in the
gaps where the entry has separators. ``lexical_covers`` enumerates all
ways to account for every token this way.

A ``Grammar`` compiles its lexicon when it is made: each entry a cover
can use gets its formula's piece of the frame
(``proofstructure.FramePiece``), unfolded positively with its links,
atom occurrences and tallies, scope sets and atom position templates,
and each match of the entry carries that piece. A goal formula's piece
is compiled the first time it is asked for. A sentence's frame is then
its cover's pieces and the goal's laid end to end, with no formula
walked per sentence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from . import formula as fm
from . import terms as tm
from .proofstructure import FramePiece


class GrammarError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class LexEntry:
    headword: str
    string: tm.StringTerm
    formula: "fm.Formula"

    def pieces(self):
        """Maximal word runs of the string term, split at separators."""
        return self.string.pieces()

    def __str__(self):
        return f"{self.headword} := {self.string} : {fm.format_formula(self.formula)}"


class Grammar:
    """A signature and its lexical entries, indexed by first word. The
    frame piece of each entry a cover can use is compiled when the
    grammar is made, and each goal formula's the first time a parse
    asks for it."""

    def __init__(self, signature, entries, goal_default=fm.Atom("s")):
        self.signature = signature
        self.entries = {}  # headword -> [LexEntry]
        for e in entries:
            self.entries.setdefault(e.headword, []).append(e)
        self.goal_default = goal_default
        # first word -> [(entry, its pieces, its frame piece)] in grammar
        # order, the index lexical_covers starts entries from; an entry
        # with an empty piece has no surface anchor and is left out
        self.by_first = {}
        for e in self.all_entries():
            pieces = e.pieces()
            if all(pieces):
                self.by_first.setdefault(pieces[0][0], []).append(
                    (e, pieces, FramePiece.of([(e.formula, True)], signature)))
        self._goal_pieces = {}  # goal formula -> its frame piece

    def goal_piece(self, goal) -> FramePiece:
        """The frame piece of ``goal`` unfolded negatively, compiled
        once per goal formula."""
        piece = self._goal_pieces.get(goal)
        if piece is None:
            piece = FramePiece.of([(goal, False)], self.signature)
            self._goal_pieces[goal] = piece
        return piece

    def all_entries(self):
        return [e for group in self.entries.values() for e in group]

    def __eq__(self, other):
        return (
            isinstance(other, Grammar)
            and self.signature == other.signature
            and self.entries == other.entries
        )


def lookup(grammar: Grammar, word: str) -> list:
    return list(grammar.entries.get(word, ()))


def load_grammar(text: str) -> Grammar:
    """Parse and validate a grammar; raises GrammarError carrying every
    violation found, each prefixed with its line number."""
    sig_lines = []
    entry_lines = []
    violations = []
    for lineno, line in fm.content_lines(text):
        if ":=" in line:
            entry_lines.append((lineno, line))
        elif entry_lines:
            violations.append(
                f"line {lineno}: signature entry {line!r} after first lexical entry"
            )
        else:
            sig_lines.append((lineno, line))
    sorts, bad = fm.read_sorts(sig_lines)
    violations.extend(bad)
    sig = fm.Signature(sorts)

    entries = []
    for lineno, line in entry_lines:
        head, _, rest = line.partition(":=")
        head = head.strip()
        term_text, colon, formula_text = rest.partition(":")
        if not head or not colon:
            violations.append(f"line {lineno}: bad entry {line!r}")
            continue
        try:
            string = tm.parse_term(term_text.strip())
            f = fm.parse_formula(formula_text.strip())
        except ValueError as exc:
            violations.append(f"line {lineno}: {exc}")
            continue
        bad = fm.well_sorted(f, sig)
        if bad:
            violations.extend(f"line {lineno}: {v}" for v in bad)
            continue
        if not string.words():
            violations.append(f"line {lineno}: entry {head} has no words")
        ssort, fsort = string.sort, sig.sort_of(f)
        if ssort != fsort:
            violations.append(
                f"line {lineno}: entry {head}: string sort {ssort} != formula sort {fsort}"
            )
        entries.append(LexEntry(head, string, f))

    if violations:
        raise GrammarError(violations)
    goal = fm.Atom("s") if "s" in sig else fm.Atom(next(iter(sorts), "s"))
    return Grammar(sig, entries, goal_default=goal)


def print_grammar(grammar: Grammar) -> str:
    lines = [grammar.signature.format()]
    for e in grammar.all_entries():
        lines.append(f"{e}\n")
    return "".join(lines)


@dataclass(frozen=True)
class EntryMatch:
    """One entry instance in a cover, with the token span of each piece
    and the entry's compiled frame piece."""

    entry: LexEntry
    spans: tuple  # one (start, end) per piece, in order
    frame_piece: FramePiece = field(compare=False, repr=False)

    @property
    def start(self):
        return self.spans[0][0]


def lexical_covers(grammar: Grammar, tokens) -> list:
    """All ways to cover the token sequence with entry instances.

    A cover is a tuple of EntryMatch, sorted by first-piece position;
    every token belongs to exactly one piece of one instance. Covers are
    enumerated depth-first in grammar order, so the result is
    deterministic.
    """
    out = []
    _search(grammar.by_first, tuple(tokens), out, 0, [], [])
    return out


def _search(by_first, tokens, out, i, open_matches, done):
    """Add to ``out`` every cover of ``tokens`` from token i on, given
    the entries still open and the matches done before i. An open match
    is (entry, pieces, frame piece, spans so far, next piece index)."""
    if i == len(tokens):
        if not open_matches:
            out.append(tuple(sorted(done, key=attrgetter("start"))))
        return
    # continue an open discontinuous entry at token i
    for idx, (entry, pieces, frame_piece, spans, k) in enumerate(open_matches):
        piece = pieces[k]
        if tokens[i:i + len(piece)] == piece:
            new = (entry, pieces, frame_piece, spans + ((i, i + len(piece)),), k + 1)
            rest = open_matches[:idx] + open_matches[idx + 1:]
            _advance(by_first, tokens, out, i + len(piece), rest, new, done)
    # start a new entry at token i
    for entry, pieces, frame_piece in by_first.get(tokens[i], ()):
        piece = pieces[0]
        if tokens[i:i + len(piece)] == piece:
            new = (entry, pieces, frame_piece, ((i, i + len(piece)),), 1)
            _advance(by_first, tokens, out, i + len(piece), list(open_matches),
                     new, done)


def _advance(by_first, tokens, out, i, open_matches, new, done):
    """Go on from token i with the match ``new`` just extended: done if
    it has all its pieces, open otherwise."""
    entry, pieces, frame_piece, spans, k = new
    if k == len(pieces):
        _search(by_first, tokens, out, i, open_matches,
                done + [EntryMatch(entry, spans, frame_piece)])
    else:
        _search(by_first, tokens, out, i, open_matches + [new], done)
