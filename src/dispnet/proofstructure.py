"""Proof frames and proof structures.

Unfolding decomposes the hypotheses (positively) and the goal
(negatively) of a sequent into a proof frame: formula occurrences,
the vertices, connected by two-premiss/one-conclusion tensor links and
one-premiss/two-conclusion par links. A vertex is named by its id, the
index of its formula in ``ProofFrame.formulas``. One rule gives every
link. A formula with operator op gets the link L+op when it is positive
and R+op when it is negative. An L link is a tensor for an implication
(/, \\, ^k, !k) and a par for a product or wrap (*, ok); an R link is
the other way round. An implication's result keeps the polarity and its
argument flips it; the two parts of a product or wrap keep it. The one
side of a link (the conclusion of a tensor, the premiss of a par) holds
an implication's result or a product's compound; the two side holds the
other two formulas in the order the compound writes them, the compound
standing in for an implication's result. Read as natural deduction, an
L+op link is the rule op+E and an R+op link the rule op+I.

Par links carry an arrow to their main formula, the compound. Unfolding
bottoms out in atoms; positive atoms produce material, negative atoms
consume it. A proof structure is a frame together with an axiom
linking: a bijection, per atom name, between producer and consumer
occurrences, held as the map ``producer_of`` from each consumer to its
producer. It identifies each consumer with its producer, so every
formula ends up the premiss of at most one link and the conclusion of
at most one link. A consumer atom is only ever a link premiss or the
goal, never a conclusion or a par link's main formula, so a structure
is read off its frame by passing premisses and the goal through the
linking (``ProofStructure.find``); nothing is copied per linking.

Linkings are enumerated by a lazy backtracking search. When the sequent
is anchored in a sentence, the search also follows the first-order
translation of D (Moot 2014): a formula of sort k denotes k+1 string
pieces, so each vertex carries 2k+2 position terms, the start and end
of each piece. Hypotheses are anchored at the token spans of their
pieces: those of a parse's lexical cover, or those of a proved
sequent's string terms in the string its comb must spell, when that
reading is exact (``Anchors.of_terms``; hypotheses with the same sort-0
term and formula share a repeated word in hypothesis order). The goal
is anchored at the whole sentence. Each link passes positions down to
its subformulas by the concatenation or wrap its connective stands for,
with fresh eigen constants (par links) or meta variables (tensor links)
at the junctions it leaves open. An axiom link unifies the positions of
its two atoms. If two distinct constants would meet, no linking that
contains it can spell the sentence, so the search skips every such
linking without contracting it. For the Lambek connectives this is the
span constraint of Fowler (2009).

With or without anchors, the search also skips every linking that
closes a directed cycle in the frame oriented as an essential net
(Lamarche, "Proof nets for intuitionistic linear logic: essential
nets"): a tensor link points from each premiss to its conclusion, an R
par link from its premiss to its main formula, an L par link (*, ok)
from its compound to each of its parts, and an axiom link from its
producer to its consumer. Such a cycle is a cycle in one Danos-Regnier
switching (1989), so a linking that has one is no proof net, and its
structure would only get stuck in contraction.

On the same oriented frame the search skips every linking in which the
withdrawn hypothesis of an R par link (\\I, /I, ^I, !I: the conclusion
that is not the main formula) reaches the goal along a path that
avoids the link's premiss, the body (Lamarche's scope condition). A
net sequentializes (``nd.extract_nd`` reads a proof off it), and in
that proof the hypothesis an introduction withdraws is used only inside
the body's subproof, so every path from it to the goal passes through
the body. An L par link (*E, oE) is not checked: the subproof it scopes
over has no vertex of its own in the frame.

A linking exists only if every atom has as many producers as consumers
(van Benthem's count invariant). ``sequent_mismatches`` reads those
counts off the formulas, so an unbalanced sequent is rejected before it
is unfolded.

Everything a frame holds before the first axiom link is chosen belongs
to one formula: no link, edge, scope or position joins two formula
trees. So a frame is laid out from frame pieces (``lay_out``). A
``FramePiece`` is a run of formulas unfolded on its own, with vertex
ids local to it. One walk unfolds it and, as the first-order reading
does, hands positions down each link as it makes the link. A piece
holds its links, its atom tallies, the scope set of each of its R par
links, and one list of its atom occurrences, each with its polarity
and a position template over the 2k+2 anchor slots of each root and
the fresh points of the piece's own links. Laying the pieces end to
end raises each one's ids by the number of vertices before it; the
search instantiates the templates at the anchors and reads the
essential-net edges off the laid-out links. Unfolding
numbers each formula's subtree contiguously, so a frame does not
depend on how its formulas are split into pieces: a grammar compiles
one piece per entry when it is made (``lexicon.Grammar``), and
``unfold`` builds one piece of a whole sequent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from operator import itemgetter

from . import formula as fm
from .terms import Mode


@dataclass(slots=True)
class Link:
    """A link of a frame. Frames share links (a piece's links serve every
    frame that lays the piece out first), so a link is never changed
    once made; it is not frozen only because frozen links take several
    times as long to make, and laying out a frame makes most of its
    links."""

    kind: str  # "tensor" | "par"
    tag: str   # e.g. "L/", "R*", "L^"
    premisses: tuple
    conclusions: tuple
    mode: Mode | None = None
    main: int | None = None  # par links point at their main formula

    def vertices(self):
        return self.premisses + self.conclusions

    def shifted(self, d):
        """The link with each vertex id raised by ``d``. A tensor link
        has two premisses and one conclusion, a par link the reverse."""
        if self.main is None:
            (a, b), (c,) = self.premisses, self.conclusions
            return Link(self.kind, self.tag, (a + d, b + d), (c + d,), self.mode)
        (a,), (b, c) = self.premisses, self.conclusions
        return Link(self.kind, self.tag, (a + d,), (b + d, c + d), self.mode,
                    self.main + d)

    def fmt(self):
        mode = str(self.mode) if self.mode is not None else ""
        main = f" main={self.main}" if self.main is not None else ""
        return (
            f"{self.kind} {self.tag}{mode} "
            f"[{' '.join(map(str, self.premisses))}] -> "
            f"[{' '.join(map(str, self.conclusions))}]{main}"
        )


def _layout(cls, side):
    """The kind of the link ``side + op``, and its compound (0), first
    operand (1) and second operand (2) in the order ``vertices()`` holds
    them; the module docstring gives the rule."""
    names = fm.OPERANDS[cls]
    if "result" in names:
        result = names.index("result") + 1
        one, two = (result,), tuple(0 if i == result else i for i in (1, 2))
        tensor = side == "L"
    else:
        one, two = (0,), (1, 2)
        tensor = side == "R"
    return ("tensor", two + one) if tensor else ("par", one + two)


_LAYOUT = {side + op: _layout(cls, side)
           for cls, op in fm.OPS.items() for side in "LR"}


def make_link(tag, top, first, second, mode=None) -> Link:
    """The link ``tag`` on compound vertex ``top`` and the vertices of
    its two operands, in the order the formula writes them."""
    kind, (i, j, k) = _LAYOUT[tag]
    v = (top, first, second)
    if kind == "tensor":
        return Link(kind, tag, (v[i], v[j]), (v[k],), mode)
    return Link(kind, tag, (v[i],), (v[j], v[k]), mode, top)


def _unfolding(cls, positive):
    """How ``unfold`` takes a compound formula apart: its link tag, the
    operand (field name and polarity) whose vertex is made first, then
    the other, whether that order is the reverse of the written one, and
    whether the connective has a mode. An argument flips the polarity; a
    result or a part keeps it. The argument is made first under a
    positive implication, the result first under a negative one."""
    names = fm.OPERANDS[cls]
    polarity = [positive != (n == "arg") for n in names]
    first = names.index("arg" if positive else "result") if "arg" in names else 0
    made = [(names[i], polarity[i]) for i in (first, 1 - first)]
    op = fm.OPS[cls]
    return (("L" if positive else "R") + op, *made, first == 1, op in fm.MODED)


_UNFOLDING = {(cls, positive): _unfolding(cls, positive)
              for cls in fm.OPS for positive in (True, False)}


class CountMismatch(ValueError):
    """An atom occurs more often as producer than consumer or vice
    versa; no axiom linking exists."""

    def __init__(self, mismatches):
        self.mismatches = dict(mismatches)  # atom -> (producers, consumers)
        super().__init__(self.mismatches)

    def __str__(self):
        return ", ".join(
            f"{a}: {p} producer(s) vs {c} consumer(s)"
            for a, (p, c) in sorted(self.mismatches.items())
        )


@dataclass
class ProofFrame:
    """The links of a sequent over its vertices 0 to n-1, numbered in
    the order they were made; a vertex id indexes ``formulas``. A frame
    laid out from pieces (``lay_out``) also keeps each piece with the
    offset its ids were raised by, and the sum of their tallies; the
    linking search reads both."""

    formulas: list  # vertex id -> formula
    links: list
    hypotheses: list
    goal: int
    producers: dict = field(default_factory=dict)  # atom -> [vid]
    consumers: dict = field(default_factory=dict)
    pieces: list = field(default_factory=list)  # (piece, offset)
    tally: dict = field(default_factory=dict)  # atom -> (producers, consumers)

    def dump(self) -> str:
        return "\n".join(link.fmt() for link in self.links)


@dataclass
class ProofStructure:
    """A proof frame under an axiom linking, held only as ``producer_of``
    (consumer vertex to producer vertex). The frame is shared by every
    linking of its stream and never changed: ``find`` maps a linked
    consumer vertex to its producer and every other vertex to itself,
    and readers pass link premisses and the goal through it. A
    structure with the empty linking is its frame as it stands, as
    ``nd.net_of_nd`` builds it."""

    frame: ProofFrame
    index: int = 0  # place of the linking in the frame's full stream
    producer_of: dict = field(default_factory=dict)  # consumer -> producer

    def find(self, vid):
        return self.producer_of.get(vid, vid)

    @property
    def goal(self):
        return self.find(self.frame.goal)


# the connectives with two parts, both keeping the polarity: no argument
_PARTS = tuple(cls for cls, names in fm.OPERANDS.items() if "arg" not in names)


def unbalanced(counts) -> dict:
    """The atoms of ``counts`` (atom -> (producers, consumers)) whose
    producers and consumers differ, in name order, with their counts."""
    return {a: (p, c) for a, (p, c) in sorted(counts.items()) if p != c}


def sequent_mismatches(hypotheses, goal) -> dict:
    """What ``count_mismatches`` says of the frame ``unfold`` would build
    for the sequent, read off its formulas without building the frame.

    One walk gives each atom occurrence the polarity ``unfold`` gives its
    vertex: hypotheses are positive and the goal negative, a result keeps
    its formula's polarity, an argument flips it, and the two parts of a
    product or wrap keep it. A positive atom is a producer, a negative
    one a consumer."""
    counts = {}  # atom -> [producers, consumers]
    stack = [(goal, 1)] + [(h, 0) for h in hypotheses]
    while stack:
        f, side = stack.pop()
        while type(f) is not fm.Atom:
            if type(f) in _PARTS:
                stack.append((f.left, side))
                f = f.right
            else:
                stack.append((f.arg, 1 - side))
                f = f.result
        counts.setdefault(f.name, [0, 0])[side] += 1
    return unbalanced(counts)


@dataclass(slots=True)
class FramePiece:
    """Formulas unfolded side by side, each positive as a hypothesis or
    negative as a goal, with vertex ids local to the piece: each
    formula's subtree is numbered contiguously after the ones before,
    from 0. Before an axiom link is chosen, every link, edge, scope set
    and position of a frame lies inside one formula's subtree, so a
    piece is built once and laid out in any frame at an id offset
    (``lay_out``). One walk makes its links, tallies and atom list;
    ``lay_out`` reads the atom list for the frame's producers and
    consumers, and ``_positions`` for its atoms' positions. Frames and
    grammars share pieces, so nothing changes a piece once it is
    built."""

    formulas: list
    links: list
    roots: list   # the vertex of each formula, in order
    atoms: list   # per atom vertex, in the order unfold reaches it: (atom,
                  # vid, whether it is a producer, its points as a getter
                  # on the piece's points)
    tally: dict   # atom -> [producers, consumers]
    scopes: list  # per R par link: (what its hypothesis reaches around its body, body)
    fresh: tuple  # per fresh point of the piece's links: whether it is a constant

    @classmethod
    def of(cls, signed, sig) -> FramePiece:
        """Unfold each formula of ``signed``, (formula, positive) pairs,
        in turn by leftmost-outermost decomposition: each link's two new
        vertices are made before either is unfolded. The same walk hands
        down positions over the piece's points: each root holds 2k+2
        anchor slots, the roots' slots coming first in root order, and
        each link passes its compound's positions to its operands by
        ``_split`` as it is made, the junctions it leaves open being new
        points after all slots: eigen constants at a par link, meta
        variables at a tensor link. The formulas are assumed well-sorted
        under sig."""
        formulas, links, roots, atoms, fresh = [], [], [], [], []
        tally = {}
        bounds = list(accumulate((2 * sig.sort_of(f) + 2 for f, _ in signed),
                                 initial=0))
        eigen = False  # whether the link being made is a par link

        def new_points(n):
            start = bounds[-1] + len(fresh)
            fresh.extend([eigen] * n)
            return tuple(range(start, start + n))

        for (formula, positive), start, end in zip(signed, bounds, bounds[1:]):
            roots.append(len(formulas))
            formulas.append(formula)
            # (vertex, polarity, positions) still to unfold, the next on
            # top, so each subtree is unfolded before its right sibling
            stack = [(roots[-1], positive, tuple(range(start, end)))]
            while stack:
                vid, positive, pos = stack.pop()
                f = formulas[vid]
                if type(f) is fm.Atom:
                    atoms.append((f.name, vid, positive, itemgetter(*pos)))
                    tally.setdefault(f.name, [0, 0])[0 if positive else 1] += 1
                    continue
                tag, (xf, xpos), (yf, ypos), swapped, moded = _UNFOLDING[type(f), positive]
                x, y = len(formulas), len(formulas) + 1
                formulas += (getattr(f, xf), getattr(f, yf))
                mode = f.mode if moded else None
                links.append(make_link(tag, vid, y, x, mode) if swapped
                             else make_link(tag, vid, x, y, mode))
                eigen = links[-1].kind == "par"
                split = _split(pos, f, sig, new_points)  # in written order
                stack.append((y, ypos, split[not swapped]))
                stack.append((x, xpos, split[swapped]))
        succ, bodies = _essential_edges(links)
        scopes = []
        for hypothesis, body in bodies:
            seen = set()
            _reach(succ, seen, body, hypothesis, None, [])
            scopes.append((seen, body))
        return cls(formulas, links, roots, atoms, tally, scopes, tuple(fresh))


def tally(pieces) -> dict:
    """Per atom, its (producers, consumers) over ``pieces``: the sum of
    their tallies."""
    out = {}
    for piece in pieces:
        for atom, (p, c) in piece.tally.items():
            q, d = out.get(atom, (0, 0))
            out[atom] = (p + q, c + d)
    return out


def lay_out(pieces, counts) -> ProofFrame:
    """The frame of the pieces' formulas, in order, the last the goal
    and the others hypotheses: the pieces end to end, each one's ids
    raised by the number of vertices before it. ``counts`` is their
    ``tally``. No piece is changed."""
    formulas, links, roots, placed = [], [], [], []
    producers, consumers = {}, {}
    for piece in pieces:
        d = len(formulas)
        placed.append((piece, d))
        formulas += piece.formulas
        roots += [r + d for r in piece.roots]
        links += [link.shifted(d) for link in piece.links] if d else piece.links
        for atom, v, positive, _ in piece.atoms:
            (producers if positive else consumers).setdefault(atom, []).append(v + d)
    return ProofFrame(formulas, links, roots[:-1], roots[-1], producers,
                      consumers, placed, counts)


def unfold(hypotheses, goal, sig) -> ProofFrame:
    """Build the proof frame of a sequent: one piece of all its
    formulas, built here and laid out. All formulas are assumed
    well-sorted under sig."""
    pieces = [FramePiece.of([(h, True) for h in hypotheses] + [(goal, False)], sig)]
    return lay_out(pieces, tally(pieces))


def count_mismatches(frame: ProofFrame) -> dict:
    return unbalanced(frame.tally)


def linking_count(frame: ProofFrame) -> int:
    return math.prod(math.factorial(p) if p == c else 0
                     for p, c in frame.tally.values())


@dataclass(frozen=True)
class Anchors:
    """Where a sequent sits in a sentence. ``hypotheses`` holds, per
    hypothesis, the (start, end) token span of each piece of its string
    (sort + 1 spans); ``goal`` the same for the goal, ``((0, n),)`` for a
    sentence of n tokens."""

    hypotheses: tuple
    goal: tuple

    @classmethod
    def of_terms(cls, sig, hyp_pairs, goal, expected) -> Anchors | None:
        """The anchors of a sequent whose hypotheses ``hyp_pairs``
        ((StringTerm, Formula) pairs) must spell ``expected`` under the
        goal formula ``goal``, read as a sentence whose tokens are the
        words of ``expected``. Returns None unless they are exact: the
        goal and ``expected`` have sort 0, the hypothesis terms hold each
        word as often as ``expected`` does, each term has its formula's
        sort, and each piece of a term is a non-empty run of consecutive
        words. A repeated word's hypotheses must share one sort-0 term
        and formula; swapping two is a symmetry of the frame, so they
        take its occurrences in hypothesis order. Then every piece sits
        at its span, and the goal at the whole string."""
        words = expected.words()
        if expected.sort or sig.sort_of(goal):
            return None
        at = {}  # per word, its places in ``expected`` from last to first
        for i in reversed(range(len(words))):
            at.setdefault(words[i], []).append(i)
        held = {}  # word -> the (term, formula) of each hypothesis holding it
        hypotheses = []
        for pair in hyp_pairs:
            term, formula = pair
            if term.sort != sig.sort_of(formula):
                return None
            spans = []
            for piece in term.pieces():
                places = []
                for w in piece:
                    left = at.get(w)
                    if (not left or held.setdefault(w, pair) != pair
                            or term.sort and len(left) > 1):
                        return None
                    places.append(left.pop())
                if not places or places != list(range(places[0], places[-1] + 1)):
                    return None
                spans.append((places[0], places[-1] + 1))
            hypotheses.append(tuple(spans))
        if any(at.values()):
            return None
        return cls(tuple(hypotheses), ((0, len(words)),))


def _wrap(x, i, y):
    """Positions of x with its i-th separator replaced by y."""
    return x[:2 * i - 1] + y[1:-1] + x[2 * i + 1:]


def _split(f, formula, sig, fresh):
    """Positions of the two immediate subformulas (in field order) of a
    compound formula whose own positions are ``f``; ``fresh(n)`` makes n
    new points for the junctions the connective leaves open."""
    if isinstance(formula, fm.Over):    # C = (C/B).B
        b = f[-1:] + fresh(2 * sig.sort_of(formula.arg) + 1)
        return f[:-1] + b[1:], b
    if isinstance(formula, fm.Under):   # C = A.(A\C)
        a = fresh(2 * sig.sort_of(formula.arg) + 1) + f[:1]
        return a, a[:-1] + f[1:]
    if isinstance(formula, fm.Prod):    # A*B = A.B
        k = 2 * sig.sort_of(formula.left) + 1
        p = fresh(1)
        return f[:k] + p, p + f[k:]
    if isinstance(formula, fm.Up):      # C = (C^kB) wrapped around B
        i = formula.mode.slot(len(f) // 2 - 1)
        b = (f[2 * i - 1],) + fresh(2 * sig.sort_of(formula.arg)) + (f[2 * i],)
        return _wrap(f, i, b), b
    if isinstance(formula, fm.Down):    # C = A wrapped around (A!kC)
        sa = sig.sort_of(formula.arg)
        i = formula.mode.slot(sa)
        a = fresh(2 * i - 1) + (f[0], f[-1]) + fresh(2 * sa + 1 - 2 * i)
        return a, _wrap(a, i, f)
    # AokB = A wrapped around B
    i = formula.mode.slot(sig.sort_of(formula.left))
    k = 2 * i - 1 + 2 * sig.sort_of(formula.right)
    p, q = fresh(2)
    return f[:2 * i - 1] + (p, q) + f[k:], (p,) + f[2 * i - 1:k] + (q,)


def _positions(frame: ProofFrame, anchors: Anchors):
    """The string positions of a frame's atom vertices: each piece's
    templates instantiated at its roots' anchors.

    Returns ``(pos, const)``: ``pos[vid]`` is a tuple of 2k+2 point ids
    for an atom vertex of sort k (start and end of each of its k+1
    pieces), and ``const[point]`` says whether that point is a
    constant. Token positions are constants, shared by every anchor
    that names them. The templates follow the links from each root by
    the connective's concatenation or wrap geometry (``_split``); the
    junctions it leaves open are fresh eigen constants at par links and
    fresh meta variables at tensor links, new points in every frame."""
    const = []
    tokens = {}
    pos = {}
    anchored = iter([*anchors.hypotheses, anchors.goal])
    for piece, d in frame.pieces:
        points = []
        for _ in piece.roots:
            for span in next(anchored):
                for t in span:
                    if t not in tokens:
                        tokens[t] = len(const)
                        const.append(True)
                    points.append(tokens[t])
        points += range(len(const), len(const) + len(piece.fresh))
        const += piece.fresh
        for _, v, _, get in piece.atoms:
            pos[v + d] = get(points)
    return pos, const


def _reach(succ, seen, avoid, v, target, note):
    """Add to ``seen`` every vertex that ``v`` reaches along ``succ``,
    passing neither ``avoid`` nor a vertex already in ``seen``, each
    noted in ``note``; True as soon as ``target`` is reached."""
    stack = []
    if v != avoid and v not in seen:
        seen.add(v)
        note.append((seen, v))
        stack.append(v)
    while stack:
        v = stack.pop()
        if v == target:
            return True
        for w in succ.get(v, ()):
            if w != avoid and w not in seen:
                seen.add(w)
                note.append((seen, w))
                stack.append(w)
    return False


def enumerate_linkings(frame: ProofFrame, anchors: Anchors | None = None):
    """Stream of the proof structures obtained by identifying producer
    atoms with consumer atoms of the same name, for a frame laid out
    from pieces.

    The stream is lazy and deterministic: a backtracking search goes
    through atoms in name order and consumers in vertex-id order, and
    tries the unused producers of each in ascending vertex-id order, so
    linkings come in lexicographic order of their producer permutations.
    Each structure's ``index`` is its place in that order.

    Each link of a producer to a consumer must pass one admission test.
    With ``anchors``, it unifies their string positions (see
    ``_positions``) and is refused where two distinct constants meet: no
    linking below it can spell the anchored sentence. With or without
    anchors, it is refused when the consumer already reaches the
    producer along the frame's essential-net edges and the axiom links
    chosen so far (see the module docstring), as it would close a
    directed cycle, or when it lets the withdrawn hypothesis of an R par
    link reach the goal around the link's body. Links only add paths, so
    a cycle or an escape found at a choice holds for every linking below
    it, and a refusal skips them all. Their places in the order are not
    reused, so indexes stay those of the full stream.

    One walker, ``_reach``, serves both graph tests. Each R par link
    keeps the set of vertices its hypothesis reaches around its body,
    which before the first choice is its piece's scope set laid out; a
    link grows only the sets that hold its producer. One trail records
    the unified points and the vertices added to those sets, and a slot
    pops it back to its length there.

    Raises CountMismatch immediately when some atom is unbalanced (the
    stream would be empty)."""
    mismatches = count_mismatches(frame)
    if mismatches:
        raise CountMismatch(mismatches)
    pos, const = _positions(frame, anchors) if anchors is not None else (None, ())
    # the essential-net edges, read off the laid-out links (which share
    # their tuples), and the pieces' scope sets laid out, for this
    # stream to grow
    succ, _ = _essential_edges(frame.links)
    scopes = [({v + d for v in seen}, body + d)
              for piece, d in frame.pieces for seen, body in piece.scopes]
    # per consumer slot, in search order: its vertex, its atom's sorted
    # producers, their shared used flags, and how many linkings of the
    # full stream lie below one choice at that slot
    consumers, candidates, taken, below = [], [], [], []
    later = math.prod(math.factorial(len(p)) for p in frame.producers.values())
    for atom in sorted(frame.producers):
        producers = sorted(frame.producers[atom])
        used = [False] * len(producers)
        later //= math.factorial(len(producers))
        for j, consumer in enumerate(sorted(frame.consumers[atom])):
            consumers.append(consumer)
            candidates.append(producers)
            taken.append(used)
            below.append(math.factorial(len(producers) - j - 1) * later)

    def stream():
        parent = list(range(len(const)))
        trail = []      # a unified point, or a (reach set, vertex) pair
        reach = partial(_reach, succ)

        def unify(xs, ys):
            for a, b in zip(xs, ys):
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a == b:
                    continue
                if const[a]:
                    if const[b]:
                        return False
                    a, b = b, a
                parent[a] = b
                trail.append(a)
            return True

        def admits(producer, consumer):
            """Whether the link passes the positions, cycle and scopes."""
            if pos is not None and not unify(pos[producer], pos[consumer]):
                return False
            if reach(set(), None, consumer, producer, []):
                return False
            for seen, body in scopes:
                if producer in seen and reach(seen, body, consumer, frame.goal, trail):
                    return False
            return True

        n = len(consumers)
        pick = [-1] * n
        mark = [0] * n  # per slot: len(trail) before its pick
        index = 0
        s = 0
        while s >= 0:
            if s == n:
                yield realize(frame, {consumers[t]: candidates[t][pick[t]]
                                      for t in range(n)}, index)
                index += 1
                s -= 1
                continue
            producers, used, j = candidates[s], taken[s], pick[s]
            if j < 0:
                mark[s] = len(trail)
            else:
                used[j] = False
                del succ[producers[j]]
            for j in range(j + 1, len(producers)):
                if used[j]:
                    continue
                while len(trail) > mark[s]:
                    x = trail.pop()
                    if type(x) is int:
                        parent[x] = x
                    else:
                        x[0].discard(x[1])
                if admits(producers[j], consumers[s]):
                    break
                index += below[s]
            else:
                pick[s] = -1
                s -= 1
                continue
            used[j] = True
            pick[s] = j
            succ[producers[j]] = (consumers[s],)
            s += 1

    return stream()


def _essential_edges(links):
    """The links oriented as an essential net (see the module
    docstring), as each vertex's successors, and each R par link's
    withdrawn hypothesis and body. A vertex is the premiss of at most
    one link; a producer is of none, so the search adds its axiom link
    there."""
    succ = {}
    bodies = []
    for link in links:
        if link.kind == "par" and link.tag[0] == "R":
            targets = (link.main,)
            first, second = link.conclusions
            bodies.append((second if first == link.main else first,
                           link.premisses[0]))
        else:
            targets = link.conclusions
        for v in link.premisses:
            succ[v] = targets
    return succ, bodies


def realize(frame: ProofFrame, producer_of, index=0) -> ProofStructure:
    """The proof structure of ``frame`` under the linking ``producer_of``
    (consumer vertex to producer vertex), the ``index``-th of its
    stream. Links and vertices stay the frame's."""
    return ProofStructure(frame, index, producer_of)

