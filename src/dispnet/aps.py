"""Abstract proof structures: combs, cross links, par links.

Converting a proof structure to an abstract proof structure erases the
formula labels and keeps only what the correctness check needs. A link's
tag is L (an elimination) or R (an introduction) followed by its
connective's operator; its kind and operator decide what it becomes:

* a tensor link of the concatenation family (L/, L\\, R*) becomes a
  two-premiss comb;
* a tensor link of the wrap family (L^, L!, Ro) stays a mode-tagged
  cross link;
* a par link (R/, R\\, R^, R!, L*, Lo) becomes a par node tagged with
  its operator;
* hypotheses become combs listing their string-term material (words and
  separators) above an unlabeled point;
* each auxiliary input of a par link (an active conclusion standing for
  a hypothesis that will be withdrawn) of sort n is split into n+1
  fresh sort-0 points interleaved with n separators: a comb whose
  points are all tethered to the par link. This is what lets the
  logical contractions check infix/circumfix geometry literally on comb
  rows;
* everything else becomes a plain point.

Tether separators are marked with their origin (par link, group, slot).
While the par link is alive its hypothesis must stay generic, so no
cross link may insert material at a marked separator, with one
exception: the designated slot of the circumfix group of a ! or o par
is exactly where wrapped material belongs. Without the marking, an
eager cross link could consume a block separator that a pending par
link still needs bare, wrecking confluence. A marked separator whose
par link has fired is ordinary string material.

A point is named by its ``int`` id, and so is an element (comb, cross
link, par link). Points keep the ids of the vertices they stand for;
one counter, which starts above every such point, numbers the elements
and the fresh tether points, so no two points or elements share an id. A
comb row holds point ids, words (``str``) and separators
(``Separator``, ``GroupSep``): ``type(item) is int`` tells a point.
The role maps ``concl_of`` and ``premiss_at`` give, for a point, the
id of the element it concludes or is a premiss of; ``eid in
aps.combs`` tells a comb from a link.

A comb has any number of premisses and one conclusion, and no item
occurs twice as a premiss. In an acyclic linking no premiss equals the
conclusion; a cyclic linking's comb may feed itself, which contraction
reports. The sort of a comb row is the sum of its item sorts (words 0,
separators 1, points the sort of the formula they came from, fresh
tether points 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formula as fm
from . import proofstructure as pstruct
from .terms import SEP, Mode, Separator, StringTerm


class SortMismatch(ValueError):
    """A hypothesis string term whose sort differs from its formula."""


@dataclass(frozen=True)
class GroupSep:
    """A separator belonging to a tether group: the ``index``-th
    separator (1-based) of group ``group`` of par link ``par``."""

    par: int
    group: int
    index: int

    def __repr__(self):
        return f"1[{self.par}.{self.group}.{self.index}]"


def is_separator(item) -> bool:
    return isinstance(item, (Separator, GroupSep))


def show_item(item) -> str:
    """A row item as dumps and traces print it: ``v12`` for a point, a
    word as it is, ``1`` or ``1[p.g.i]`` for a separator."""
    if type(item) is int:
        return f"v{item}"
    return item if isinstance(item, str) else repr(item)


@dataclass
class Comb:
    cid: int
    row: list  # items: point id | word str | Separator | GroupSep
    concl: int


@dataclass
class CrossLink:
    tid: int
    mode: Mode
    left: int
    right: int
    concl: int


@dataclass
class ParNode:
    pid: int
    tag: str  # "\\" "/" "^" "!" "*" "o"
    mode: Mode | None
    premiss: int
    main: int  # equals premiss for "*" and "o"
    groups: list  # one ordered tether-point list per auxiliary input
    source: int  # index of the originating proof-structure link


class APS:
    def __init__(self):
        self.points = {}      # point id -> sort
        self.combs = {}       # comb id -> Comb
        self.crosses = {}     # cross link id -> CrossLink
        self.pars = {}        # par link id -> ParNode
        self.concl_of = {}    # point id -> id of the element concluding it
        self.premiss_at = {}  # point id -> id of the element it is a premiss of
        self.conclusion = None
        self._next = 0        # next element or tether point id

    # -- construction helpers -------------------------------------------

    def fresh_id(self):
        i = self._next
        self._next += 1
        return i

    def add_point(self, pid, sort):
        assert pid not in self.points
        self.points[pid] = sort

    def add_comb(self, row, concl):
        cid = self.fresh_id()
        comb = Comb(cid, list(row), concl)
        self.combs[cid] = comb
        assert concl not in self.concl_of, f"point {concl} already produced"
        self.concl_of[concl] = cid
        for it in row:
            if type(it) is int:
                assert it not in self.premiss_at
                self.premiss_at[it] = cid
        return comb

    def add_cross(self, mode, left, right, concl):
        tid = self.fresh_id()
        self.crosses[tid] = CrossLink(tid, mode, left, right, concl)
        self.concl_of[concl] = tid
        self.premiss_at[left] = tid
        self.premiss_at[right] = tid
        return self.crosses[tid]

    def add_par(self, tag, mode, premiss, main, source):
        pid = self.fresh_id()
        par = ParNode(pid, tag, mode, premiss, main, [], source)
        self.pars[pid] = par
        self.premiss_at[premiss] = pid
        if main != premiss:
            self.concl_of[main] = pid
        return par

    def tether(self, par, aux_vertex, sort):
        """Split an auxiliary input into sort+1 tethered points."""
        points = []
        for _ in range(sort + 1):
            q = self.fresh_id()
            self.add_point(q, 0)
            self.concl_of[q] = par.pid
            points.append(q)
        group_idx = len(par.groups)
        row = []
        for i, q in enumerate(points):
            if i:
                row.append(GroupSep(par.pid, group_idx, i))
            row.append(q)
        self.add_comb(row, aux_vertex)
        par.groups.append(points)

    # -- queries ---------------------------------------------------------

    def item_sort(self, item) -> int:
        if type(item) is int:
            return self.points[item]
        if is_separator(item):
            return 1
        return 0

    def row_sort(self, row) -> int:
        return sum(self.item_sort(it) for it in row)

    def element_count(self) -> int:
        return len(self.combs) + len(self.crosses) + len(self.pars)

    def is_single_comb(self) -> bool:
        return (
            not self.crosses
            and not self.pars
            and len(self.combs) == 1
        )

    def final_comb(self) -> Comb:
        assert self.is_single_comb()
        return next(iter(self.combs.values()))

    def final_term(self) -> StringTerm:
        comb = self.final_comb()
        items = []
        for it in comb.row:
            if type(it) is int:
                raise ValueError(f"final comb still references point {it}")
            # a surviving tether separator (its par link long gone) is
            # ordinary string material
            items.append(SEP if isinstance(it, GroupSep) else it)
        return StringTerm(tuple(items))

    def clone(self) -> "APS":
        other = APS()
        other.points = dict(self.points)
        other.combs = {c.cid: Comb(c.cid, list(c.row), c.concl) for c in self.combs.values()}
        other.crosses = {
            t.tid: CrossLink(t.tid, t.mode, t.left, t.right, t.concl)
            for t in self.crosses.values()
        }
        other.pars = {
            p.pid: ParNode(p.pid, p.tag, p.mode, p.premiss, p.main,
                           [list(g) for g in p.groups], p.source)
            for p in self.pars.values()
        }
        other.concl_of = dict(self.concl_of)
        other.premiss_at = dict(self.premiss_at)
        other.conclusion = self.conclusion
        other._next = self._next
        return other

    # -- removal helpers for the contraction engine ----------------------

    def drop_point(self, pid):
        self.points.pop(pid)
        self.concl_of.pop(pid, None)
        self.premiss_at.pop(pid, None)

    def to_text(self) -> str:
        """Deterministic dump for golden tests and trace logs."""
        lines = []
        for cid in sorted(self.combs):
            c = self.combs[cid]
            lines.append(f"comb {cid}: [{' '.join(map(show_item, c.row))}] -> v{c.concl}")
        for tid in sorted(self.crosses):
            t = self.crosses[tid]
            lines.append(f"cross {tid} x{t.mode}: (v{t.left}, v{t.right}) -> v{t.concl}")
        for pid in sorted(self.pars):
            p = self.pars[pid]
            mode = str(p.mode) if p.mode is not None else ""
            groups = " ".join("[" + " ".join(f"v{q}" for q in g) + "]" for g in p.groups)
            lines.append(
                f"par {pid} {p.tag}{mode}: premiss v{p.premiss} main v{p.main} tether {groups}"
            )
        lines.append(f"conclusion v{self.conclusion}")
        return "\n".join(lines)


def to_aps(ps: "pstruct.ProofStructure", hyp_terms: dict, sig) -> APS:
    """Convert a proof structure (plus hypothesis string terms, keyed by
    hypothesis vertex id) to its abstract proof structure.

    The structure's frame is read through its linking: a linked consumer
    vertex gets no point, and link premisses and the goal, the only
    places a consumer occurs, name its producer's point instead."""
    frame, find = ps.frame, ps.find
    aps = APS()
    for vid, formula in enumerate(frame.formulas):
        if vid not in ps.producer_of:
            aps.add_point(vid, sig.sort_of(formula))
    aps._next = max(aps.points, default=-1) + 1
    aps.conclusion = ps.goal

    for h in frame.hypotheses:
        term = hyp_terms[h]
        formula = frame.formulas[h]
        fsort = sig.sort_of(formula)
        if term.sort != fsort:
            raise SortMismatch(
                f"hypothesis v{h}: term {term} has sort {term.sort}, formula "
                f"{fm.format_formula(formula)} has sort {fsort}"
            )
        aps.add_comb(list(term.items), h)

    pending_aux = []
    for idx, link in enumerate(frame.links):
        op = link.tag[1]
        premisses = [find(v) for v in link.premisses]
        if link.kind == "par":
            par = aps.add_par(op, link.mode, premisses[0], link.main, idx)
            pending_aux.append(
                (par, [v for v in link.conclusions if v != link.main]))
        elif op in fm.MODED:
            aps.add_cross(link.mode, *premisses, link.conclusions[0])
        else:
            aps.add_comb(premisses, link.conclusions[0])

    for par, aux in pending_aux:
        for a in aux:
            aps.tether(par, a, aps.points[a])
    return aps
