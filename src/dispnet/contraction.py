"""Graph contraction: the proof-net decision procedure.

An abstract proof structure is a proof net exactly when it contracts to
a single comb. Two structural rules and six logical rules rewrite the
structure; every rule removes at least one element (comb, cross link or
par link), so any contraction sequence is at most as long as the
initial element count, and the calculus is confluent, so the engine's
deterministic redex choice (structural before logical, lowest element
id first) is semantically irrelevant.

Rules, on comb rows:

  [+]   a comb whose conclusion is the premiss of another comb is
        spliced into it, left to right; this also disposes of trivial
        one-premiss combs.
  [xk]  a cross link both of whose premisses are comb conclusions,
        where the left row exposes its k-designated separator (mode >:
        a sort-0 prefix then a separator; <: separator then a sort-0
        suffix; n: prefix of sort exactly n-1). The right row is
        inserted in place of that separator.

A par link's withdrawn hypothesis is its tether block: its points
interleaved with separator slots, which match any separator. Its rule
has one of two shapes.

  strip    [\\], [/], [!k]. The block is cut at a slot: at its end
           ([\\]), at its start ([/]), or at the mode's separator, which
           the cut drops ([!k]). The two parts must be the prefix and
           the suffix of the comb that concludes in the par premiss.
           They are stripped off, and what is left between them
           survives with the main vertex as conclusion.
  replace  [^k], [*], [ok]. A pattern must sit where the first tether
           point does: the block ([^k]), the two blocks side by side
           ([*]), or the second block inside the first at the mode's
           separator ([ok]). It is replaced by one item. For [^k] that
           item is a separator, which must be the mode's separator of
           the result, and the block must lie in the comb that
           concludes in the par premiss; that comb then concludes in
           the main vertex. For [*] and [ok] the item is the par link's
           premiss vertex.

Stuck structures are data: each remaining par link reports which
geometric condition failed, in ``ContractionTrace.stuck``.

The engine is a worklist. A ready table maps each live element to the
redex it offers, structural elements (combs, cross links) apart from
par links; every element is matched once at the start, and the next
step fires the lowest-id structural redex, else the lowest-id par
redex, which is the order ``iter_redexes`` lists them in. After a step
with result comb R, the consumed elements leave the table and only
these are matched again: R; the combs and par links that conclude a
point in R's row; the element whose premiss is R's conclusion.

Why that is enough: a match reads only the role maps (``concl_of``,
``premiss_at``) at its own points and the rows of the combs they
name, plus the liveness of the par links whose reserved separators
sit in those rows. A step changes R's row and conclusion, moves the
points of the consumed comb's row into R (their ``premiss_at`` now
names R), and deletes consumed elements with their private points.
So a surviving element whose reading changed either reads R through
its own premiss or tether points (then it is R's consumer, or a par
link with tether points in R), or reads ``premiss_at`` of its own
conclusion, which now lies in R (then it concludes a point in R's
row), or is R itself. The par link a step fires had its tether block,
hence every reserved separator of it still present, inside R, so the
crosses its death unblocks read R as a premiss comb. Each rewrite
keeps the table equal to what a full rescan would find, which the
differential test in ``tests/test_contraction.py`` checks redex list by
redex list.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import proofstructure as pstruct
from .aps import APS, GroupSep, IllFormedComb, Pt, is_separator, to_aps
from .terms import SEP, Mode, StringTerm


@dataclass
class Redex:
    rule: str           # "+", "x", "\\", "/", "^", "!", "*", "o"
    mode: Mode | None
    element: int        # comb id ([+]), cross id, or par id
    comb: int           # target comb id
    data: tuple = ()    # rule-specific positions

    def label(self) -> str:
        return self.rule + (str(self.mode) if self.mode is not None else "")


@dataclass
class ContractionStep:
    rule: str
    consumed: tuple     # element ids removed
    result: int         # comb id produced/extended
    concl: int          # conclusion vertex of the result comb after the step
    items: tuple        # row of the result comb after the step
    source: int | None = None  # proof-structure link index, logical steps

    @property
    def row(self) -> str:
        """The row rendered for traces; only traces that are shown pay
        for it."""
        return _render_row(self.items)


@dataclass
class StuckReport:
    par: int
    tag: str
    reason: str
    source: int | None = None

    def fmt(self):
        return f"par {self.par} [{self.tag}]: {self.reason}"


@dataclass
class ContractionTrace:
    steps: list
    stuck: list          # StuckReport list, empty on success
    initial_elements: int
    max_search_touched: int = 0  # most elements matched in one step
    searched: int = 0            # element matches over the whole run

    @property
    def contracted(self) -> bool:
        return not self.stuck

    def logical_rules(self) -> list:
        return [s.rule for s in self.steps if s.rule[0] not in "+x"]

    def fmt(self) -> str:
        lines = [
            f"[{s.rule}] consumed {','.join(map(str, s.consumed))} -> comb {s.result}: {s.row}"
            for s in self.steps
        ]
        if self.stuck:
            lines.append("stuck:")
            lines.extend("  " + r.fmt() for r in self.stuck)
        return "\n".join(lines)


def _block_items(par, group_idx):
    """The withdrawn hypothesis's shape: its points interleaved with
    separator slots. Slots match any separator item: a wrap that
    replaces a separator by the one-separator string leaves the
    hypothesis as generic as before."""
    group = par.groups[group_idx]
    row = []
    for i, q in enumerate(group):
        if i:
            row.append(SEP)
        row.append(Pt(q))
    return row


def _slice_matches(row, i, block) -> bool:
    if i < 0 or i + len(block) > len(row):
        return False
    for got, want in zip(row[i:i + len(block)], block):
        if isinstance(want, Pt):
            if got != want:
                return False
        elif not is_separator(got):
            return False
    return True


def _sep_available(aps, item, insert_row) -> bool:
    """May a cross link insert this material at this separator?

    Plain separators: always. Tether separators of a live par link:
    only at the designated slot of the circumfix group of a ! or o par
    (that is where the wrapped material belongs), or when the inserted
    row is literally a single separator, which replaces the slot by an
    equal string and keeps the withdrawn hypothesis generic. Anything
    else must wait: either the par link fires first and frees the slot,
    or the material could never have denoted one separator and the
    structure is stuck whatever the order. Once the par link has fired,
    its separators are ordinary string material."""
    if not isinstance(item, GroupSep):
        return True
    par = aps.pars.get(item.par)
    if par is None:
        return True
    if (par.tag in ("!", "o") and item.group == 0
            and item.index == par.mode.slot(len(par.groups[0]) - 1)):
        return True
    return len(insert_row) == 1 and is_separator(insert_row[0])


def _designated_sep(aps, row, mode, insert_row):
    """Index of the mode-designated separator of a comb row, or a
    reason string.

    The separator must be exposed: the sort of the prefix before it has
    to be 0 (mode >), n-1 (mode n), or the suffix after it 0 (mode <).
    A higher-sort point hides its separators, so rows can fail here
    until inner material has contracted; a separator reserved by a
    pending par link blocks the cross until that link fires."""
    if mode.kind == "<":
        for i in range(len(row) - 1, -1, -1):
            if aps.item_sort(row[i]):
                if not is_separator(row[i]):
                    return None, f"separator {mode} hidden inside a point"
                if not _sep_available(aps, row[i], insert_row):
                    return None, "separator is reserved by a pending par link"
                return i, None
        return None, f"row has no separator for mode {mode}"
    want = 0 if mode.kind == ">" else mode.index - 1
    acc = 0
    for i, it in enumerate(row):
        if is_separator(it):
            if acc == want:
                if not _sep_available(aps, it, insert_row):
                    return None, "separator is reserved by a pending par link"
                return i, None
            acc += 1
        else:
            acc += aps.item_sort(it)
            if acc > want:
                return None, f"separator {mode} hidden inside a point"
    return None, f"row has no separator for mode {mode}"


def _match_cross(aps, t):
    left = aps.concl_of.get(t.left)
    if left is None or left[0] != "comb":
        return None, f"left premiss v{t.left} is not a comb conclusion"
    right = aps.concl_of.get(t.right)
    if right is None or right[0] != "comb":
        return None, f"right premiss v{t.right} is not a comb conclusion"
    kl = aps.combs[left[1]]
    kr = aps.combs[right[1]]
    pos, reason = _designated_sep(aps, kl.row, t.mode, kr.row)
    if pos is None:
        return None, reason
    return Redex("x", t.mode, t.tid, kl.cid, (right[1], pos)), None


# The strip rules, with why each fails: the row is too short, or its
# prefix or its suffix is not the block's part.
_STRIPS = {
    "\\": ("withdrawn block is not the comb's prefix",) * 3,
    "/": ("withdrawn block is not the comb's suffix",) * 3,
    "!": ("comb row shorter than the circumfix",
          "circumfix prefix does not match the comb",
          "circumfix suffix does not match the comb"),
}
# The replace rules, with why each fails: the pattern is not in place.
_REPLACES = {
    "^": "tether block of v{} is broken up (separators wrapped or points scattered)",
    "*": "the two component blocks are not adjacent",
    "o": "circumfix and infix blocks are not interleaved correctly",
}


def _match_par(aps, p):
    """The redex par link ``p`` offers, or None and the reason it is
    stuck. Its rule strips its block off a comb or replaces a pattern
    of its blocks by one item; the module docstring gives both shapes."""
    if p.tag not in ("*", "o"):
        producer = aps.concl_of.get(p.premiss)
        if producer is None or producer[0] != "comb":
            return None, f"premiss v{p.premiss} is not a comb conclusion yet"
        cid = producer[1]
    block = _block_items(p, 0)
    if p.tag in ("!", "o"):  # cut at the mode's separator, dropping it
        cut = 2 * p.mode.slot(len(p.groups[0]) - 1) - 1
        prefix, suffix = block[:cut], block[cut + 1:]
    else:  # cut at the block's start ([/]) or end
        cut = 0 if p.tag == "/" else len(block)
        prefix, suffix = block[:cut], block[cut:]
    if p.tag in _STRIPS:
        row = aps.combs[cid].row
        short, bad_prefix, bad_suffix = _STRIPS[p.tag]
        if len(row) < len(prefix) + len(suffix):
            return None, short
        if not _slice_matches(row, 0, prefix):
            return None, bad_prefix
        if not _slice_matches(row, len(row) - len(suffix), suffix):
            return None, bad_suffix
        return Redex(p.tag, p.mode, p.pid, cid, (len(prefix), len(suffix))), None
    first = p.groups[0][0]
    at = aps.premiss_at[first][1]  # a tether point only ever sits in a comb row
    row = aps.combs[at].row
    i = row.index(Pt(first))
    pattern = block if p.tag == "^" else prefix + _block_items(p, 1) + suffix
    if not _slice_matches(row, i, pattern):
        return None, _REPLACES[p.tag].format(first)
    if p.tag == "^":
        if at != cid:
            return None, "auxiliary block lies outside the premiss comb"
        # the separator left in the block's place must be the mode's
        pre = aps.row_sort(row[:i])
        if p.mode.slot(aps.points[p.main]) != pre + 1:
            if p.mode.kind == "@":
                return None, (f"prefix left of the infix has sort {pre}, "
                              f"mode needs {p.mode.index - 1}")
            side = "prefix left" if p.mode.kind == ">" else "suffix right"
            return None, f"{side} of the infix has nonzero sort"
    return Redex(p.tag, p.mode, p.pid, at, (i, len(pattern))), None


def _match_element(aps: APS, eid: int):
    """The redex that element ``eid`` (comb, cross link or par link)
    offers in the current state, or None. The one matcher behind both
    the worklist and ``iter_redexes``."""
    comb = aps.combs.get(eid)
    if comb is not None:
        consumer = aps.premiss_at.get(comb.concl)
        # a comb feeding itself (cyclic linking) is permanently stuck
        if (consumer is not None and consumer[0] == "comb"
                and consumer[1] != eid):
            return Redex("+", None, eid, consumer[1])
        return None
    if eid in aps.crosses:
        return _match_cross(aps, aps.crosses[eid])[0]
    return _match_par(aps, aps.pars[eid])[0]


def iter_redexes(aps: APS):
    """All currently available redexes: structural ones in element-id
    order, then logical ones in par-id order; and the number of
    elements matched to find them."""
    order = sorted(aps.combs.keys() | aps.crosses.keys()) + sorted(aps.pars)
    found = [r for r in (_match_element(aps, eid) for eid in order)
             if r is not None]
    return found, len(order)


def _render_row(row):
    return " ".join(it if isinstance(it, str) else repr(it) for it in row)


def apply_redex(aps: APS, redex: Redex) -> ContractionStep:
    rule = redex.rule
    if rule == "+":
        k1 = aps.combs[redex.element]
        k2 = aps.combs[redex.comb]
        pos = k2.row.index(Pt(k1.concl))
        k2.row[pos:pos + 1] = k1.row
        for it in k1.row:
            if isinstance(it, Pt):
                aps.premiss_at[it.pid] = ("comb", k2.cid)
        aps.drop_point(k1.concl)
        del aps.combs[k1.cid]
        return ContractionStep("+", (k1.cid,), k2.cid, k2.concl,
                               tuple(k2.row))

    if rule == "x":
        t = aps.crosses[redex.element]
        kl = aps.combs[redex.comb]
        kr_cid, pos = redex.data
        kr = aps.combs[kr_cid]
        kl.row[pos:pos + 1] = kr.row
        for it in kr.row:
            if isinstance(it, Pt):
                aps.premiss_at[it.pid] = ("comb", kl.cid)
        aps.drop_point(t.left)
        aps.drop_point(t.right)
        kl.concl = t.concl
        aps.concl_of[t.concl] = ("comb", kl.cid)
        del aps.combs[kr.cid]
        del aps.crosses[t.tid]
        return ContractionStep(
            redex.label(), (t.tid, kr.cid), kl.cid, kl.concl, tuple(kl.row),
            t.source
        )

    par = aps.pars[redex.element]
    comb = aps.combs[redex.comb]
    row = comb.row
    if rule in _STRIPS:
        plen, slen = redex.data
        row[:] = row[plen:len(row) - slen]
    else:
        i, n = redex.data
        row[i:i + n] = [SEP if rule == "^" else Pt(par.main)]
    if rule in ("*", "o"):
        aps.premiss_at[par.main] = ("comb", comb.cid)
    else:
        # the comb now concludes in the par link's main vertex
        aps.drop_point(par.premiss)
        comb.concl = par.main
        aps.concl_of[par.main] = ("comb", comb.cid)
    for group in par.groups:
        for q in group:
            aps.drop_point(q)
    del aps.pars[par.pid]
    return ContractionStep(
        redex.label(), (par.pid,), comb.cid, comb.concl, tuple(row), par.source
    )


def diagnose(aps: APS) -> list:
    reports = []
    for pid in sorted(aps.pars):
        p = aps.pars[pid]
        _, reason = _match_par(aps, p)
        tag = p.tag + (str(p.mode) if p.mode is not None else "")
        reports.append(StuckReport(pid, tag, reason or "no failure recorded", p.source))
    for tid in sorted(aps.crosses):
        t = aps.crosses[tid]
        _, reason = _match_cross(aps, t)
        reports.append(StuckReport(tid, f"x{t.mode}", reason or "blocked", t.source))
    for cid in sorted(aps.combs):
        c = aps.combs[cid]
        if aps.premiss_at.get(c.concl) == ("comb", cid):
            reports.append(StuckReport(cid, "+", "comb feeds itself (cyclic linking)"))
    if not reports and len(aps.combs) > 1:
        reports.append(StuckReport(-1, "+", "disconnected combs remain"))
    return reports


def _neighbours(aps: APS, cid: int) -> set:
    """The elements whose match may change when comb ``cid`` changed:
    the comb itself, the combs and par links concluding a point in its
    row, and the element taking its conclusion as premiss."""
    comb = aps.combs[cid]
    out = {cid}
    for it in comb.row:
        if isinstance(it, Pt):
            role = aps.concl_of.get(it.pid)
            if role is not None and role[0] != "cross":
                out.add(role[1])
    consumer = aps.premiss_at.get(comb.concl)
    if consumer is not None:
        out.add(consumer[1])
    return out


def contract(aps: APS, select=None) -> ContractionTrace:
    """Contract to normal form. ``select`` picks among the available
    redexes, given in ``iter_redexes`` order (default: the first one);
    confluence makes the choice irrelevant for the outcome."""
    initial = aps.element_count()
    structural, logical = {}, {}  # element id -> its ready redex

    def rematch(eids):
        for eid in eids:
            table = logical if eid in aps.pars else structural
            redex = _match_element(aps, eid)
            if redex is None:
                table.pop(eid, None)
            else:
                table[eid] = redex
        return len(eids)

    searched = max_touched = rematch([*aps.combs, *aps.crosses, *aps.pars])
    steps = []
    while structural or logical:
        if select is not None:
            redex = select([structural[e] for e in sorted(structural)]
                           + [logical[e] for e in sorted(logical)])
        elif structural:
            redex = structural[min(structural)]
        else:
            redex = logical[min(logical)]
        step = apply_redex(aps, redex)
        steps.append(step)
        if len(steps) > initial:
            raise AssertionError("contraction exceeded its step bound")
        for eid in step.consumed:
            structural.pop(eid, None)
            logical.pop(eid, None)
        touched = rematch(_neighbours(aps, step.result))
        searched += touched
        max_touched = max(max_touched, touched)
    stuck = [] if aps.is_single_comb() else diagnose(aps)
    return ContractionTrace(steps, stuck, initial, max_touched, searched)


@dataclass
class NetVerdict:
    """Outcome of the proof-net check for one axiom linking."""

    kind: str                 # "net" | "stuck" | "string_mismatch"
    ps: "pstruct.ProofStructure"
    hyp_terms: dict
    trace: ContractionTrace
    comb_term: StringTerm | None = None

    @property
    def is_net(self) -> bool:
        return self.kind == "net"


def is_proof_net(ps, hyp_terms, sig, expected=None) -> NetVerdict:
    """Decide whether a proof structure is a proof net.

    With ``expected`` set (parsing mode), the final comb row must also
    equal that string term; without it, contracting to a comb is
    enough."""
    try:
        aps = to_aps(ps, hyp_terms, sig)
    except IllFormedComb as exc:
        empty = ContractionTrace([], [StuckReport(-1, "+", str(exc))], 0)
        return NetVerdict("stuck", ps, hyp_terms, empty)
    trace = contract(aps)
    if not trace.contracted:
        return NetVerdict("stuck", ps, hyp_terms, trace)
    comb = aps.final_comb()
    term = aps.final_term()
    assert comb.concl == ps.goal, "final comb does not conclude in the goal"
    if expected is not None and term != expected:
        return NetVerdict("string_mismatch", ps, hyp_terms, trace, term)
    return NetVerdict("net", ps, hyp_terms, trace, term)
