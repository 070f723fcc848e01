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
  [\\]  the tethered block of the par link (its withdrawn hypothesis,
        points interleaved with bare separators) is the whole prefix of
        the comb concluding in the par premiss; the rest of the row
        survives with the main vertex as conclusion.
  [/]   mirror image: the block is the whole suffix.
  [^k]  the block is a contiguous infix; it is replaced by one
        separator, and the prefix left of it satisfies the mode's sort
        condition (>: 0, <: suffix 0, n: n-1).
  [!k]  circumfix: the comb is exactly block-prefix + anything +
        block-suffix, split at the block's k-designated separator; the
        middle survives with the main vertex as conclusion.
  [ok]  the first tether group circumfixes the second: prefix + second
        block + suffix occur contiguously in a comb and are replaced by
        the par link's premiss vertex.
  [*]   degenerate circumfix: the two blocks are adjacent and are
        replaced by the premiss vertex.

Stuck structures are data: each remaining par link reports which
geometric condition failed.

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

from dataclasses import dataclass, field

from . import proofstructure as pstruct
from .aps import APS, GroupSep, Pt, is_separator, to_aps
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


STRUCTURAL = ("+", "x")


def _designated_slot(par, group) -> int:
    """Which separator (1-based) of a circumfix group receives the
    wrapped material, per the par link's mode."""
    if par.mode.kind == ">":
        return 1
    if par.mode.kind == "<":
        return len(group) - 1
    return par.mode.index


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


def _find_block(aps, par, group_idx):
    """Locate the tether block inside the comb currently holding its
    first point. Returns (comb, index) or (None, reason)."""
    first = par.groups[group_idx][0]
    where = aps.premiss_at.get(first)
    if where is None or where[0] != "comb":
        return None, f"tether point v{first} is not in a comb row"
    comb = aps.combs[where[1]]
    block = _block_items(par, group_idx)
    for i, it in enumerate(comb.row):
        if it == Pt(first):
            if _slice_matches(comb.row, i, block):
                return (comb, i), None
            return None, (
                f"tether block of v{first} is broken up "
                f"(separators wrapped or points scattered)"
            )
    raise AssertionError(f"premiss map out of sync for v{first}")


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
            and item.index == _designated_slot(par, par.groups[0])):
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


def _match_par(aps, p):
    if p.tag in ("*", "o"):
        return _match_par_product(aps, p)
    return _match_par_implication(aps, p)


def _match_par_implication(aps, p):
    producer = aps.concl_of.get(p.premiss)
    if producer is None or producer[0] != "comb":
        return None, f"premiss v{p.premiss} is not a comb conclusion yet"
    comb = aps.combs[producer[1]]
    block = _block_items(p, 0)
    row = comb.row
    if p.tag == "\\":
        if not _slice_matches(row, 0, block):
            return None, "withdrawn block is not the comb's prefix"
        return Redex("\\", None, p.pid, comb.cid, (len(block),)), None
    if p.tag == "/":
        if not _slice_matches(row, len(row) - len(block), block):
            return None, "withdrawn block is not the comb's suffix"
        return Redex("/", None, p.pid, comb.cid, (len(row) - len(block),)), None
    if p.tag == "^":
        found, reason = _find_block(aps, p, 0)
        if found is None:
            return None, reason
        bcomb, i = found
        if bcomb.cid != comb.cid:
            return None, "auxiliary block lies outside the premiss comb"
        pre, post = row[:i], row[i + len(block):]
        if p.mode.kind == ">" and aps.row_sort(pre) != 0:
            return None, "prefix left of the infix has nonzero sort"
        if p.mode.kind == "<" and aps.row_sort(post) != 0:
            return None, "suffix right of the infix has nonzero sort"
        if p.mode.kind == "@" and aps.row_sort(pre) != p.mode.index - 1:
            return None, (
                f"prefix left of the infix has sort {aps.row_sort(pre)}, "
                f"mode needs {p.mode.index - 1}"
            )
        return Redex("^", p.mode, p.pid, comb.cid, (i, len(block))), None
    if p.tag == "!":
        j = _designated_slot(p, p.groups[0])
        prefix = block[:2 * j - 1]
        suffix = block[2 * j:]
        if len(row) < len(prefix) + len(suffix):
            return None, "comb row shorter than the circumfix"
        if not _slice_matches(row, 0, prefix):
            return None, "circumfix prefix does not match the comb"
        if suffix and not _slice_matches(row, len(row) - len(suffix), suffix):
            return None, "circumfix suffix does not match the comb"
        return Redex("!", p.mode, p.pid, comb.cid, (len(prefix), len(suffix))), None
    raise AssertionError(p.tag)


def _match_par_product(aps, p):
    block_b = _block_items(p, 1)
    block_a = _block_items(p, 0)
    if p.tag == "*":
        pattern = block_a + block_b
    else:
        j = _designated_slot(p, p.groups[0])
        pattern = block_a[:2 * j - 1] + block_b + block_a[2 * j:]
    found, reason = _find_block_start(aps, p.groups[0][0])
    if found is None:
        return None, reason
    comb, i = found
    if not _slice_matches(comb.row, i, pattern):
        if p.tag == "*":
            return None, "the two component blocks are not adjacent"
        return None, "circumfix and infix blocks are not interleaved correctly"
    return Redex(p.tag, p.mode, p.pid, comb.cid, (i, len(pattern))), None


def _find_block_start(aps, first):
    where = aps.premiss_at.get(first)
    if where is None or where[0] != "comb":
        return None, f"tether point v{first} is not in a comb row"
    comb = aps.combs[where[1]]
    for i, it in enumerate(comb.row):
        if it == Pt(first):
            return (comb, i), None
    raise AssertionError(f"premiss map out of sync for v{first}")


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
    if rule == "\\":
        (blen,) = redex.data
        comb.row[:blen] = []
    elif rule == "/":
        (start,) = redex.data
        comb.row[start:] = []
    elif rule == "^":
        i, blen = redex.data
        comb.row[i:i + blen] = [SEP]
    elif rule == "!":
        plen, slen = redex.data
        comb.row[:] = comb.row[plen:len(comb.row) - slen]
    else:  # "*" or "o"
        i, plen = redex.data
        comb.row[i:i + plen] = [Pt(par.main)]
        aps.premiss_at[par.main] = ("comb", comb.cid)

    if rule in ("\\", "/", "^", "!"):
        # the comb now concludes in the par link's main vertex
        aps.drop_point(par.premiss)
        comb.concl = par.main
        aps.concl_of[par.main] = ("comb", comb.cid)
    for group in par.groups:
        for q in group:
            aps.drop_point(q)
    del aps.pars[par.pid]
    return ContractionStep(
        redex.label(), (par.pid,), comb.cid, comb.concl, tuple(comb.row),
        par.source
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

    is_net: bool
    kind: str                 # "net" | "stuck" | "string_mismatch"
    ps: "pstruct.ProofStructure"
    hyp_terms: dict
    trace: ContractionTrace
    comb_term: StringTerm | None = None
    diagnostics: list = field(default_factory=list)

    def describe(self) -> str:
        if self.kind == "net":
            return f"net: {self.comb_term}"
        if self.kind == "string_mismatch":
            return self.diagnostics[0]
        return "stuck: " + "; ".join(r.fmt() for r in self.diagnostics)


def is_proof_net(ps, hyp_terms, sig, expected=None) -> NetVerdict:
    """Decide whether a proof structure is a proof net.

    With ``expected`` set (parsing mode), the final comb row must also
    equal that string term; without it, contracting to a comb is
    enough."""
    from .aps import IllFormedComb

    try:
        aps = to_aps(ps, hyp_terms, sig)
    except IllFormedComb as exc:
        empty = ContractionTrace([], [StuckReport(-1, "+", str(exc))], 0)
        return NetVerdict(False, "stuck", ps, hyp_terms, empty,
                          diagnostics=empty.stuck)
    trace = contract(aps)
    if not trace.contracted:
        return NetVerdict(False, "stuck", ps, hyp_terms, trace,
                          diagnostics=trace.stuck)
    comb = aps.final_comb()
    term = aps.final_term()
    assert comb.concl == ps.goal, "final comb does not conclude in the goal"
    if expected is not None and term != expected:
        return NetVerdict(
            False, "string_mismatch", ps, hyp_terms, trace, term,
            [f"derived string {term} differs from expected {expected}"],
        )
    return NetVerdict(True, "net", ps, hyp_terms, trace, term)
