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

One matcher, ``_match``, gives the redex an element offers, or else the
reason it is stuck. The worklist below keeps the redexes; at a normal
form that is not one comb, ``diagnose`` keeps the reasons: stuck
structures are data. Every candidate, cyclic linkings included, is
contracted to normal form first; each report names the par link, cross
link or self-feeding comb left that it is about.

The engine is a worklist. A ready table maps each live element to the
redex it offers, structural elements (combs, cross links) apart from
par links; every element is matched once at the start. Redexes fire
in a fixed order, structural redexes by element id, then par redexes
by id: the next step fires the lowest-id structural redex, else the
lowest-id par redex. After a step with result comb R, the consumed
elements leave the table and only these are matched again: R; the par
links that conclude a point in R's row; the combs and par links that
conclude a point the step moved into R's row; the element whose
premiss is R's conclusion. A comb matched again while its consumer
stays the same keeps its ready [+] redex.

Why that is enough: the role maps ``concl_of`` and ``premiss_at`` give,
for each point, the id of the element that concludes it and of the one
it is a premiss of, and element ids never collide with point ids, so
``eid in aps.combs`` tells whether a role is played by a comb. A match
reads only the role maps at its own points and the rows of the combs
they name, plus the liveness of the par links whose reserved separators
sit in those rows. A step changes R's row and conclusion, deletes
consumed elements with their private points, and moves points into R:
the row of the comb a [+] or [x] splices in, the premiss vertex a [*]
or [o] puts in R's row. Only the moved points get a new ``premiss_at``,
R. So a surviving element whose reading changed either reads R through
its own premiss or tether points (then it is R's consumer, or a par
link with tether points in R's row), or reads ``premiss_at`` of its own
conclusion, which changes only at a moved point (a comb or par link
that concludes one; a cross link never reads its conclusion), or is R
itself. The par link a step fires had its tether block, hence every
reserved separator of it still present, inside R, so the crosses its
death unblocks read R as a premiss comb. Each rewrite keeps the table
equal to what a full rescan would find, which the differential test in
``tests/test_contraction.py`` checks redex list by redex list.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import proofstructure as pstruct
from .aps import APS, GroupSep, is_separator, show_item, to_aps
from .terms import SEP, Mode, StringTerm


@dataclass
class Redex:
    rule: str           # "+", "x", "\\", "/", "^", "!", "*", "o"
    mode: Mode | None
    element: int        # comb id ([+]), cross id, or par id
    comb: int           # target comb id
    data: tuple = ()    # rule-specific positions


def _label(rule: str, mode: Mode | None) -> str:
    """A rule's tag in traces and stuck reports, such as ``x>`` or ``+``."""
    return rule + (str(mode) if mode is not None else "")


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
        return " ".join(map(show_item, self.items))


@dataclass
class StuckReport:
    element: int
    tag: str
    reason: str

    def fmt(self):
        kind = "comb" if self.tag == "+" else "cross" if self.tag[0] == "x" else "par"
        return f"{kind} {self.element} [{self.tag}]: {self.reason}"


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
        row.append(q)
    return row


def _slice_matches(row, i, block) -> bool:
    if i < 0 or i + len(block) > len(row):
        return False
    for got, want in zip(row[i:i + len(block)], block):
        if type(want) is int:
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
    """Index of the mode-designated separator of a comb row, or the
    reason there is none.

    The separator must be exposed: the sort of the prefix before it has
    to be 0 (mode >) or n-1 (mode n); mode < is mode > read from the
    right. A higher-sort point hides its separators, so rows can fail
    here until inner material has contracted; a separator reserved by a
    pending par link blocks the cross until that link fires."""
    want = mode.index - 1 if mode.kind == "@" else 0
    order = range(len(row) - 1, -1, -1) if mode.kind == "<" else range(len(row))
    acc = 0
    for i in order:
        it = row[i]
        if is_separator(it):
            if acc == want:
                if not _sep_available(aps, it, insert_row):
                    return "separator is reserved by a pending par link"
                return i
            acc += 1
        else:
            acc += aps.item_sort(it)
            if acc > want:
                return f"separator {mode} hidden inside a point"
    return f"row has no separator for mode {mode}"


def _match_cross(aps, t):
    left = aps.concl_of.get(t.left)
    if left not in aps.combs:
        return f"left premiss v{t.left} is not a comb conclusion"
    right = aps.concl_of.get(t.right)
    if right not in aps.combs:
        return f"right premiss v{t.right} is not a comb conclusion"
    pos = _designated_sep(aps, aps.combs[left].row, t.mode, aps.combs[right].row)
    return pos if type(pos) is str else Redex("x", t.mode, t.tid, left, (right, pos))


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
    """The redex par link ``p`` offers, or the reason it is stuck. Its
    rule strips its block off a comb or replaces a pattern of its blocks
    by one item; the module docstring gives both shapes."""
    if p.tag not in ("*", "o"):
        cid = aps.concl_of.get(p.premiss)
        if cid not in aps.combs:
            return f"premiss v{p.premiss} is not a comb conclusion yet"
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
            return short
        if not _slice_matches(row, 0, prefix):
            return bad_prefix
        if not _slice_matches(row, len(row) - len(suffix), suffix):
            return bad_suffix
        return Redex(p.tag, p.mode, p.pid, cid, (len(prefix), len(suffix)))
    first = p.groups[0][0]
    at = aps.premiss_at[first]  # a tether point only ever sits in a comb row
    row = aps.combs[at].row
    i = row.index(first)
    pattern = block if p.tag == "^" else prefix + _block_items(p, 1) + suffix
    if not _slice_matches(row, i, pattern):
        return _REPLACES[p.tag].format(first)
    if p.tag == "^":
        if at != cid:
            return "auxiliary block lies outside the premiss comb"
        # the separator left in the block's place must be the mode's
        pre = aps.row_sort(row[:i])
        if p.mode.slot(aps.points[p.main]) != pre + 1:
            if p.mode.kind == "@":
                return (f"prefix left of the infix has sort {pre}, "
                        f"mode needs {p.mode.index - 1}")
            side = "prefix left" if p.mode.kind == ">" else "suffix right"
            return f"{side} of the infix has nonzero sort"
    return Redex(p.tag, p.mode, p.pid, at, (i, len(pattern)))


def _match(aps: APS, eid: int, ready=None):
    """What element ``eid`` (comb, cross link or par link) gives in the
    current state: the redex it offers, else the reason it is stuck; a
    comb that only waits for the element below it gives None. ``ready``
    is the redex ``eid`` offered before; a comb whose consumer is the
    same gives it back rather than an equal new one."""
    comb = aps.combs.get(eid)
    if comb is None:
        if eid in aps.crosses:
            return _match_cross(aps, aps.crosses[eid])
        return _match_par(aps, aps.pars[eid])
    consumer = aps.premiss_at.get(comb.concl)
    if consumer == eid:
        return "comb feeds itself (cyclic linking)"
    if consumer in aps.combs:
        if ready is not None and ready.comb == consumer:
            return ready
        return Redex("+", None, eid, consumer)
    return None


def _splice(aps: APS, comb, pos: int, spliced) -> None:
    """Put comb ``spliced``'s row in place of item ``pos`` of ``comb``'s
    row; its points become premisses of ``comb``, and it goes."""
    comb.row[pos:pos + 1] = spliced.row
    for it in spliced.row:
        if type(it) is int:
            aps.premiss_at[it] = comb.cid
    del aps.combs[spliced.cid]


def apply_redex(aps: APS, redex: Redex) -> ContractionStep:
    rule = redex.rule
    comb = aps.combs[redex.comb]
    row = comb.row
    if rule == "+":
        fed = aps.combs[redex.element]
        _splice(aps, comb, row.index(fed.concl), fed)
        aps.drop_point(fed.concl)
        return ContractionStep("+", (fed.cid,), comb.cid, comb.concl, tuple(row))

    if rule == "x":
        t = aps.crosses.pop(redex.element)
        right, pos = redex.data
        _splice(aps, comb, pos, aps.combs[right])
        aps.drop_point(t.left)
        aps.drop_point(t.right)
        comb.concl = t.concl
        aps.concl_of[t.concl] = comb.cid
        return ContractionStep(
            _label(rule, t.mode), (t.tid, right), comb.cid, comb.concl, tuple(row))

    par = aps.pars.pop(redex.element)
    if rule in _STRIPS:
        plen, slen = redex.data
        row[:] = row[plen:len(row) - slen]
    else:
        i, n = redex.data
        row[i:i + n] = [SEP if rule == "^" else par.main]
    if rule in ("*", "o"):
        aps.premiss_at[par.main] = comb.cid
    else:
        # the comb now concludes in the par link's main vertex
        aps.drop_point(par.premiss)
        comb.concl = par.main
        aps.concl_of[par.main] = comb.cid
    for group in par.groups:
        for q in group:
            aps.drop_point(q)
    return ContractionStep(_label(rule, par.mode), (par.pid,), comb.cid,
                           comb.concl, tuple(row), par.source)


def diagnose(aps: APS) -> list:
    """Why a normal form is stuck: the reason of each par link, then of
    each cross link, then of each self-feeding comb, by id. Every other
    comb concludes the goal or a link's premiss, so a normal form that
    is not one comb always has an element to report."""
    tagged = [(pid, _label(p.tag, p.mode)) for pid, p in sorted(aps.pars.items())]
    tagged += [(tid, _label("x", t.mode)) for tid, t in sorted(aps.crosses.items())]
    tagged += [(cid, "+") for cid in sorted(aps.combs)]
    return [StuckReport(eid, tag, reason) for eid, tag in tagged
            if type(reason := _match(aps, eid)) is str]


def _moved(aps: APS, redex: Redex):
    """The items a step on ``redex`` moves into its comb's row: the
    spliced row of a [+] or [x], the premiss vertex of a [*] or [o]."""
    if redex.rule in ("+", "x"):
        return aps.combs[redex.element if redex.rule == "+" else redex.data[0]].row
    if redex.rule in ("*", "o"):
        return (aps.pars[redex.element].main,)
    return ()


def contract(aps: APS, select=None) -> ContractionTrace:
    """Contract to normal form. ``select`` picks among the available
    redexes, structural ones by element id, then par ones by id
    (default: the first one); confluence makes the choice irrelevant
    for the outcome."""
    initial = aps.element_count()
    combs, crosses, pars = aps.combs, aps.crosses, aps.pars
    concl_of, premiss_at = aps.concl_of, aps.premiss_at
    structural, logical = {}, {}  # element id -> its ready redex
    for eid in [*combs, *crosses, *pars]:
        redex = _match(aps, eid)
        if type(redex) is Redex:
            (logical if eid in pars else structural)[eid] = redex
    searched = max_touched = initial
    steps = []
    while structural or logical:
        if select is not None:
            redex = select([structural[e] for e in sorted(structural)]
                           + [logical[e] for e in sorted(logical)])
        elif structural:
            redex = structural[min(structural)]
        else:
            redex = logical[min(logical)]
        moved = _moved(aps, redex)
        step = apply_redex(aps, redex)
        steps.append(step)
        if len(steps) > initial:
            raise AssertionError("contraction exceeded its step bound")
        for eid in step.consumed:
            structural.pop(eid, None)
            logical.pop(eid, None)
        # match again what the step can have changed: the result comb,
        # the par links concluding a point in its row, the combs and par
        # links concluding a moved point, and the element taking its
        # conclusion as premiss
        comb = combs[step.result]
        touched = {comb.cid}
        for it in comb.row:
            if type(it) is int and concl_of.get(it) in pars:
                touched.add(concl_of[it])
        for q in moved:
            if type(q) is int:
                role = concl_of.get(q)
                if role is not None and role not in crosses:
                    touched.add(role)
        consumer = premiss_at.get(comb.concl)
        if consumer is not None:
            touched.add(consumer)
        for eid in touched:
            table = logical if eid in pars else structural
            redex = _match(aps, eid, table.get(eid))
            if type(redex) is Redex:
                table[eid] = redex
            else:
                table.pop(eid, None)
        searched += len(touched)
        max_touched = max(max_touched, len(touched))
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
    aps = to_aps(ps, hyp_terms, sig)
    trace = contract(aps)
    if not trace.contracted:
        return NetVerdict("stuck", ps, hyp_terms, trace)
    comb = aps.final_comb()
    term = aps.final_term()
    assert comb.concl == ps.goal, "final comb does not conclude in the goal"
    if expected is not None and term != expected:
        return NetVerdict("string_mismatch", ps, hyp_terms, trace, term)
    return NetVerdict("net", ps, hyp_terms, trace, term)
