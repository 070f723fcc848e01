"""Natural deduction: proof objects, checking, and net round trips.

Proofs are trees of rule applications over hypothesis leaves; every
node carries the string term and formula it concludes, so a proof can
be replayed and audited rule by rule. The smart constructors
(``under_e``, ``up_i``, ...) perform the string arithmetic of each rule
and refuse to build nodes whose geometry is off (a withdrawn hypothesis
that is not a prefix, an infix in a position its mode forbids, and so
on). ``check_nd`` re-derives every node and reports violations instead
of raising, so foreign proof files can be audited.

Two constructions tie proofs to proof nets:

* ``net_of_nd`` builds, by induction on the proof, a proof structure
  with the same hypotheses whose abstract proof structure contracts to
  a comb labelled by the proof's conclusion; each introduction rule for
  an implication and each elimination rule for a product contributes
  exactly one par link.

* ``extract_nd`` goes the other way: given a verdict that a structure
  is a net, it reads a natural deduction proof off the structure and
  the verdict's contraction trace, which is a sequentialization. Every
  tensor link and every implication par link is the one rule that
  concludes its conclusion (or main) vertex; each product-style par
  link becomes an elimination wrapped around the proof of the vertex
  its comb concluded when the trace fired it. Nothing is contracted
  again.

``lambek_oracle`` is an independent cut-free sequent prover for the
/, \\, * fragment over sort-0 atoms, used to cross-check derivability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import count

from . import formula as fm
from .aps import to_aps
from .contraction import NetVerdict, contract
from .proofstructure import Link, ProofStructure, Vertex
from .terms import (
    SEP,
    FreshVars,
    Mode,
    StringTerm,
    concat,
    parse_mode,
    parse_term,
    split_at_sep,
    wrap,
)


class NDError(ValueError):
    pass


class ExtractionError(RuntimeError):
    pass


@dataclass(frozen=True)
class Hyp:
    label: int
    term: StringTerm
    formula: "fm.Formula"


@dataclass(frozen=True)
class Rule:
    name: str        # "\\E", "\\I", "/E", "/I", "*I", "*E", "^E", "^I",
                     # "!E", "!I", "oI", "oE"
    children: tuple
    term: StringTerm
    formula: "fm.Formula"
    mode: Mode | None = None
    discharges: tuple = ()


Proof = "Hyp | Rule"


def open_hyps(p) -> dict:
    """Undischarged hypothesis leaves of a proof, keyed by label."""
    if isinstance(p, Hyp):
        return {p.label: p}
    merged = {}
    for child in p.children:
        for label, leaf in open_hyps(child).items():
            if label in merged:
                raise NDError(f"hypothesis label {label} used twice")
            merged[label] = leaf
    for label in p.discharges:
        if label not in merged:
            raise NDError(f"discharge of absent hypothesis {label}")
        del merged[label]
    return merged


def open_leaves_in_order(p) -> list:
    """Open hypothesis leaves, left to right."""
    discharged = set()

    def collect_discharges(n):
        if isinstance(n, Rule):
            discharged.update(n.discharges)
            for c in n.children:
                collect_discharges(c)

    collect_discharges(p)
    out = []

    def walk(n):
        if isinstance(n, Hyp):
            if n.label not in discharged:
                out.append(n)
        else:
            for c in n.children:
                walk(c)

    walk(p)
    return out


def sequent_of(p):
    """(open hypotheses in leaf order, conclusion term, conclusion formula)."""
    return (
        tuple((h.label, h.term, h.formula) for h in open_leaves_in_order(p)),
        p.term,
        p.formula,
    )


# -- smart constructors --------------------------------------------------


def hyp(label, term, formula) -> Hyp:
    return Hyp(label, term, formula)


def _subseq_at(items, block, start=0):
    n = len(block)
    for i in range(start, len(items) - n + 1):
        if items[i:i + n] == block:
            return i
    return None


def _items_sort(items) -> int:
    return StringTerm(tuple(items)).sort


def under_e(l, r) -> Rule:
    if not isinstance(r.formula, fm.Under) or r.formula.arg != l.formula:
        raise NDError("\\E: right premiss must be (left formula)\\C")
    return Rule("\\E", (l, r), concat(l.term, r.term), r.formula.result)


def over_e(l, r) -> Rule:
    if not isinstance(l.formula, fm.Over) or l.formula.arg != r.formula:
        raise NDError("/E: left premiss must be C/(right formula)")
    return Rule("/E", (l, r), concat(l.term, r.term), l.formula.result)


def under_i(label, body) -> Rule:
    h = open_hyps(body).get(label)
    if h is None:
        raise NDError(f"\\I: no open hypothesis {label}")
    n = len(h.term.items)
    if body.term.items[:n] != h.term.items:
        raise NDError("\\I: withdrawn hypothesis is not a prefix of the conclusion")
    rest = StringTerm(body.term.items[n:])
    return Rule("\\I", (body,), rest, fm.Under(h.formula, body.formula),
                discharges=(label,))


def over_i(label, body) -> Rule:
    h = open_hyps(body).get(label)
    if h is None:
        raise NDError(f"/I: no open hypothesis {label}")
    n = len(h.term.items)
    if n and body.term.items[len(body.term.items) - n:] != h.term.items:
        raise NDError("/I: withdrawn hypothesis is not a suffix of the conclusion")
    rest = StringTerm(body.term.items[:len(body.term.items) - n])
    return Rule("/I", (body,), rest, fm.Over(body.formula, h.formula),
                discharges=(label,))


def prod_i(l, r) -> Rule:
    return Rule("*I", (l, r), concat(l.term, r.term), fm.Prod(l.formula, r.formula))


def prod_e(labels, l, body) -> Rule:
    la, lb = labels
    opened = open_hyps(body)
    if la not in opened or lb not in opened:
        raise NDError("*E: both component hypotheses must be open in the body")
    ha, hb = opened[la], opened[lb]
    if not isinstance(l.formula, fm.Prod) or (l.formula.left, l.formula.right) != (
            ha.formula, hb.formula):
        raise NDError("*E: left premiss formula does not match the hypotheses")
    block = ha.term.items + hb.term.items
    i = _subseq_at(body.term.items, block)
    if i is None:
        raise NDError("*E: component strings are not adjacent in the body")
    items = body.term.items[:i] + l.term.items + body.term.items[i + len(block):]
    return Rule("*E", (l, body), StringTerm(items), body.formula,
                discharges=(la, lb))


def up_e(l, r) -> Rule:
    f = l.formula
    if not isinstance(f, fm.Up) or f.arg != r.formula:
        raise NDError("^E: left premiss must be C^k(right formula)")
    return Rule("^E", (l, r), wrap(l.term, f.mode, r.term), f.result, mode=f.mode)


def up_i(mode, label, body) -> Rule:
    h = open_hyps(body).get(label)
    if h is None:
        raise NDError(f"^I: no open hypothesis {label}")
    block = h.term.items
    items = body.term.items
    i, found = 0, None
    while True:
        i = _subseq_at(items, block, i)
        if i is None:
            break
        pre_sort = _items_sort(items[:i])
        post_sort = _items_sort(items[i + len(block):])
        ok = (
            (mode.kind == ">" and pre_sort == 0)
            or (mode.kind == "<" and post_sort == 0)
            or (mode.kind == "@" and pre_sort == mode.index - 1)
        )
        if ok:
            found = i
            break
        i += 1
    if found is None:
        raise NDError(f"^I: hypothesis not an infix at a mode-{mode} position")
    items = items[:found] + (SEP,) + items[found + len(block):]
    return Rule("^I", (body,), StringTerm(items),
                fm.Up(body.formula, h.formula, mode), mode=mode,
                discharges=(label,))


def down_e(l, r) -> Rule:
    f = r.formula
    if not isinstance(f, fm.Down) or f.arg != l.formula:
        raise NDError("!E: right premiss must be (left formula)!kC")
    return Rule("!E", (l, r), wrap(l.term, f.mode, r.term), f.result, mode=f.mode)


def down_i(mode, label, body) -> Rule:
    h = open_hyps(body).get(label)
    if h is None:
        raise NDError(f"!I: no open hypothesis {label}")
    prefix, suffix = split_at_sep(h.term, mode)
    items = body.term.items
    if len(items) < len(prefix) + len(suffix):
        raise NDError("!I: conclusion shorter than the circumfix")
    if items[:len(prefix)] != prefix:
        raise NDError("!I: circumfix prefix does not match the conclusion")
    if len(suffix) and items[len(items) - len(suffix):] != suffix:
        raise NDError("!I: circumfix suffix does not match the conclusion")
    middle = items[len(prefix):len(items) - len(suffix)]
    return Rule("!I", (body,), StringTerm(middle),
                fm.Down(h.formula, body.formula, mode), mode=mode,
                discharges=(label,))


def wrap_i(mode, l, r) -> Rule:
    try:
        term = wrap(l.term, mode, r.term)
    except ValueError as exc:
        raise NDError(f"oI: {exc}") from exc
    return Rule("oI", (l, r), term, fm.Wrap(l.formula, r.formula, mode), mode=mode)


def wrap_e(mode, labels, l, body) -> Rule:
    la, lb = labels
    opened = open_hyps(body)
    if la not in opened or lb not in opened:
        raise NDError("oE: both component hypotheses must be open in the body")
    ha, hb = opened[la], opened[lb]
    f = l.formula
    if not isinstance(f, fm.Wrap) or (f.left, f.right, f.mode) != (
            ha.formula, hb.formula, mode):
        raise NDError("oE: left premiss formula does not match the hypotheses")
    try:
        block = wrap(ha.term, mode, hb.term).items
    except ValueError as exc:
        raise NDError(f"oE: {exc}") from exc
    i = _subseq_at(body.term.items, block)
    if i is None:
        raise NDError("oE: wrapped component string does not occur in the body")
    items = body.term.items[:i] + l.term.items + body.term.items[i + len(block):]
    return Rule("oE", (l, body), StringTerm(items), body.formula, mode=mode,
                discharges=(la, lb))


_RULE_FACTORIES = {
    "\\E": lambda node, kids: under_e(*kids),
    "/E": lambda node, kids: over_e(*kids),
    "*I": lambda node, kids: prod_i(*kids),
    "^E": lambda node, kids: up_e(*kids),
    "!E": lambda node, kids: down_e(*kids),
    "oI": lambda node, kids: wrap_i(node.mode, *kids),
    "\\I": lambda node, kids: under_i(node.discharges[0], kids[0]),
    "/I": lambda node, kids: over_i(node.discharges[0], kids[0]),
    "^I": lambda node, kids: up_i(node.mode, node.discharges[0], kids[0]),
    "!I": lambda node, kids: down_i(node.mode, node.discharges[0], kids[0]),
    "*E": lambda node, kids: prod_e(node.discharges, *kids),
    "oE": lambda node, kids: wrap_e(node.mode, node.discharges, *kids),
}


def check_nd(p, sig) -> list:
    """Audit a proof; returns a list of violations (empty when it
    checks out)."""
    violations = []

    def visit(node, path):
        if isinstance(node, Hyp):
            bad = fm.well_sorted(node.formula, sig)
            if bad:
                violations.append(f"{path}: {'; '.join(bad)}")
            else:
                want = sig.sort_of(node.formula)
                if node.term.sort != want:
                    violations.append(
                        f"{path}: hypothesis term {node.term} has sort "
                        f"{node.term.sort}, formula needs {want}"
                    )
            return
        for i, child in enumerate(node.children):
            visit(child, f"{path}.{i}")
        factory = _RULE_FACTORIES.get(node.name)
        if factory is None:
            violations.append(f"{path}: unknown rule {node.name}")
            return
        try:
            redone = factory(node, node.children)
        except NDError as exc:
            violations.append(f"{path}: {exc}")
            return
        if redone.term != node.term or redone.formula != node.formula:
            violations.append(
                f"{path}: rule {node.name} concludes {redone.term} : "
                f"{fm.format_formula(redone.formula)}, node claims {node.term} : "
                f"{fm.format_formula(node.formula)}"
            )

    try:
        open_hyps(p)
    except NDError as exc:
        violations.append(str(exc))
    visit(p, "root")
    return violations


# -- proof -> proof net (one link per rule) -------------------------------


def net_of_nd(p, sig):
    """Build the proof structure of a checked proof, its abstract proof
    structure, and a contraction trace witnessing that it is a net."""
    bad = check_nd(p, sig)
    if bad:
        raise NDError("; ".join(bad))

    vertices = {}
    links = []
    counter = count()
    hyp_vertex = {}

    def new_vertex(formula):
        vid = next(counter)
        vertices[vid] = Vertex(vid, formula)
        return vid

    def build(node):
        if isinstance(node, Hyp):
            vid = new_vertex(node.formula)
            hyp_vertex[node.label] = vid
            return vid
        name = node.name
        if name == "\\E":
            va, vr = build(node.children[0]), build(node.children[1])
            vc = new_vertex(node.formula)
            links.append(Link("tensor", "L\\", (va, vr), (vc,)))
            return vc
        if name == "/E":
            vl, vb = build(node.children[0]), build(node.children[1])
            vc = new_vertex(node.formula)
            links.append(Link("tensor", "L/", (vl, vb), (vc,)))
            return vc
        if name == "^E":
            vl, vb = build(node.children[0]), build(node.children[1])
            vc = new_vertex(node.formula)
            links.append(Link("tensor", "L^", (vl, vb), (vc,), mode=node.mode))
            return vc
        if name == "!E":
            va, vr = build(node.children[0]), build(node.children[1])
            vc = new_vertex(node.formula)
            links.append(Link("tensor", "L!", (va, vr), (vc,), mode=node.mode))
            return vc
        if name == "*I":
            va, vb = build(node.children[0]), build(node.children[1])
            vc = new_vertex(node.formula)
            links.append(Link("tensor", "R*", (va, vb), (vc,)))
            return vc
        if name == "oI":
            va, vb = build(node.children[0]), build(node.children[1])
            vc = new_vertex(node.formula)
            links.append(Link("tensor", "Ro", (va, vb), (vc,), mode=node.mode))
            return vc
        if name in ("\\I", "/I", "^I", "!I"):
            vbody = build(node.children[0])
            vaux = hyp_vertex[node.discharges[0]]
            vmain = new_vertex(node.formula)
            if name == "\\I":
                links.append(Link("par", "R\\", (vbody,), (vaux, vmain), main=vmain))
            elif name == "/I":
                links.append(Link("par", "R/", (vbody,), (vmain, vaux), main=vmain))
            elif name == "^I":
                links.append(Link("par", "R^", (vbody,), (vmain, vaux),
                                  mode=node.mode, main=vmain))
            else:
                links.append(Link("par", "R!", (vbody,), (vaux, vmain),
                                  mode=node.mode, main=vmain))
            return vmain
        if name in ("*E", "oE"):
            vleft = build(node.children[0])
            vbody = build(node.children[1])
            va = hyp_vertex[node.discharges[0]]
            vb = hyp_vertex[node.discharges[1]]
            tag = "L*" if name == "*E" else "Lo"
            links.append(Link("par", tag, (vleft,), (va, vb),
                              mode=node.mode, main=vleft))
            return vbody
        raise NDError(f"unknown rule {name}")

    goal = build(p)
    leaves = open_leaves_in_order(p)
    hyp_ids = [hyp_vertex[h.label] for h in leaves]
    for i, vid in enumerate(hyp_ids):
        vertices[vid] = replace(vertices[vid], origin=("hyp", i))
    vertices[goal] = replace(vertices[goal], origin=("goal",))
    ps = ProofStructure(vertices, links, hyp_ids, goal)
    terms = {hyp_vertex[h.label]: h.term for h in leaves}
    aps = to_aps(ps, terms, sig)
    trace = contract(aps.clone())
    return ps, terms, aps, trace


# -- proof net -> proof ----------------------------------------------------


def fresh_beyond(terms, prefix="p") -> FreshVars:
    """A fresh-variable source that cannot collide with the words
    already present in the given terms."""
    top = -1
    for term in terms:
        for w in term.words():
            if w.startswith(prefix) and w[len(prefix):].isdigit():
                top = max(top, int(w[len(prefix):]))
    return FreshVars(prefix, top + 1)


_TENSOR_RULES = {
    "L/": lambda link, l, r: over_e(l, r),
    "L\\": lambda link, l, r: under_e(l, r),
    "L^": lambda link, l, r: up_e(l, r),
    "L!": lambda link, l, r: down_e(l, r),
    "R*": lambda link, l, r: prod_i(l, r),
    "Ro": lambda link, l, r: wrap_i(link.mode, l, r),
}

_INTRO_RULES = {
    "R\\": lambda link, aux, body: under_i(aux, body),
    "R/": lambda link, aux, body: over_i(aux, body),
    "R^": lambda link, aux, body: up_i(link.mode, aux, body),
    "R!": lambda link, aux, body: down_i(link.mode, aux, body),
}


def extract_nd(verdict: NetVerdict, sig) -> "Proof":
    """Rebuild a natural deduction proof from a proof-net verdict.

    The contraction is a sequentialization, so the proof is read off
    the structure and its trace in one pass, bottom-up from the goal.
    Each vertex is concluded by the one rule of the link it is the
    conclusion (or main vertex) of; vertices no link concludes are
    hypotheses, and auxiliary vertices are hypotheses with fresh terms.
    A product-style par link becomes an elimination around the proof of
    the vertex its comb concluded when the trace fired it: at that
    point the two withdrawn blocks were adjacent in the comb's row, and
    later steps only substitute into that proof or build on it."""
    if not verdict.is_net and verdict.kind != "string_mismatch":
        raise ExtractionError("extract_nd needs a contractible structure")
    ps = verdict.ps
    fresh = fresh_beyond(verdict.hyp_terms.values())
    concluded_by = {v: link for link in ps.links for v in link.conclusions}
    eliminations = {}  # vertex -> product-style par links, in trace order
    for step in verdict.trace.steps:
        if step.rule[0] in "*o":
            eliminations.setdefault(step.concl, []).append(ps.links[step.source])

    def build(v):
        formula = ps.vertices[v].formula
        link = concluded_by.get(v)
        if link is None:
            proof = Hyp(v, verdict.hyp_terms[v], formula)
        elif link.kind == "tensor":
            proof = _TENSOR_RULES[link.tag](link, *map(build, link.premisses))
        elif link.main == v:
            (aux,) = (u for u in link.conclusions if u != v)
            proof = _INTRO_RULES[link.tag](link, aux, build(link.premisses[0]))
        else:
            proof = Hyp(v, fresh.term(sig.sort_of(formula)), formula)
        for par in eliminations.get(v, ()):
            left = build(par.premisses[0])
            if par.tag == "L*":
                proof = prod_e(par.conclusions, left, proof)
            else:
                proof = wrap_e(par.mode, par.conclusions, left, proof)
        return proof

    try:
        return build(ps.goal)
    except NDError as exc:
        raise ExtractionError(f"rule failed during extraction: {exc}") from exc


# -- random proofs ---------------------------------------------------------


def random_nd_proof(rng: random.Random, sig, max_depth=6, fresh=None,
                    labels=None):
    """A random checked proof, grown top-down from a random goal.

    Rule choices respect the sort discipline; moves whose string-term
    side conditions fail (a withdrawn hypothesis landing somewhere that
    is not a prefix, components that refuse to sit adjacent, ...) are
    rejected and retried, falling back to an axiom leaf."""
    fresh = fresh or FreshVars()
    labels = labels if labels is not None else count()

    def invent(budget):
        return fm.random_formula(rng, sig, budget)

    def mode_for(check):
        for _ in range(6):
            m = rng.choice((Mode(">"), Mode("<"), Mode("@", 1), Mode("@", 2)))
            if check(m):
                return m
        return None

    def split(musts):
        left, right = [], []
        for h in musts:
            (left if rng.random() < 0.5 else right).append(h)
        return tuple(left), tuple(right)

    def leaf(goal, musts):
        if len(musts) == 1 and musts[0].formula == goal:
            return musts[0]
        if not musts:
            return Hyp(next(labels), fresh.term(sig.sort_of(goal)), goal)
        return None

    def gen(goal, musts, depth):
        if depth <= 0 or len(musts) > 1 << max(depth, 0):
            return leaf(goal, musts)
        leaf_rate = 0.1 if depth >= 3 else 0.3
        for _ in range(4):
            if rng.random() < leaf_rate:
                got = leaf(goal, musts)
                if got is not None:
                    return got
            try:
                got = one_move(goal, musts, depth)
            except (NDError, fm.IllSorted):
                got = None
            if got is not None:
                return got
        return leaf(goal, musts)

    def one_move(goal, musts, depth):
        moves = ["under_e", "over_e", "up_e", "down_e", "prod_e", "wrap_e"]
        if isinstance(goal, fm.Under):
            moves.append("under_i")
        if isinstance(goal, fm.Over):
            moves.append("over_i")
        if isinstance(goal, fm.Prod):
            moves.append("prod_i")
        if isinstance(goal, fm.Up):
            moves.append("up_i")
        if isinstance(goal, fm.Down):
            moves.append("down_i")
        if isinstance(goal, fm.Wrap):
            moves.append("wrap_i")
        move = rng.choice(moves)
        d = depth - 1

        if move == "under_i":
            h = Hyp(next(labels), fresh.term(sig.sort_of(goal.arg)), goal.arg)
            body = gen(goal.result, musts + (h,), d)
            return under_i(h.label, body) if body is not None else None
        if move == "over_i":
            h = Hyp(next(labels), fresh.term(sig.sort_of(goal.arg)), goal.arg)
            body = gen(goal.result, musts + (h,), d)
            return over_i(h.label, body) if body is not None else None
        if move == "up_i":
            h = Hyp(next(labels), fresh.term(sig.sort_of(goal.arg)), goal.arg)
            body = gen(goal.result, musts + (h,), d)
            return up_i(goal.mode, h.label, body) if body is not None else None
        if move == "down_i":
            h = Hyp(next(labels), fresh.term(sig.sort_of(goal.arg)), goal.arg)
            body = gen(goal.result, musts + (h,), d)
            return down_i(goal.mode, h.label, body) if body is not None else None
        if move == "prod_i":
            ml, mr = split(musts)
            l = gen(goal.left, ml, d)
            r = gen(goal.right, mr, d)
            return prod_i(l, r) if l is not None and r is not None else None
        if move == "wrap_i":
            ml, mr = split(musts)
            l = gen(goal.left, ml, d)
            r = gen(goal.right, mr, d)
            return wrap_i(goal.mode, l, r) if l is not None and r is not None else None

        if move == "under_e":
            a = invent(1)
            if not fm.top_level_ok(fm.Under(a, goal), sig):
                return None
            ml, mr = split(musts)
            l = gen(a, ml, d)
            r = gen(fm.Under(a, goal), mr, d)
            return under_e(l, r) if l is not None and r is not None else None
        if move == "over_e":
            b = invent(1)
            if not fm.top_level_ok(fm.Over(goal, b), sig):
                return None
            ml, mr = split(musts)
            l = gen(fm.Over(goal, b), ml, d)
            r = gen(b, mr, d)
            return over_e(l, r) if l is not None and r is not None else None
        if move == "up_e":
            b = invent(1)
            m = mode_for(lambda m: fm.top_level_ok(fm.Up(goal, b, m), sig))
            if m is None:
                return None
            ml, mr = split(musts)
            l = gen(fm.Up(goal, b, m), ml, d)
            r = gen(b, mr, d)
            return up_e(l, r) if l is not None and r is not None else None
        if move == "down_e":
            a = invent(1)
            m = mode_for(lambda m: fm.top_level_ok(fm.Down(a, goal, m), sig))
            if m is None:
                return None
            ml, mr = split(musts)
            l = gen(a, ml, d)
            r = gen(fm.Down(a, goal, m), mr, d)
            return down_e(l, r) if l is not None and r is not None else None
        if move == "prod_e":
            a, b = invent(1), invent(1)
            ha = Hyp(next(labels), fresh.term(sig.sort_of(a)), a)
            hb = Hyp(next(labels), fresh.term(sig.sort_of(b)), b)
            ml, mr = split(musts)
            l = gen(fm.Prod(a, b), ml, d)
            if l is None:
                return None
            # adjacency of the two components is rare in big bodies:
            # keep the body shallow and retry the placement a few times
            for _ in range(4):
                body = gen(goal, mr + (ha, hb), min(d, 2))
                if body is None:
                    continue
                try:
                    return prod_e((ha.label, hb.label), l, body)
                except NDError:
                    continue
            return None
        if move == "wrap_e":
            a, b = invent(1), invent(1)
            m = mode_for(lambda m: fm.top_level_ok(fm.Wrap(a, b, m), sig))
            if m is None:
                return None
            ha = Hyp(next(labels), fresh.term(sig.sort_of(a)), a)
            hb = Hyp(next(labels), fresh.term(sig.sort_of(b)), b)
            ml, mr = split(musts)
            l = gen(fm.Wrap(a, b, m), ml, d)
            if l is None:
                return None
            for _ in range(4):
                body = gen(goal, mr + (ha, hb), min(d, 2))
                if body is None:
                    continue
                try:
                    return wrap_e(m, (ha.label, hb.label), l, body)
                except NDError:
                    continue
            return None
        raise AssertionError(move)

    while True:
        goal = fm.random_formula(rng, sig, 2)
        p = gen(goal, (), max_depth)
        if p is None or check_nd(p, sig):
            continue
        if isinstance(p, Hyp) and rng.random() < 0.9:
            continue  # keep the corpus mostly nontrivial; axioms stay rare
        return p


# -- independent Lambek oracle ----------------------------------------------


class LambekOracle:
    """Cut-free backward sequent search for the /, \\, * fragment over
    sort-0 atoms, with memoization shared across queries."""

    def __init__(self):
        self.memo = {}

    def derivable(self, hyps, goal) -> bool:
        key = (tuple(hyps), goal)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        result = self._search(tuple(hyps), goal)
        self.memo[key] = result
        return result

    def _search(self, hyps, goal) -> bool:
        if len(hyps) == 1 and hyps[0] == goal:
            return True
        if isinstance(goal, fm.Under):
            if self.derivable((goal.arg,) + hyps, goal.result):
                return True
        if isinstance(goal, fm.Over):
            if self.derivable(hyps + (goal.arg,), goal.result):
                return True
        if isinstance(goal, fm.Prod):
            for k in range(len(hyps) + 1):
                if self.derivable(hyps[:k], goal.left) and self.derivable(
                        hyps[k:], goal.right):
                    return True
        for i, h in enumerate(hyps):
            if isinstance(h, fm.Under):
                for j in range(i + 1):
                    if self.derivable(hyps[j:i], h.arg) and self.derivable(
                            hyps[:j] + (h.result,) + hyps[i + 1:], goal):
                        return True
            elif isinstance(h, fm.Over):
                for j in range(i + 1, len(hyps) + 1):
                    if self.derivable(hyps[i + 1:j], h.arg) and self.derivable(
                            hyps[:i] + (h.result,) + hyps[j:], goal):
                        return True
            elif isinstance(h, fm.Prod):
                if self.derivable(
                        hyps[:i] + (h.left, h.right) + hyps[i + 1:], goal):
                    return True
        return False


def lambek_oracle(hyps, goal, oracle=None) -> bool:
    return (oracle or LambekOracle()).derivable(hyps, goal)


# -- reading equality --------------------------------------------------------


def canonical_proof(p):
    """Rename discharge indices (and the leaves they bind) to dense
    negative integers in first-use order; open hypothesis labels are
    kept, since they identify lexical material."""
    opened = set(open_hyps(p))
    mapping = {}

    def rename(label):
        if label in opened:
            return label
        if label not in mapping:
            mapping[label] = -(len(mapping) + 1)
        return mapping[label]

    def walk(n):
        if isinstance(n, Hyp):
            return Hyp(rename(n.label), n.term, n.formula)
        kids = tuple(walk(c) for c in n.children)
        return replace(n, children=kids,
                       discharges=tuple(rename(l) for l in n.discharges))

    return walk(p)


def proofs_equal(p, q) -> bool:
    return canonical_proof(p) == canonical_proof(q)


# -- serialization ------------------------------------------------------------

_SEXPR_NAMES = {
    "\\E": "under_e", "\\I": "under_i", "/E": "over_e", "/I": "over_i",
    "*I": "prod_i", "*E": "prod_e", "^E": "up_e", "^I": "up_i",
    "!E": "down_e", "!I": "down_i", "oI": "wrap_i", "oE": "wrap_e",
}
_SEXPR_RULES = {v: k for k, v in _SEXPR_NAMES.items()}


def nd_to_sexpr(p) -> str:
    if isinstance(p, Hyp):
        return f'(hyp {p.label} "{p.term}" "{fm.format_formula(p.formula)}")'
    name = _SEXPR_NAMES[p.name]
    parts = [name]
    if p.mode is not None:
        parts.append(str(p.mode))
    parts.extend(str(l) for l in p.discharges)
    parts.extend(nd_to_sexpr(c) for c in p.children)
    return "(" + " ".join(parts) + ")"


def _sexpr_tokens(text):
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            yield c
            i += 1
        elif c == '"':
            j = text.index('"', i + 1)
            yield ("str", text[i + 1:j])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '()"':
                j += 1
            yield ("sym", text[i:j])
            i = j


def _sexpr_read(tokens):
    tok = next(tokens)
    if tok == "(":
        items = []
        while True:
            item = _sexpr_read_or_close(tokens)
            if item is _CLOSE:
                return items
            items.append(item)
    raise NDError(f"unexpected token {tok!r} in proof file")


_CLOSE = object()


def _sexpr_read_or_close(tokens):
    tok = next(tokens)
    if tok == ")":
        return _CLOSE
    if tok == "(":
        items = []
        while True:
            item = _sexpr_read_or_close(tokens)
            if item is _CLOSE:
                return items
            items.append(item)
    return tok


def nd_from_sexpr(text: str):
    """Parse a serialized proof, rebuilding it through the validating
    constructors (so a loaded proof is a checked proof as far as string
    arithmetic goes; run check_nd with a signature for sort checks)."""
    try:
        tree = _sexpr_read(_sexpr_tokens(text))
    except StopIteration:
        raise NDError("truncated proof expression") from None
    return _build_sexpr(tree)


def _build_sexpr(tree):
    if not isinstance(tree, list) or not tree:
        raise NDError(f"bad proof expression {tree!r}")
    head = tree[0]
    if not (isinstance(head, tuple) and head[0] == "sym"):
        raise NDError(f"bad proof expression head {head!r}")
    kind = head[1]
    args = tree[1:]
    if kind == "hyp":
        (_, label), (_, term), (_, formula) = args
        return Hyp(int(label), parse_term(term), fm.parse_formula(formula))
    rule = _SEXPR_RULES.get(kind)
    if rule is None:
        raise NDError(f"unknown proof rule {kind!r}")
    syms = [a[1] for a in args if isinstance(a, tuple) and a[0] == "sym"]
    subs = [_build_sexpr(a) for a in args if isinstance(a, list)]
    if rule in ("\\E", "/E", "*I"):
        f = {"\\E": under_e, "/E": over_e, "*I": prod_i}[rule]
        return f(*subs)
    if rule in ("^E", "!E", "oI"):
        mode = parse_mode(syms[0])
        f = {"^E": up_e, "!E": down_e}.get(rule)
        if f is not None:
            node = f(*subs)
            if node.mode != mode:
                raise NDError(f"{kind}: mode {mode} does not match the formula")
            return node
        return wrap_i(mode, *subs)
    if rule in ("\\I", "/I"):
        f = under_i if rule == "\\I" else over_i
        return f(int(syms[0]), *subs)
    if rule in ("^I", "!I"):
        f = up_i if rule == "^I" else down_i
        return f(parse_mode(syms[0]), int(syms[1]), *subs)
    if rule == "*E":
        return prod_e((int(syms[0]), int(syms[1])), *subs)
    if rule == "oE":
        return wrap_e(parse_mode(syms[0]), (int(syms[1]), int(syms[2])), *subs)
    raise AssertionError(rule)


# -- LaTeX --------------------------------------------------------------------

_LATEX_OPS = {"\\": "\\backslash", "/": "/", "*": "\\bullet",
              "^": "\\uparrow", "!": "\\downarrow", "o": "\\odot"}


def latex_term(term: StringTerm) -> str:
    if not term.items:
        return "\\epsilon"
    return "+".join(
        "\\mathbf{1}" if not isinstance(it, str) else f"\\textit{{{it}}}"
        for it in term.items
    )


def latex_formula(f) -> str:
    def mode_sub(m):
        return f"_{{{m}}}"

    def group(g):
        s = fmt(g)
        return s if isinstance(g, fm.Atom) else f"({s})"

    def fmt(g):
        if isinstance(g, fm.Atom):
            return f"\\mathit{{{g.name}}}"
        if isinstance(g, fm.Over):
            return f"{group(g.result)}/{group(g.arg)}"
        if isinstance(g, fm.Under):
            return f"{group(g.arg)}\\backslash {group(g.result)}"
        if isinstance(g, fm.Prod):
            return f"{group(g.left)}\\bullet {group(g.right)}"
        if isinstance(g, fm.Up):
            return f"{group(g.result)}\\uparrow{mode_sub(g.mode)} {group(g.arg)}"
        if isinstance(g, fm.Down):
            return f"{group(g.arg)}\\downarrow{mode_sub(g.mode)} {group(g.result)}"
        return f"{group(g.left)}\\odot{mode_sub(g.mode)} {group(g.right)}"

    return fmt(f)


def latex_nd(p) -> str:
    def rule_label(node):
        op = _LATEX_OPS[node.name[0]]
        if node.mode is not None:
            op += f"_{{{node.mode}}}"
        kind = node.name[-1]
        if node.discharges:
            subs = ",".join(str(l) for l in node.discharges)
            return f"{op} {kind}_{{{subs}}}"
        return f"{op} {kind}"

    def fmt(node):
        concl = f"{latex_term(node.term)} : {latex_formula(node.formula)}"
        if isinstance(node, Hyp):
            return concl
        premisses = " & ".join(fmt(c) for c in node.children)
        return f"\\infer[{rule_label(node)}]{{{concl}}}{{{premisses}}}"

    return fmt(p)


def latex_trace(trace) -> str:
    lines = ["\\begin{enumerate}"]
    for s in trace.steps:
        lines.append(
            f"\\item $[{s.rule}]$ removes {','.join(map(str, s.consumed))}: "
            f"\\texttt{{{s.row}}}"
        )
    lines.append("\\end{enumerate}")
    return "\n".join(lines)
