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
from typing import Callable, NamedTuple

from . import formula as fm
from .aps import to_aps
from .contraction import NetVerdict, contract
from .proofstructure import ProofFrame, ProofStructure, Vertex, make_link
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
    """Open hypothesis leaves, left to right. ``open_hyps`` merges the
    children in order, so its keys are in leaf order."""
    return list(open_hyps(p).values())


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
        # the separator left in the infix's place must be the mode's
        if mode.slot(pre_sort + 1 + post_sort) == pre_sort + 1:
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


class RuleSpec(NamedTuple):
    sexpr: str         # the rule's name in proof files
    premisses: int
    discharges: int
    make: Callable     # (mode m, discharged labels d, premisses p) -> Rule


# Every rule, by name: op+E eliminates the connective op, op+I introduces
# it. In a proof structure an L+op link is the rule op+E and an R+op link
# the rule op+I.
RULES = {
    "\\E": RuleSpec("under_e", 2, 0, lambda m, d, p: under_e(*p)),
    "\\I": RuleSpec("under_i", 1, 1, lambda m, d, p: under_i(*d, *p)),
    "/E": RuleSpec("over_e", 2, 0, lambda m, d, p: over_e(*p)),
    "/I": RuleSpec("over_i", 1, 1, lambda m, d, p: over_i(*d, *p)),
    "*E": RuleSpec("prod_e", 2, 2, lambda m, d, p: prod_e(d, *p)),
    "*I": RuleSpec("prod_i", 2, 0, lambda m, d, p: prod_i(*p)),
    "^E": RuleSpec("up_e", 2, 0, lambda m, d, p: up_e(*p)),
    "^I": RuleSpec("up_i", 1, 1, lambda m, d, p: up_i(m, *d, *p)),
    "!E": RuleSpec("down_e", 2, 0, lambda m, d, p: down_e(*p)),
    "!I": RuleSpec("down_i", 1, 1, lambda m, d, p: down_i(m, *d, *p)),
    "oE": RuleSpec("wrap_e", 2, 2, lambda m, d, p: wrap_e(m, d, *p)),
    "oI": RuleSpec("wrap_i", 2, 0, lambda m, d, p: wrap_i(m, *p)),
}


def apply_rule(name, mode, labels, kids) -> Rule:
    """Build the node of rule ``name`` through its constructor. Raises
    NDError for an unknown rule, a wrong number of premisses or
    discharged labels, or a mode the premisses do not give."""
    if name not in RULES:
        raise NDError(f"unknown rule {name}")
    sexpr, premisses, discharges, make = RULES[name]
    if len(kids) != premisses or len(labels) != discharges:
        raise NDError(f"{sexpr}: takes {premisses} premiss(es) and {discharges} "
                      f"label(s), got {len(kids)} and {len(labels)}")
    node = make(mode, labels, kids)
    if node.mode != mode:
        raise NDError(f"{sexpr}: mode {mode} does not match the formula")
    return node


def check_nd(p, sig) -> list:
    """Audit a proof; returns a list of violations (empty when it
    checks out). An open hypothesis may not share its label with a
    discharged one; a discharge label may be reused in another scope."""
    violations = []
    discharged = set()

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
        discharged.update(node.discharges)
        for i, child in enumerate(node.children):
            visit(child, f"{path}.{i}")
        try:
            redone = apply_rule(node.name, node.mode, node.discharges,
                                node.children)
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
        opened = open_hyps(p)
    except NDError as exc:
        violations.append(str(exc))
        opened = {}
    visit(p, "root")
    return [f"hypothesis label {label} used twice"
            for label in opened if label in discharged] + violations


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
        kids = [build(c) for c in node.children]
        withdrawn = [hyp_vertex[label] for label in node.discharges]
        op, kind = node.name
        names = fm.OPERANDS[fm.CONNECTIVES[op]]
        if "result" not in names:
            # * and o: I joins its premisses into its conclusion, E splits
            # its major premiss into the withdrawn hypotheses
            if kind == "I":
                top = out = new_vertex(node.formula)
                parts = kids
            else:
                (top, out), parts = kids, withdrawn
        else:
            # an implication: I concludes it from its body (the result)
            # and withdrawn hypothesis (the argument), E concludes the
            # major premiss's result from the minor premiss (the argument)
            r = names.index("result")
            out = new_vertex(node.formula)
            if kind == "I":
                top, parts = out, withdrawn * 2
                parts[r] = kids[0]
            else:
                top, parts = kids[r], list(kids)
                parts[r] = out
        tag = ("L" if kind == "E" else "R") + op
        links.append(make_link(tag, top, *parts, node.mode))
        return out

    goal = build(p)
    leaves = open_leaves_in_order(p)
    hyp_ids = [hyp_vertex[h.label] for h in leaves]
    ps = ProofStructure(ProofFrame(vertices, links, hyp_ids, goal))
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


def _rule(link) -> str:
    """The rule a link stands for: L+op is op+E, R+op is op+I."""
    return link.tag[1] + ("E" if link.tag[0] == "L" else "I")


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
    if verdict.kind == "stuck":
        raise ExtractionError("extract_nd needs a contractible structure")
    ps = verdict.ps
    frame, find = ps.frame, ps.find
    fresh = fresh_beyond(verdict.hyp_terms.values())
    concluded_by = {v: link for link in frame.links for v in link.conclusions}
    eliminations = {}  # vertex -> product-style par links, in trace order
    for step in verdict.trace.steps:
        if step.rule[0] in "*o":
            eliminations.setdefault(step.concl, []).append(frame.links[step.source])

    def build(v):
        formula = frame.vertices[v].formula
        link = concluded_by.get(v)
        if link is None:
            proof = Hyp(v, verdict.hyp_terms[v], formula)
        elif link.kind == "tensor":
            proof = apply_rule(_rule(link), link.mode, (),
                               [build(find(u)) for u in link.premisses])
        elif link.main == v:
            aux = tuple(u for u in link.conclusions if u != v)
            proof = apply_rule(_rule(link), link.mode, aux,
                               [build(find(link.premisses[0]))])
        else:
            proof = Hyp(v, fresh.term(sig.sort_of(formula)), formula)
        for par in eliminations.get(v, ()):
            proof = apply_rule(_rule(par), par.mode, par.conclusions,
                               [build(find(par.premisses[0])), proof])
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

    def compound(op, first, second):
        """``first op second`` with a mode under which it is well-sorted,
        or None."""
        if op not in fm.MODED:
            f = fm.connective(op, first, second)
            return f if fm.top_level_ok(f, sig) else None
        m = mode_for(lambda m: fm.top_level_ok(
            fm.connective(op, first, second, m), sig))
        return None if m is None else fm.connective(op, first, second, m)

    def one_move(goal, musts, depth):
        moves = ["\\E", "/E", "^E", "!E", "*E", "oE"]
        if type(goal) in fm.OPS:
            moves.append(fm.OPS[type(goal)] + "I")
        name = rng.choice(moves)
        op, kind = name
        operands = fm.OPERANDS[fm.CONNECTIVES[op]]
        implication = "result" in operands
        d = depth - 1

        if kind == "I" and implication:
            h = Hyp(next(labels), fresh.term(sig.sort_of(goal.arg)), goal.arg)
            body = gen(goal.result, musts + (h,), d)
            if body is None:
                return None
            return apply_rule(name, getattr(goal, "mode", None), (h.label,), [body])
        if kind == "I":
            ml, mr = split(musts)
            l = gen(goal.left, ml, d)
            r = gen(goal.right, mr, d)
            if l is None or r is None:
                return None
            return apply_rule(name, getattr(goal, "mode", None), (), [l, r])

        if implication:
            arg = invent(1)
            major = compound(op, *(goal if n == "result" else arg for n in operands))
            if major is None:
                return None
            ml, mr = split(musts)
            l, r = (gen(major if n == "result" else arg, m, d)
                    for n, m in zip(operands, (ml, mr)))
            if l is None or r is None:
                return None
            return apply_rule(name, getattr(major, "mode", None), (), [l, r])

        a, b = invent(1), invent(1)
        major = compound(op, a, b)
        if major is None:
            return None
        ha = Hyp(next(labels), fresh.term(sig.sort_of(a)), a)
        hb = Hyp(next(labels), fresh.term(sig.sort_of(b)), b)
        ml, mr = split(musts)
        l = gen(major, ml, d)
        if l is None:
            return None
        # adjacency of the two components is rare in big bodies:
        # keep the body shallow and retry the placement a few times
        for _ in range(4):
            body = gen(goal, mr + (ha, hb), min(d, 2))
            if body is None:
                continue
            try:
                return apply_rule(name, getattr(major, "mode", None),
                                  (ha.label, hb.label), [l, body])
            except NDError:
                continue
        return None

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
    kept, since they identify lexical material. The program does not
    call it: each net is one reading. The tests use it as the reference
    for extraction being injective, and the benchmark's tracer still
    wraps it by name."""
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


# -- serialization ------------------------------------------------------------

_BY_SEXPR = {spec.sexpr: name for name, spec in RULES.items()}


def nd_to_sexpr(p) -> str:
    if isinstance(p, Hyp):
        return f'(hyp {p.label} "{p.term}" "{fm.format_formula(p.formula)}")'
    parts = [RULES[p.name].sexpr]
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
            j = text.find('"', i + 1)
            if j < 0:
                raise NDError(f"unterminated string {text[i:i + 20]!r} in proof file")
            yield ("str", text[i + 1:j])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '()"':
                j += 1
            yield ("sym", text[i:j])
            i = j


def _show(tok) -> str:
    if isinstance(tok, str):
        return tok
    return tok[1] if tok[0] == "sym" else f'"{tok[1]}"'


def _sexpr_read(tokens):
    """The next expression: a token, a parenthesized list of expressions,
    or ``)`` where a list ends."""
    tok = next(tokens)
    if tok != "(":
        return tok
    items = []
    while (item := _sexpr_read(tokens)) != ")":
        items.append(item)
    return items


def nd_from_sexpr(text: str):
    """Parse a serialized proof, rebuilding it through the validating
    constructors (so a loaded proof is a checked proof as far as string
    arithmetic goes; run check_nd with a signature for sort checks)."""
    tokens = _sexpr_tokens(text)
    try:
        tree = _sexpr_read(tokens)
    except StopIteration:
        raise NDError("truncated proof expression") from None
    if not isinstance(tree, list):
        raise NDError(f"unexpected token {_show(tree)!r} in proof file")
    rest = next(tokens, None)
    if rest is not None:
        raise NDError(f"trailing material {_show(rest)!r} after the proof")
    return _build_sexpr(tree)


def _label(head, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise NDError(f"{head}: label {text!r} is not an integer") from None


def _build_sexpr(tree):
    if not tree or not isinstance(tree[0], tuple) or tree[0][0] != "sym":
        raise NDError("a proof expression must start with a rule name")
    head, args = tree[0][1], tree[1:]
    if head == "hyp":
        kinds = [a[0] if isinstance(a, tuple) else "(" for a in args]
        if kinds != ["sym", "str", "str"]:
            raise NDError('hyp: expected a label, a "term" and a "formula"')
        (_, label), (_, term), (_, formula) = args
        return Hyp(_label(head, label), parse_term(term), fm.parse_formula(formula))
    name = _BY_SEXPR.get(head)
    if name is None:
        raise NDError(f"unknown proof rule {head!r}")
    moded, discharges = name[0] in fm.MODED, RULES[name].discharges
    syms = [a for a in args if not isinstance(a, list)]
    if len(syms) != moded + discharges or any(a[0] != "sym" for a in syms):
        want = ["a mode"] * moded + [f"{discharges} label(s)"] * (discharges > 0)
        raise NDError(f"{head}: expected {' and '.join(want) or 'no mode or label'}"
                      f", got {' '.join(map(_show, syms)) or 'none'}")
    mode = parse_mode(syms[0][1]) if moded else None
    labels = tuple(_label(head, a[1]) for a in syms[moded:])
    return apply_rule(name, mode, labels,
                      [_build_sexpr(a) for a in args if isinstance(a, list)])


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
    def group(g):
        s = fmt(g)
        return s if isinstance(g, fm.Atom) else f"({s})"

    def fmt(g):
        if isinstance(g, fm.Atom):
            return f"\\mathit{{{g.name}}}"
        a, b = fm.operands(g)
        op = fm.OPS[type(g)]
        if op == "/":
            return f"{group(a)}/{group(b)}"
        mode = f"_{{{g.mode}}}" if op in fm.MODED else ""
        return f"{group(a)}{_LATEX_OPS[op]}{mode} {group(b)}"

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
