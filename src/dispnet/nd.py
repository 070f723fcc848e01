"""Natural deduction: proof objects, checking, and net round trips.

Proofs are trees of rule applications over hypothesis leaves; every
node carries the string term and formula it concludes, so a proof can
be replayed and audited rule by rule. ``apply_rule`` builds every node
in one of three shapes: a join (\\E, /E, ^E, !E, *I, oI) concatenates or
wraps its premisses' terms; a strip (\\I, /I, !I) cuts the withdrawn
hypothesis's term off both ends of the body's; a replace (^I, *E, oE)
puts one item where the withdrawn material sits inside the body. It
refuses a node whose geometry is off with an NDError naming the rule.
``check_nd`` re-derives every node and reports violations, each under
its node's path, instead of raising, so foreign proof files can be
audited.

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

``LambekOracle`` is an independent cut-free sequent prover for the
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
from .proofstructure import ProofFrame, ProofStructure, make_link
from .terms import (
    SEP,
    FreshVars,
    Mode,
    Separator,
    StringTerm,
    TermError,
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
    name: str        # a key of RULES: "\\E", "^I", ...
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


# -- the rules -------------------------------------------------------------


def _glue(left: StringTerm, mode, right: StringTerm) -> StringTerm:
    """``left`` and ``right`` joined: concatenated, or ``left`` wrapped
    around ``right`` at the separator ``mode`` picks."""
    return concat(left, right) if mode is None else wrap(left, mode, right)


def _written(spec, arg, result) -> tuple:
    """An implication's argument and result in the order it writes them."""
    return (result, arg) if spec.result == 0 else (arg, result)


def _join(spec, mode, hyps, kids) -> Rule:
    """\\E, /E, ^E, !E, *I, oI: the conclusion's term joins the two
    premisses' terms. An elimination's major premiss is the one on the
    side where its connective writes the result."""
    left, right = kids
    if spec.result < 0:
        formula = fm.connective(spec.name[0], left.formula, right.formula, mode)
    else:
        major, minor = (left, right) if spec.result == 0 else (right, left)
        f = major.formula
        if fm.OPS.get(type(f)) != spec.name[0] or f.arg != minor.formula or (
                mode is not None and f.mode != mode):
            want = fm.connective(spec.name[0], *_written(spec, minor.formula,
                                                         fm.Atom("C")), mode)
            raise NDError(f"{spec.name}: {('left', 'right')[spec.result]} premiss "
                          f"must be {fm.format_formula(want)}, got "
                          f"{fm.format_formula(f)}")
        formula = f.result
    return Rule(spec.name, (left, right), _glue(left.term, mode, right.term),
                formula, mode)


def _strip(spec, mode, hyps, kids) -> Rule:
    """\\I, /I, !I: cut the withdrawn hypothesis's term off both ends of
    the body's: all of it off the start (\\I) or the end (/I), or its
    parts either side of the separator the mode picks (!I). An empty
    part matches anywhere."""
    (body,), (h,) = kids, hyps
    if mode is not None:
        prefix, suffix = split_at_sep(h.term, mode)
    else:  # the hypothesis sits where the connective writes its argument
        prefix, suffix = _written(spec, h.term.items, ())
    items = body.term.items
    end = len(items) - len(suffix)
    if end < len(prefix) or items[:len(prefix)] != prefix or items[end:] != suffix:
        form = StringTerm(prefix + ("...",) + suffix)
        raise NDError(f"{spec.name}: conclusion {body.term} is not of the form {form}")
    return Rule(spec.name, (body,), StringTerm(items[len(prefix):end]),
                fm.connective(spec.name[0], *_written(spec, h.formula, body.formula),
                              mode), mode, (h.label,))


def _replace(spec, mode, hyps, kids) -> Rule:
    """^I, *E, oE: put one item where the withdrawn material first sits
    in the body. For ^I that is the separator, at the first occurrence
    where the mode picks the separator left in its place. For *E and oE
    it is the major premiss's term, in place of the two components
    joined as *I and oI join them."""
    *major, body = kids
    if major:
        (a, b), (major,) = hyps, major
        want = fm.connective(spec.name[0], a.formula, b.formula, mode)
        if major.formula != want:
            raise NDError(f"{spec.name}: left premiss must be "
                          f"{fm.format_formula(want)}, got "
                          f"{fm.format_formula(major.formula)}")
        block, filler = _glue(a.term, mode, b.term).items, major.term.items
        before, formula = None, body.formula
    else:
        (h,) = hyps
        block, filler = h.term.items, (SEP,)
        before = mode.slot(body.term.sort - h.term.sort + 1) - 1
        formula = fm.Up(body.formula, h.formula, mode)
    items, n, seps = body.term.items, len(block), 0
    for i in range(len(items) - n + 1):
        if items[i:i + n] == block and (before is None or seps == before):
            return Rule(spec.name, tuple(kids),
                        StringTerm(items[:i] + filler + items[i + n:]), formula,
                        mode, tuple(h.label for h in hyps))
        if i < len(items) and isinstance(items[i], Separator):
            seps += 1
    where = "" if before is None else f" after {before} separator(s)"
    raise NDError(f"{spec.name}: {StringTerm(block)} does not occur in "
                  f"{body.term}{where}")


class RuleSpec(NamedTuple):
    name: str
    sexpr: str         # the rule's name in proof files
    premisses: int
    discharges: int
    shape: Callable    # _join, _strip or _replace, given the mode, the
                       # withdrawn hypotheses and the premisses
    moded: bool
    result: int        # where the connective writes its result among its
                       # operands, 0 or 1; -1 for * and o, which have none


def _spec(name, sexpr, shape, premisses, discharges) -> RuleSpec:
    names = fm.OPERANDS[fm.CONNECTIVES[name[0]]]
    return RuleSpec(name, sexpr, premisses, discharges, shape, name[0] in fm.MODED,
                    names.index("result") if "result" in names else -1)


# Every rule, by name: op+E eliminates the connective op, op+I introduces
# it. In a proof structure an L+op link is the rule op+E and an R+op link
# the rule op+I.
RULES = {name: _spec(name, *rest) for name, *rest in (
    ("\\E", "under_e", _join, 2, 0),
    ("/E", "over_e", _join, 2, 0),
    ("^E", "up_e", _join, 2, 0),
    ("!E", "down_e", _join, 2, 0),
    ("*I", "prod_i", _join, 2, 0),
    ("oI", "wrap_i", _join, 2, 0),
    ("\\I", "under_i", _strip, 1, 1),
    ("/I", "over_i", _strip, 1, 1),
    ("!I", "down_i", _strip, 1, 1),
    ("^I", "up_i", _replace, 1, 1),
    ("*E", "prod_e", _replace, 2, 2),
    ("oE", "wrap_e", _replace, 2, 2),
)}


def apply_rule(name, mode, labels, kids, opened=None) -> Rule:
    """Build the node of rule ``name`` through its shape. ``opened``
    maps labels to hypothesis leaves, at least the open ones of the
    body, the last premiss, as ``open_hyps`` gives them, or is the
    message of the NDError it raises; by default it is read off the
    body. Raises NDError for an unknown rule, a wrong number of
    premisses or labels, a mode missing from ^, ! or o or given to
    another rule, a body whose hypotheses clash or lack a label,
    premisses the rule does not fit, or a term that lacks the separator
    it needs."""
    spec = RULES.get(name)
    if spec is None:
        raise NDError(f"unknown rule {name}")
    if len(kids) != spec.premisses or len(labels) != spec.discharges:
        raise NDError(f"{spec.sexpr}: takes {spec.premisses} premiss(es) and "
                      f"{spec.discharges} label(s), got {len(kids)} and {len(labels)}")
    if (mode is not None) != spec.moded:
        raise NDError(f"{spec.sexpr}: mode {mode} does not match the formula")
    hyps = ()
    if spec.discharges:
        if opened is None:
            opened = open_hyps(kids[-1])
        elif isinstance(opened, str):
            raise NDError(opened)
        if missing := [label for label in labels if label not in opened]:
            raise NDError(f"{name}: no open hypothesis {missing[0]}")
        hyps = [opened[label] for label in labels]
    try:
        return spec.shape(spec, mode, hyps, kids)
    except TermError as exc:
        raise NDError(f"{name}: {exc}") from exc


def _merged(opened, discharges):
    """What ``open_hyps`` gives a node whose children's open hypotheses
    are ``opened``, each a map by label or the message of the NDError
    ``open_hyps`` raises on that child; the message of the error it
    raises instead. Each map is merged into the largest so far, so the
    maps lose the leaf order, and the children's maps are used up."""
    merged = {}
    for got in opened:
        if type(got) is str:
            return got
        small, large = (got, merged) if len(got) <= len(merged) else (merged, got)
        for label in small:
            if label in large:
                clash = next(label for label in got if label in merged)
                return f"hypothesis label {clash} used twice"
        large.update(small)
        merged = large
    for label in discharges:
        if merged.pop(label, None) is None:
            return f"discharge of absent hypothesis {label}"
    return merged


def check_nd(p, sig) -> list:
    """Audit a proof; returns a list of violations (empty when it
    checks out). An open hypothesis may not share its label with a
    discharged one; a discharge label may be reused in another scope.
    One walk re-derives every node and carries the open hypotheses of
    each subtree up to its parent, which gives the body's to its rule."""
    violations = []
    discharged = set()
    opened = _audit(p, "root", sig, violations, discharged)
    if isinstance(opened, str):
        violations.insert(0, opened)
        opened = {}
    elif opened.keys() & discharged:
        opened = open_hyps(p)  # the labels in leaf order
    return [f"hypothesis label {label} used twice"
            for label in opened if label in discharged] + violations


def _audit(node, path, sig, violations, discharged):
    """Re-derive the subproof ``node`` at ``path``: add its violations to
    ``violations`` and its discharge labels to ``discharged``, and return
    its open hypotheses as ``_merged`` gives them."""
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
        return {node.label: node}
    discharged.update(node.discharges)
    opened = []
    for i, child in enumerate(node.children):
        opened.append(_audit(child, f"{path}.{i}", sig, violations, discharged))
    try:
        redone = apply_rule(node.name, node.mode, node.discharges,
                            node.children, opened[-1] if opened else None)
    except NDError as exc:
        violations.append(f"{path}: {exc}")
    else:
        if redone.term != node.term or redone.formula != node.formula:
            violations.append(
                f"{path}: rule {node.name} concludes {redone.term} : "
                f"{fm.format_formula(redone.formula)}, node claims "
                f"{node.term} : {fm.format_formula(node.formula)}"
            )
    return _merged(opened, node.discharges)


# -- proof -> proof net (one link per rule) -------------------------------


def net_of_nd(p, sig):
    """Build the proof structure of a checked proof, its abstract proof
    structure, and a contraction trace witnessing that it is a net."""
    bad = check_nd(p, sig)
    if bad:
        raise NDError("; ".join(bad))

    formulas = []
    links = []
    hyp_vertex = {}
    goal = _net_links(p, formulas, links, hyp_vertex)
    leaves = open_leaves_in_order(p)
    hyp_ids = [hyp_vertex[h.label] for h in leaves]
    ps = ProofStructure(ProofFrame(formulas, links, hyp_ids, goal))
    terms = {hyp_vertex[h.label]: h.term for h in leaves}
    aps = to_aps(ps, terms, sig)
    trace = contract(aps.clone())
    return ps, terms, aps, trace


def _net_links(node, formulas, links, hyp_vertex):
    """Add the vertices and links of the subproof ``node`` to
    ``formulas`` and ``links``, and each hypothesis leaf's vertex to
    ``hyp_vertex`` by label; returns the vertex of its conclusion."""
    if isinstance(node, Hyp):
        vid = hyp_vertex[node.label] = len(formulas)
        formulas.append(node.formula)
        return vid
    kids = [_net_links(c, formulas, links, hyp_vertex) for c in node.children]
    withdrawn = [hyp_vertex[label] for label in node.discharges]
    op, kind = node.name
    r = RULES[node.name].result
    if r < 0:
        # * and o: I joins its premisses into its conclusion, E splits
        # its major premiss into the withdrawn hypotheses
        if kind == "I":
            top = out = len(formulas)
            formulas.append(node.formula)
            parts = kids
        else:
            (top, out), parts = kids, withdrawn
    else:
        # an implication: I concludes it from its body (the result)
        # and withdrawn hypothesis (the argument), E concludes the
        # major premiss's result from the minor premiss (the argument)
        out = len(formulas)
        formulas.append(node.formula)
        if kind == "I":
            top, parts = out, withdrawn * 2
            parts[r] = kids[0]
        else:
            top, parts = kids[r], list(kids)
            parts[r] = out
    tag = ("L" if kind == "E" else "R") + op
    links.append(make_link(tag, top, *parts, node.mode))
    return out


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
    try:
        return _Extraction(verdict, sig).build(verdict.ps.goal)
    except NDError as exc:
        raise ExtractionError(f"rule failed during extraction: {exc}") from exc


class _Extraction:
    """What ``extract_nd`` reads a proof off: the structure's links by
    the vertex each concludes, its product-style par links by the vertex
    their comb concluded when the trace fired them, and every hypothesis
    leaf made so far. ``build`` recurses; the object holds no reference
    to it."""

    def __init__(self, verdict: NetVerdict, sig):
        ps = verdict.ps
        self.sig, self.frame, self.find = sig, ps.frame, ps.find
        self.hyp_terms = verdict.hyp_terms
        self.fresh = fresh_beyond(verdict.hyp_terms.values())
        self.concluded_by = {v: link for link in ps.frame.links
                             for v in link.conclusions}
        self.eliminations = {}  # vertex -> product-style par links, in trace order
        for step in verdict.trace.steps:
            if step.rule[0] in "*o":
                self.eliminations.setdefault(step.concl, []).append(
                    ps.frame.links[step.source])
        # every hypothesis leaf made so far, by label: the labels are
        # vertex ids, so one map serves every rule, and a withdrawn
        # leaf's fresh words still let the rule's shape check where it
        # sits in the body
        self.made = {}

    def build(self, v):
        """The proof of vertex v."""
        find, made = self.find, self.made
        formula = self.frame.formulas[v]
        link = self.concluded_by.get(v)
        if link is None:
            proof = made[v] = Hyp(v, self.hyp_terms[v], formula)
        elif link.kind == "tensor":
            proof = apply_rule(_rule(link), link.mode, (),
                               [self.build(find(u)) for u in link.premisses])
        elif link.main == v:
            aux = tuple(u for u in link.conclusions if u != v)
            proof = apply_rule(_rule(link), link.mode, aux,
                               [self.build(find(link.premisses[0]))], made)
        else:
            proof = made[v] = Hyp(v, self.fresh.term(self.sig.sort_of(formula)),
                                  formula)
        for par in self.eliminations.get(v, ()):
            proof = apply_rule(_rule(par), par.mode, par.conclusions,
                               [self.build(find(par.premisses[0])), proof], made)
        return proof


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
        spec, d = RULES[name], depth - 1

        if kind == "I" and spec.result >= 0:
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

        if spec.result >= 0:
            arg = invent(1)
            major = compound(op, *_written(spec, arg, goal))
            if major is None:
                return None
            ml, mr = split(musts)
            l, r = (gen(f, m, d) for f, m in zip(_written(spec, arg, major), (ml, mr)))
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


# -- reading equality --------------------------------------------------------


def canonical_proof(p):
    """Rename discharge indices (and the leaves they bind) to dense
    negative integers in first-use order; open hypothesis labels are
    kept, since they identify lexical material. The program does not
    call it: each net is one reading. The tests use it as the reference
    for extraction being injective, and the benchmark's tracer still
    wraps it by name."""
    return _renamed(p, set(open_hyps(p)), {})


def _renamed(n, opened, mapping):
    """``canonical_proof`` of the subproof n, given the open labels and
    the discharge labels renamed so far."""
    if isinstance(n, Hyp):
        return Hyp(_rename(n.label, opened, mapping), n.term, n.formula)
    kids = tuple(_renamed(c, opened, mapping) for c in n.children)
    return replace(n, children=kids,
                   discharges=tuple(_rename(l, opened, mapping)
                                    for l in n.discharges))


def _rename(label, opened, mapping):
    if label in opened:
        return label
    if label not in mapping:
        mapping[label] = -(len(mapping) + 1)
    return mapping[label]


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
    return _build_sexpr(tree)[0]


def _label(head, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise NDError(f"{head}: label {text!r} is not an integer") from None


def _build_sexpr(tree):
    """The proof of an s-expression, and its open hypotheses as
    ``_merged`` gives them: labels may be reused across scopes, so each
    subtree carries its own map up to its parent."""
    if not tree or not isinstance(tree[0], tuple) or tree[0][0] != "sym":
        raise NDError("a proof expression must start with a rule name")
    head, args = tree[0][1], tree[1:]
    if head == "hyp":
        kinds = [a[0] if isinstance(a, tuple) else "(" for a in args]
        if kinds != ["sym", "str", "str"]:
            raise NDError('hyp: expected a label, a "term" and a "formula"')
        (_, label), (_, term), (_, formula) = args
        leaf = Hyp(_label(head, label), parse_term(term), fm.parse_formula(formula))
        return leaf, {leaf.label: leaf}
    name = _BY_SEXPR.get(head)
    if name is None:
        raise NDError(f"unknown proof rule {head!r}")
    moded, discharges = RULES[name].moded, RULES[name].discharges
    syms = [a for a in args if not isinstance(a, list)]
    if len(syms) != moded + discharges or any(a[0] != "sym" for a in syms):
        want = ["a mode"] * moded + [f"{discharges} label(s)"] * (discharges > 0)
        raise NDError(f"{head}: expected {' and '.join(want) or 'no mode or label'}"
                      f", got {' '.join(map(_show, syms)) or 'none'}")
    mode = parse_mode(syms[0][1]) if moded else None
    labels = tuple(_label(head, a[1]) for a in syms[moded:])
    built = [_build_sexpr(a) for a in args if isinstance(a, list)]
    kids, opened = [kid for kid, _ in built], [got for _, got in built]
    node = apply_rule(name, mode, labels, kids, opened[-1] if opened else None)
    return node, _merged(opened, labels)


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
    if isinstance(f, fm.Atom):
        return f"\\mathit{{{f.name}}}"
    a, b = fm.operands(f)
    op = fm.OPS[type(f)]
    if op == "/":
        return f"{_latex_group(a)}/{_latex_group(b)}"
    mode = f"_{{{f.mode}}}" if op in fm.MODED else ""
    return f"{_latex_group(a)}{_LATEX_OPS[op]}{mode} {_latex_group(b)}"


def _latex_group(g) -> str:
    """g in LaTeX as an operand: in parentheses unless it is an atom."""
    s = latex_formula(g)
    return s if isinstance(g, fm.Atom) else f"({s})"


def latex_nd(p) -> str:
    concl = f"{latex_term(p.term)} : {latex_formula(p.formula)}"
    if isinstance(p, Hyp):
        return concl
    premisses = " & ".join(latex_nd(c) for c in p.children)
    return f"\\infer[{_rule_label(p)}]{{{concl}}}{{{premisses}}}"


def _rule_label(node) -> str:
    op = _LATEX_OPS[node.name[0]]
    if node.mode is not None:
        op += f"_{{{node.mode}}}"
    kind = node.name[-1]
    if node.discharges:
        subs = ",".join(str(l) for l in node.discharges)
        return f"{op} {kind}_{{{subs}}}"
    return f"{op} {kind}"


def latex_trace(trace) -> str:
    lines = ["\\begin{enumerate}"]
    for s in trace.steps:
        lines.append(
            f"\\item $[{s.rule}]$ removes {','.join(map(str, s.consumed))}: "
            f"\\texttt{{{s.row}}}"
        )
    lines.append("\\end{enumerate}")
    return "\n".join(lines)
