import random
import sys
from itertools import count

import pytest

from conftest import CORPUS_SIG, LAMBEK_SIG, prove_lambek
from dispnet import cli, nd
from dispnet import formula as fm
from dispnet.contraction import is_proof_net
from dispnet.formula import Atom, Signature, parse_formula, random_formula
from dispnet.nd import (
    Hyp,
    LambekOracle,
    NDError,
    Rule,
    apply_rule,
    canonical_proof,
    check_nd,
    derive,
    extract_nd,
    latex_nd,
    nd_from_sexpr,
    nd_to_sexpr,
    net_of_nd,
    open_hyps,
    random_nd_proof,
)
from dispnet.proofstructure import linking_count, sequent_mismatches, unfold
from dispnet.terms import FIRST, LAST, FreshVars, at, parse_term

SIG = Signature({"np": 0, "n": 0, "s": 0, "j": 1})
T = parse_term
F = parse_formula


def _h(label, term, formula):
    return Hyp(label, T(term), F(formula))


def _r(name, mode, labels, *kids):
    return apply_rule(name, mode, labels, list(kids))


def ring_up_proof():
    """mary:np, rang+1+up:(np\\s)^>np, everyone:(s^>np)!>s
    |- mary+rang+everyone+up : s, built rule by rule."""
    mary = Hyp(0, T("mary"), F("np"))
    rang = Hyp(1, T("rang+1+up"), F("(np\\s)^>np"))
    everyone = Hyp(2, T("everyone"), F("(s^>np)!>s"))
    obj = Hyp(3, T("x"), F("np"))
    vp = apply_rule("^E", FIRST, (), [rang, obj])        # rang+x+up : np\s
    clause = apply_rule("\\E", None, (), [mary, vp])     # mary+rang+x+up : s
    gapped = apply_rule("^I", FIRST, (3,), [clause])     # mary+rang+1+up : s^>np
    # mary+rang+everyone+up : s
    return apply_rule("!E", FIRST, (), [gapped, everyone])


def test_ring_up_proof_checks():
    p = ring_up_proof()
    assert check_nd(p, SIG) == []
    assert str(p.term) == "mary+rang+everyone+up"
    assert p.formula == Atom("s")
    assert [h.label for h in open_hyps(p).values()] == [0, 1, 2]


def test_axiom_checks():
    p = Hyp(0, T("x+1+y"), F("j"))
    assert check_nd(p, SIG) == []


def test_broken_concat_detected():
    good = apply_rule("\\E", None, (),
                      [Hyp(0, T("a"), F("np")), Hyp(1, T("b"), F("np\\s"))])
    broken = nd.Rule("\\E", good.children, T("b+a"), good.formula)
    out = check_nd(broken, SIG)
    assert out and "concludes" in out[0]


def test_bad_hyp_sort_detected():
    p = Hyp(0, T("a+1+b"), F("np"))
    assert check_nd(p, SIG)


def test_double_use_detected():
    h = Hyp(0, T("a"), F("np"))
    p = apply_rule("*I", None, (), [h, h])
    assert any("twice" in v for v in check_nd(p, SIG))


def test_label_of_a_discharged_hypothesis_used_again_detected():
    # one leaf labelled 1 is discharged by /I, the other stays open;
    # open_hyps sees no clash, but the proof has two open hypotheses
    q = Hyp(1, T("q"), F("s"))
    body = apply_rule("*I", None, (), [Hyp(0, T("a"), F("np")), q])
    p = apply_rule("/E", None, (), [apply_rule("/I", None, (1,), [body]), q])
    assert list(open_hyps(p)) == [0, 1]
    assert check_nd(p, SIG) == ["hypothesis label 1 used twice"]
    with pytest.raises(NDError, match="hypothesis label 1 used twice"):
        net_of_nd(p, SIG)
    # the same objects q and u, each withdrawn in one place and open in
    # another: every occurrence sits where it is open, not where the
    # object first occurs
    p = _r("*I", None, (), apply_rule("/I", None, (1,), [body]),
           _r("*I", None, (), _h(2, "b", "np"), q))
    assert list(open_hyps(p)) == [0, 2, 1]
    u = _h(3, "u", "s")
    left = _r("*I", None, (), apply_rule("/I", None, (1,), [body]), u)
    right = _r("*I", None, (), _r("/I", None, (3,), _r("*I", None, (), q, u)),
               _h(2, "b", "np"))
    p = _r("*I", None, (), left, right)
    assert list(open_hyps(p)) == [0, 3, 1, 2]
    assert check_nd(p, SIG) == ["hypothesis label 3 used twice",
                                "hypothesis label 1 used twice"]


def test_check_nd_reads_each_subtree_once(monkeypatch):
    # a chain of n /I over *I nodes, each /I withdrawing the s its *I
    # joined on: checking it, reading it from its s-expression and
    # extracting it from its net carry the open hypotheses up the one
    # walk, and read them off no body again. Every walk over the open
    # hypotheses merges them in ``_merged`` once per rule node, so the
    # merges count the nodes visited: 2n for one walk, about n * n if a
    # rule's body were walked again
    n = 400
    s = F("s")
    p = Hyp(0, T("a"), F("np"))
    for label in range(1, n + 1):
        q = Hyp(label, T(f"q{label}"), s)
        body = Rule("*I", (p, q), T(f"a+q{label}"), fm.Prod(p.formula, s))
        p = Rule("/I", (body,), T("a"), fm.Over(body.formula, s), None, (label,))
    calls = 0
    merge = nd._merged

    def counted(opened, discharges):
        nonlocal calls
        calls += 1
        return merge(opened, discharges)

    # room for the recursive walks
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * n)
    try:
        text = nd_to_sexpr(p)
        ps, terms, _, _ = net_of_nd(p, SIG)
        verdict = is_proof_net(ps, terms, SIG)
        monkeypatch.setattr(nd, "_merged", counted)
        assert check_nd(p, SIG) == []
        assert calls <= 4 * n
        calls = 0
        assert nd_to_sexpr(nd_from_sexpr(text)) == text
        assert calls <= 4 * n
        calls = 0
        extracted = extract_nd(verdict, SIG)
        assert (extracted.term, extracted.formula) == (p.term, p.formula)
        assert calls <= 4 * n
    finally:
        sys.setrecursionlimit(limit)


# Proofs with one fault below the root, and check_nd's exact report:
# a hypothesis of the wrong sort, a node built directly with a wrong
# term, and label 3 twice in the body of the /I at root.1, which
# withdraws q.
_MARY, _W, _A = _h(0, "mary", "np"), _h(2, "w", "np\\(np\\s)"), _h(3, "a", "np")
_TWICE = _r("*I", None, (), _r("*I", None, (), _A, _A), _h(4, "q", "s"))  # a+a+q
NESTED = [
    (_r("\\E", None, (), _MARY, _r("\\E", None, (), _h(1, "x+1", "np"), _W)),
     ["root.1.0: hypothesis term x+1 has sort 1, formula needs 0"]),
    (_r("\\E", None, (), _MARY,
        Rule("\\E", (_h(1, "x", "np"), _W), T("w+x"), F("np\\s"))),
     ["root.1: rule \\E concludes x+w : np\\s, node claims w+x : np\\s"]),
    (Rule("*I", (_MARY, Rule("/I", (_TWICE,), T("a+a"), F("((np*np)*s)/s"), None, (4,))),
          T("mary+a+a"), F("np*(((np*np)*s)/s)")),
     ["hypothesis label 3 used twice", "root.1: hypothesis label 3 used twice"]),
]


@pytest.mark.parametrize("proof, violations", NESTED, ids=["sort", "term", "twice"])
def test_check_nd_reports_nested_paths(proof, violations):
    assert check_nd(proof, SIG) == violations


def test_discharge_label_reused_in_another_scope_checks():
    # label 1 is discharged twice, in two separate /I scopes, and never open
    left = _r("/I", None, (1,), _r("*I", None, (), _h(0, "a", "np"), _h(1, "q", "s")))
    right = _r("/I", None, (1,), _r("*I", None, (), _h(2, "b", "np"), _h(1, "r", "s")))
    p = _r("*I", None, (), left, right)
    assert check_nd(p, SIG) == []
    assert [h.label for h in open_hyps(p).values()] == [0, 2]
    assert_round_trip(p, SIG)


def test_discharge_label_reused_in_a_nested_scope_round_trips():
    # the outer \I withdraws q, labelled 1, and its body holds an inner
    # /I that withdraws r, also labelled 1, after q: each rule withdraws
    # the leaf its own body holds open
    q = _h(1, "q", "s")
    inner = _r("/I", None, (1,), _r("*I", None, (), _h(0, "x", "np"), _h(1, "r", "s")))
    p = _r("\\I", None, (1,), _r("*I", None, (), q, inner))
    assert check_nd(p, SIG) == []
    assert [h.label for h in open_hyps(p).values()] == [0]
    assert_round_trip(p, SIG)
    ps = net_of_nd(p, SIG)[0]
    (outer,) = [l for l in ps.frame.links if l.tag == "R\\"]
    assert ps.frame.hypotheses == [1]  # x; q is vertex 0, r vertex 2
    assert outer.conclusions == (0, outer.main)


def test_open_hyps_walks_a_deep_proof_without_recursion():
    # a \E chain of 3 000 leaves, far deeper than the default recursion
    # limit: each rule's minor premiss is the chain so far, its major a
    # fresh leaf s\s
    n = 3000
    p = _h(0, "a0", "s")
    for label in range(1, n):
        p = _r("\\E", None, (), p, _h(label, f"a{label}", "s\\s"))
    assert list(open_hyps(p)) == list(range(n))


# One input per rule that the rule refuses, as (name, mode, labels,
# premisses) and a part of the message.
BROKEN = [
    ("\\E", None, (), [_h(0, "a", "np"), _h(1, "b", "s")],
     "right premiss must be np\\C, got s"),
    ("/E", None, (), [_h(0, "a", "s/np"), _h(1, "b", "s")],
     "left premiss must be C/s, got s/np"),
    # the major premiss's mode is not the rule's
    ("^E", LAST, (), [_h(0, "a+1+b", "s^>np"), _h(1, "c", "np")],
     "left premiss must be C^<np, got s^>np"),
    ("!E", FIRST, (), [_h(0, "a+1+b", "j"), _h(1, "c", "s")],
     "right premiss must be j!>C, got s"),
    ("*I", FIRST, (), [_h(0, "a", "np"), _h(1, "b", "s")],
     "prod_i: mode > does not match the formula"),
    # the circumfix has one separator, the mode picks the second
    ("oI", at(2), (), [_h(0, "a+1+b", "j"), _h(1, "c", "np")],
     "oI: separator 2 of a+1+b (sort 1)"),
    # the withdrawn hypothesis b is a suffix, not a prefix
    ("\\I", None, (1,), [_r("\\E", None, (), _h(0, "a", "np"), _h(1, "b", "np\\s"))],
     "conclusion a+b is not of the form b+..."),
    # the withdrawn hypothesis b is a prefix, not a suffix
    ("/I", None, (1,), [_r("/E", None, (), _h(1, "b", "s/np"), _h(0, "a", "np"))],
     "conclusion b+a is not of the form ...+b"),
    # the circumfix x+1+y matches at the end of d+x+c+y but not at its start
    ("!I", FIRST, (0,), [_r("*I", None, (), _h(2, "d", "np"),
                            _r("oI", FIRST, (), _h(0, "x+1+y", "j"),
                               _h(1, "c", "s")))],
     "conclusion d+x+c+y is not of the form x+...+y"),
    # x sits after the separator; mode > needs the one it leaves first
    ("^I", FIRST, (0,), [_r("*I", None, (), _h(1, "a+1+b", "j"), _h(0, "x", "np"))],
     "x does not occur in a+1+b+x after 0 separator(s)"),
    # the components a and b are not adjacent in a+c+b
    ("*E", None, (1, 2),
     [_h(0, "w", "np*s"),
      _r("*I", None, (), _r("*I", None, (), _h(1, "a", "np"), _h(3, "c", "np")),
         _h(2, "b", "s"))],
     "a+b does not occur in a+c+b"),
    ("oE", FIRST, (1, 2),
     [_h(0, "w", "j o> s"), _r("oI", FIRST, (), _h(1, "a+1+b", "j"),
                                _h(2, "c", "np"))],
     "left premiss must be j o> np, got j o> s"),
]


def test_factories_reject_bad_arithmetic():
    assert {name for name, *_ in BROKEN} == set(nd.RULES)
    for name, mode, labels, kids, message in BROKEN:
        with pytest.raises(NDError) as exc:
            apply_rule(name, mode, labels, kids)
        assert message in str(exc.value)
        assert name in str(exc.value) or nd.RULES[name].sexpr in str(exc.value)
        # check_nd reports a node of the same rule and premisses
        node = Rule(name, tuple(kids), T("z"), F("s"), mode, labels)
        assert f"root: {exc.value}" in check_nd(node, SIG)
    body = _r("\\E", None, (), _h(0, "a", "np"), _h(1, "b", "np\\s"))
    assert _r("\\I", None, (0,), body).formula == F("np\\s")


def test_derive_concludes_what_each_corpus_node_claims(proof_corpus):
    rules = 0
    for proof, *_ in proof_corpus:
        for n in walk(proof):
            if isinstance(n, Rule):
                assert derive(n.name, n.mode, n.discharges, n.children) == (n.term, n.formula)
                rules += 1
    assert rules > len(proof_corpus)


# Nodes built directly, whose term ``a`` lacks the separator their rule
# wraps at (^E, !E) or splits the withdrawn hypothesis at (!I).
FORGED = [
    Rule("^E", (Hyp(0, T("a"), F("s^>np")), Hyp(1, T("b"), F("np"))),
         T("a+b"), F("s"), mode=FIRST),
    Rule("!E", (Hyp(0, T("a"), F("j")), Hyp(1, T("b"), F("j!>s"))),
         T("a+b"), F("s"), mode=FIRST),
    Rule("!I", (Hyp(0, T("a"), F("j")),), T("a"), F("j!>j"), mode=FIRST,
         discharges=(0,)),
]


@pytest.mark.parametrize("node", FORGED, ids=["up_e", "down_e", "down_i"])
def test_forged_node_without_its_separator_is_a_violation(node):
    violation = f"root: {node.name}: term a has sort 0"
    assert violation in check_nd(node, SIG)
    with pytest.raises(NDError) as exc:
        net_of_nd(node, SIG)
    assert violation in str(exc.value)


# Introductions of the moded connectives built directly with no mode.
MODELESS = [
    Rule("^I", (Hyp(0, T("a"), F("np")),), T("1"), F("np^>np"),
         discharges=(0,)),
    Rule("!I", (Hyp(0, T("a+1+b"), F("j")),), T("0"), F("j!>j"),
         discharges=(0,)),
    Rule("oI", (Hyp(0, T("a+1+b"), F("j")), Hyp(1, T("c"), F("np"))),
         T("a+c+b"), F("j o> np")),
]


@pytest.mark.parametrize("node", MODELESS, ids=["up_i", "down_i", "wrap_i"])
def test_forged_moded_node_without_a_mode_is_a_violation(node):
    violation = (f"root: {nd.RULES[node.name].sexpr}: mode None does not "
                 "match the formula")
    assert violation in check_nd(node, SIG)
    with pytest.raises(NDError) as exc:
        net_of_nd(node, SIG)
    assert violation in str(exc.value)


def test_net_of_nd_ring_up():
    p = ring_up_proof()
    ps, terms, aps, trace = net_of_nd(p, SIG)
    assert trace.contracted
    assert str(aps.clone().final_term() if aps.is_single_comb() else "") == ""
    # one par link per ^I; final comb carries the conclusion string
    assert sum(l.kind == "par" for l in ps.frame.links) == 1
    assert trace.logical_rules() == ["^>"]
    last_rows = trace.steps[-1].row
    assert "mary rang everyone up" in last_rows


def test_net_of_nd_axiom():
    p = Hyp(0, T("x+1+y"), F("j"))
    ps, terms, aps, trace = net_of_nd(p, SIG)
    assert ps.frame.links == []
    assert trace.steps == []
    assert aps.is_single_comb()
    assert str(aps.final_term()) == "x+1+y"


# One proof per rule and the proof structure ``net_of_nd`` builds for it:
# the link, and the formula of each vertex in vertex-id order.
NET_LAYOUT = [
    ('(under_e (hyp 0 "a" "np") (hyp 1 "b" "np\\s"))',
     ["tensor L\\ [0 1] -> [2]"], ["np", "np\\s", "s"]),
    ('(over_e (hyp 0 "a" "s/np") (hyp 1 "b" "np"))',
     ["tensor L/ [0 1] -> [2]"], ["s/np", "np", "s"]),
    ('(prod_i (hyp 0 "a" "np") (hyp 1 "b" "s"))',
     ["tensor R* [0 1] -> [2]"], ["np", "s", "np*s"]),
    ('(up_e > (hyp 0 "a+1+b" "s^>np") (hyp 1 "c" "np"))',
     ["tensor L^> [0 1] -> [2]"], ["s^>np", "np", "s"]),
    ('(down_e > (hyp 0 "a+1+b" "j") (hyp 1 "c" "j!>s"))',
     ["tensor L!> [0 1] -> [2]"], ["j", "j!>s", "s"]),
    ('(wrap_i > (hyp 0 "a+1+b" "j") (hyp 1 "c" "np"))',
     ["tensor Ro> [0 1] -> [2]"], ["j", "np", "j o> np"]),
    ('(under_i 0 (under_e (hyp 0 "a" "np") (hyp 1 "b" "np\\s")))',
     ["tensor L\\ [0 1] -> [2]", "par R\\ [2] -> [0 3] main=3"],
     ["np", "np\\s", "s", "np\\s"]),
    ('(over_i 0 (over_e (hyp 1 "b" "s/np") (hyp 0 "a" "np")))',
     ["tensor L/ [0 1] -> [2]", "par R/ [2] -> [3 1] main=3"],
     ["s/np", "np", "s", "s/np"]),
    ('(up_i < 0 (over_e (hyp 1 "b" "s/np") (hyp 0 "a" "np")))',
     ["tensor L/ [0 1] -> [2]", "par R^< [2] -> [3 1] main=3"],
     ["s/np", "np", "s", "s^<np"]),
    ('(down_i > 0 (down_e > (hyp 0 "x+1+y" "j") (hyp 1 "c" "j!>s")))',
     ["tensor L!> [0 1] -> [2]", "par R!> [2] -> [0 3] main=3"],
     ["j", "j!>s", "s", "j!>s"]),
    ('(prod_e 1 2 (hyp 0 "a" "np*s") '
     '(prod_i (hyp 1 "x" "np") (hyp 2 "y" "s")))',
     ["tensor R* [1 2] -> [3]", "par L* [0] -> [1 2] main=0"],
     ["np*s", "np", "s", "np*s"]),
    ('(wrap_e > 1 2 (hyp 0 "a" "j o> np") '
     '(wrap_i > (hyp 1 "x+1+y" "j") (hyp 2 "z" "np")))',
     ["tensor Ro> [1 2] -> [3]", "par Lo> [0] -> [1 2] main=0"],
     ["j o> np", "j", "np", "j o> np"]),
]


def test_net_layout_covers_every_rule():
    names = {nd_from_sexpr(text).name for text, _, _ in NET_LAYOUT}
    assert names == {"\\E", "/E", "*I", "^E", "!E", "oI",
                     "\\I", "/I", "^I", "!I", "*E", "oE"}


@pytest.mark.parametrize("text, dump, formulas", NET_LAYOUT)
def test_net_of_nd_layout(text, dump, formulas):
    ps = net_of_nd(nd_from_sexpr(text), SIG)[0]
    assert ps.frame.dump().splitlines() == dump
    assert [F(f) for f in formulas] == ps.frame.formulas


def test_extract_ring_up():
    p = ring_up_proof()
    ps, terms, aps, trace = net_of_nd(p, SIG)
    verdict = is_proof_net(ps, terms, SIG)
    assert verdict.is_net
    q = extract_nd(verdict, SIG)
    assert check_nd(q, SIG) == []
    assert q.term == p.term
    assert q.formula == p.formula
    assert [h.label for h in open_hyps(q).values()] == ps.frame.hypotheses


def assert_round_trip(p, sig):
    ps, terms, aps, trace = net_of_nd(p, sig)
    assert trace.contracted, trace.fmt()
    # the comb the net contracts to is labelled by the proof's conclusion
    final = contract_final(aps)
    assert final == p.term, f"{final} != {p.term}"
    # one par link per hypothetical-reasoning rule
    par_rules = sum(
        1 for node in walk(p)
        if isinstance(node, nd.Rule) and node.name in ("\\I", "/I", "^I", "!I", "*E", "oE")
    )
    assert sum(l.kind == "par" for l in ps.frame.links) == par_rules
    assert len(trace.logical_rules()) == par_rules
    verdict = is_proof_net(ps, terms, sig)
    assert verdict.is_net
    # the proof is read off the verdict's trace, not re-contracted
    with pytest.MonkeyPatch.context() as mp:
        for name in ("contract", "to_aps"):
            mp.setattr(nd, name, _no_recontraction)
        q = extract_nd(verdict, sig)
    assert check_nd(q, sig) == [], check_nd(q, sig)
    assert q.term == p.term and q.formula == p.formula
    got = {h.label: (h.term, h.formula) for h in open_hyps(q).values()}
    want = {v: (terms[v], ps.frame.formulas[v]) for v in ps.frame.hypotheses}
    assert got == want


def _no_recontraction(*args, **kwargs):
    raise AssertionError("extraction must not convert or contract again")


def contract_final(aps):
    from dispnet.contraction import contract

    clone = aps.clone()
    trace = contract(clone)
    assert trace.contracted
    return clone.final_term()


def walk(p):
    yield p
    if isinstance(p, nd.Rule):
        for c in p.children:
            yield from walk(c)


def test_round_trip_handcrafted():
    assert_round_trip(ring_up_proof(), SIG)
    # product elimination
    ab = Hyp(0, T("w"), F("np*s"))
    a, b = Hyp(1, T("a"), F("np")), Hyp(2, T("b"), F("s"))
    body = apply_rule("*I", None, (), [a, b])
    assert_round_trip(apply_rule("*E", None, (1, 2), [ab, body]), SIG)
    # wrap introduction and elimination
    circ = Hyp(0, T("c+1+d"), F("j"))
    inner = Hyp(1, T("e"), F("s"))
    assert_round_trip(apply_rule("oI", FIRST, (), [circ, inner]), SIG)
    # circumfix introduction: withdrawing the sort-1 hypothesis adds
    # the infixation par link
    circ2 = Hyp(7, T("a+1+b"), F("j"))
    filler = Hyp(8, T("x"), F("s"))
    wrapped = apply_rule("oI", FIRST, (), [circ2, filler])
    assert_round_trip(apply_rule("!I", FIRST, (7,), [wrapped]), SIG)
    w = Hyp(0, T("w"), F("j o> s"))
    ja = Hyp(1, T("a+1+b"), F("j"))
    sb = Hyp(2, T("c"), F("s"))
    body = apply_rule("oI", FIRST, (), [ja, sb])
    assert_round_trip(apply_rule("oE", FIRST, (1, 2), [w, body]), SIG)


def test_round_trip_random_corpus():
    rng = random.Random(2024)
    fresh = FreshVars()
    labels = count()
    sizes = []
    for _ in range(150):
        p = random_nd_proof(rng, SIG, max_depth=4, fresh=fresh, labels=labels)
        sizes.append(sum(1 for _ in walk(p)))
        assert_round_trip(p, SIG)
    assert max(sizes) > 5  # the generator produces nontrivial proofs


def test_generator_rule_coverage():
    rng = random.Random(7)
    fresh = FreshVars()
    labels = count()
    names = set()
    for _ in range(250):
        p = random_nd_proof(rng, SIG, max_depth=5, fresh=fresh, labels=labels)
        for node in walk(p):
            if isinstance(node, nd.Rule):
                names.add(node.name)
    assert {"\\E", "/E", "\\I", "/I", "*I", "^E", "!E"} <= names
    # the heavyweight rules appear at least somewhere in a big sample
    assert "*E" in names or "oE" in names
    assert "^I" in names or "!I" in names or "oI" in names


def test_lambek_oracle_basics():
    o = LambekOracle()
    np, s = Atom("np"), Atom("s")
    assert o.derivable((np, F("np\\s")), s)
    assert not o.derivable((np,), s)
    assert o.derivable((F("(np\\s)/np"), ), F("(np\\s)/np"))
    assert o.derivable((F("np/s"), F("s")), np)
    assert o.derivable((F("(np/s)*s"),), np)
    assert not o.derivable((F("s"), F("np/s")), np)
    assert LambekOracle().derivable((), F("np\\np"))
    assert not LambekOracle().derivable((), F("np/s"))


def test_oracle_agrees_with_nets_spot():
    oracle = LambekOracle()
    rng = random.Random(5)

    checked = agreements = 0
    while checked < 120:
        hyps = tuple(
            lambek_fragment(rng, LAMBEK_SIG) for _ in range(rng.randint(0, 2))
        )
        goal = lambek_fragment(rng, LAMBEK_SIG)
        checked += 1
        derivable = bool(prove_lambek(hyps, goal).readings)
        assert derivable == oracle.derivable(hyps, goal)
        agreements += 1
    assert agreements == 120


def lambek_fragment(rng, sig, budget=2):
    from dispnet import formula as fm

    while True:
        f = fm.random_formula(rng, sig, budget)
        if only_lambek(f):
            return f


def only_lambek(f):
    from dispnet import formula as fm

    if isinstance(f, fm.Atom):
        return True
    if isinstance(f, (fm.Under, fm.Over)):
        return only_lambek(f.arg) and only_lambek(f.result)
    if isinstance(f, fm.Prod):
        return only_lambek(f.left) and only_lambek(f.right)
    return False


def test_sexpr_round_trip():
    p = ring_up_proof()
    text = nd_to_sexpr(p)
    q = nd_from_sexpr(text)
    assert q == p
    assert check_nd(q, SIG) == []


def test_sexpr_rejects_broken():
    with pytest.raises(NDError):
        nd_from_sexpr("(under_e (hyp 0 \"a\" \"np\") (hyp 1 \"b\" \"s\"))")
    with pytest.raises(NDError):
        nd_from_sexpr("(frobnicate)")


def test_proofs_equal_mod_discharge():
    def build(start):
        labels = count(start)
        a = Hyp(0, T("a"), F("np"))
        b = Hyp(next(labels), T("q"), F("s"))
        body = apply_rule("*I", None, (), [a, b])
        return apply_rule("/I", None, (b.label,), [body])

    assert canonical_proof(build(50)) == canonical_proof(build(90))
    assert canonical_proof(build(50)) != canonical_proof(Hyp(0, T("a"), F("np")))


def distinct_readings(hyp_pairs, goal, sig, expected):
    """The number of readings of one sequent's stream, after checking
    that no two of them are the same proof up to discharge labels: every
    net is a reading, with no dedupe, so extraction must be injective."""
    result = cli.run_sequent(hyp_pairs, goal, sig, expected, all_readings=True)
    proofs = [canonical_proof(r.proof) for r in result.readings]
    assert len(set(proofs)) == len(proofs), [nd_to_sexpr(p) for p in proofs]
    return len(proofs)


@pytest.mark.parametrize("mode, floor", [("net", 800), ("parse", 250)])
def test_extraction_is_injective_on_corpus(proof_corpus, mode, floor):
    readings = 0
    for proof, *_ in proof_corpus:
        hyp_pairs = [(h.term, h.formula) for h in open_hyps(proof).values()]
        frame = unfold([f for _, f in hyp_pairs], proof.formula, CORPUS_SIG)
        if linking_count(frame) <= 200:
            readings += distinct_readings(hyp_pairs, proof.formula, CORPUS_SIG,
                                          proof.term if mode == "parse" else None)
    assert readings > floor


def test_extraction_is_injective_on_random_d_sequents():
    sig = Signature({"np": 0, "s": 0, "j": 1})
    rng = random.Random(5)
    sequents = readings = 0
    while sequents < 1500:
        hyps = [random_formula(rng, sig, 2) for _ in range(rng.randint(0, 3))]
        goal = random_formula(rng, sig, 2)
        if (sequent_mismatches(hyps, goal)
                or linking_count(unfold(hyps, goal, sig)) > 50):
            continue
        sequents += 1
        fresh = FreshVars("x")
        hyp_pairs = [(fresh.term(sig.sort_of(f)), f) for f in hyps]
        readings += distinct_readings(hyp_pairs, goal, sig, None)
    assert readings > 1000


def test_latex_output():
    p = ring_up_proof()
    tex = latex_nd(p)
    assert "\\infer" in tex and "\\uparrow" in tex and "\\textit{mary}" in tex
    ps, terms, aps, trace = net_of_nd(p, SIG)
    from dispnet.nd import latex_trace

    assert "enumerate" in latex_trace(trace)
