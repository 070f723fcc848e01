import random
from itertools import count

import pytest

from conftest import CORPUS_SIG, LAMBEK_SIG, prove_lambek
from dispnet import cli, nd
from dispnet.contraction import is_proof_net
from dispnet.formula import Atom, Signature, parse_formula, random_formula
from dispnet.nd import (
    LambekOracle,
    NDError,
    canonical_proof,
    check_nd,
    down_e,
    extract_nd,
    hyp,
    lambek_oracle,
    latex_nd,
    nd_from_sexpr,
    nd_to_sexpr,
    net_of_nd,
    open_hyps,
    open_leaves_in_order,
    over_e,
    over_i,
    prod_e,
    prod_i,
    random_nd_proof,
    sequent_of,
    under_e,
    under_i,
    up_e,
    up_i,
    wrap_e,
    wrap_i,
)
from dispnet.proofstructure import linking_count, sequent_mismatches, unfold
from dispnet.terms import FIRST, FreshVars, parse_term

SIG = Signature({"np": 0, "n": 0, "s": 0, "j": 1})
T = parse_term
F = parse_formula


def ring_up_proof():
    """mary:np, rang+1+up:(np\\s)^>np, everyone:(s^>np)!>s
    |- mary+rang+everyone+up : s, built rule by rule."""
    mary = hyp(0, T("mary"), F("np"))
    rang = hyp(1, T("rang+1+up"), F("(np\\s)^>np"))
    everyone = hyp(2, T("everyone"), F("(s^>np)!>s"))
    obj = hyp(3, T("x"), F("np"))
    vp = up_e(rang, obj)                      # rang+x+up : np\s
    clause = under_e(mary, vp)                # mary+rang+x+up : s
    gapped = up_i(FIRST, 3, clause)           # mary+rang+1+up : s^>np
    return down_e(gapped, everyone)           # mary+rang+everyone+up : s


def test_ring_up_proof_checks():
    p = ring_up_proof()
    assert check_nd(p, SIG) == []
    assert str(p.term) == "mary+rang+everyone+up"
    assert p.formula == Atom("s")
    hyps, term, goal = sequent_of(p)
    assert [h[0] for h in hyps] == [0, 1, 2]


def test_axiom_checks():
    p = hyp(0, T("x+1+y"), F("j"))
    assert check_nd(p, SIG) == []


def test_broken_concat_detected():
    good = under_e(hyp(0, T("a"), F("np")), hyp(1, T("b"), F("np\\s")))
    broken = nd.Rule("\\E", good.children, T("b+a"), good.formula)
    out = check_nd(broken, SIG)
    assert out and "concludes" in out[0]


def test_bad_hyp_sort_detected():
    p = hyp(0, T("a+1+b"), F("np"))
    assert check_nd(p, SIG)


def test_double_use_detected():
    h = hyp(0, T("a"), F("np"))
    p = prod_i(h, h)
    assert any("twice" in v for v in check_nd(p, SIG))


def test_label_of_a_discharged_hypothesis_used_again_detected():
    # one leaf labelled 1 is discharged by /I, the other stays open;
    # open_hyps sees no clash, but the proof has two open hypotheses
    q = hyp(1, T("q"), F("s"))
    p = over_e(over_i(1, prod_i(hyp(0, T("a"), F("np")), q)), q)
    assert list(open_hyps(p)) == [0, 1]
    assert check_nd(p, SIG) == ["hypothesis label 1 used twice"]
    with pytest.raises(NDError, match="hypothesis label 1 used twice"):
        net_of_nd(p, SIG)


def test_discharge_label_reused_in_another_scope_checks():
    # label 1 is discharged twice, in two separate /I scopes, and never open
    left = over_i(1, prod_i(hyp(0, T("a"), F("np")), hyp(1, T("q"), F("s"))))
    right = over_i(1, prod_i(hyp(2, T("b"), F("np")), hyp(1, T("r"), F("s"))))
    p = prod_i(left, right)
    assert check_nd(p, SIG) == []
    assert [h.label for h in open_leaves_in_order(p)] == [0, 2]
    assert_round_trip(p, SIG)


def test_factories_reject_bad_arithmetic():
    with pytest.raises(NDError):
        under_e(hyp(0, T("a"), F("np")), hyp(1, T("b"), F("s")))
    body = under_e(hyp(0, T("a"), F("np")), hyp(1, T("b"), F("np\\s")))
    with pytest.raises(NDError):
        under_i(1, body)  # b is a suffix, not a prefix
    assert under_i(0, body).formula == F("np\\s")


def test_net_of_nd_ring_up():
    p = ring_up_proof()
    ps, terms, aps, trace = net_of_nd(p, SIG)
    assert trace.contracted
    assert str(aps.clone().final_term() if aps.is_single_comb() else "") == ""
    # one par link per ^I; final comb carries the conclusion string
    assert len(ps.frame.par_links()) == 1
    assert trace.logical_rules() == ["^>"]
    last_rows = trace.steps[-1].row
    assert "mary rang everyone up" in last_rows


def test_net_of_nd_axiom():
    p = hyp(0, T("x+1+y"), F("j"))
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
    assert [F(f) for f in formulas] == [
        ps.frame.vertices[v].formula for v in sorted(ps.frame.vertices)]


def test_extract_ring_up():
    p = ring_up_proof()
    ps, terms, aps, trace = net_of_nd(p, SIG)
    verdict = is_proof_net(ps, terms, SIG)
    assert verdict.is_net
    q = extract_nd(verdict, SIG)
    assert check_nd(q, SIG) == []
    assert q.term == p.term
    assert q.formula == p.formula
    assert [h.label for h in open_leaves_in_order(q)] == ps.frame.hypotheses


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
    assert len(ps.frame.par_links()) == par_rules
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
    got = {h.label: (h.term, h.formula) for h in open_leaves_in_order(q)}
    want = {v: (terms[v], ps.frame.vertices[v].formula) for v in ps.frame.hypotheses}
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
    ab = hyp(0, T("w"), F("np*s"))
    a, b = hyp(1, T("a"), F("np")), hyp(2, T("b"), F("s"))
    body = prod_i(a, b)
    assert_round_trip(prod_e((1, 2), ab, body), SIG)
    # wrap introduction and elimination
    circ = hyp(0, T("c+1+d"), F("j"))
    inner = hyp(1, T("e"), F("s"))
    assert_round_trip(wrap_i(FIRST, circ, inner), SIG)
    # circumfix introduction: withdrawing the sort-1 hypothesis adds
    # the infixation par link
    circ2 = hyp(7, T("a+1+b"), F("j"))
    filler = hyp(8, T("x"), F("s"))
    assert_round_trip(nd.down_i(FIRST, 7, wrap_i(FIRST, circ2, filler)), SIG)
    w = hyp(0, T("w"), F("j o> s"))
    ja = hyp(1, T("a+1+b"), F("j"))
    sb = hyp(2, T("c"), F("s"))
    body = wrap_i(FIRST, ja, sb)
    assert_round_trip(wrap_e(FIRST, (1, 2), w, body), SIG)


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
    assert lambek_oracle((), F("np\\np"))
    assert not lambek_oracle((), F("np/s"))


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
        a = hyp(0, T("a"), F("np"))
        b = hyp(next(labels), T("q"), F("s"))
        body = prod_i(a, b)
        return over_i(b.label, body)

    assert canonical_proof(build(50)) == canonical_proof(build(90))
    assert canonical_proof(build(50)) != canonical_proof(hyp(0, T("a"), F("np")))


def distinct_readings(hyp_pairs, goal, sig, expected, mode):
    """The number of readings of one sequent's stream, after checking
    that no two of them are the same proof up to discharge labels: every
    net is a reading, with no dedupe, so extraction must be injective."""
    result = cli.run_sequent(hyp_pairs, goal, sig, expected, mode,
                             all_readings=True)
    proofs = [canonical_proof(r.proof) for r in result.readings]
    assert len(set(proofs)) == len(proofs), [nd_to_sexpr(p) for p in proofs]
    return len(proofs)


@pytest.mark.parametrize("mode, floor", [("net", 800), ("parse", 250)])
def test_extraction_is_injective_on_corpus(proof_corpus, mode, floor):
    readings = 0
    for proof, *_ in proof_corpus:
        hyp_pairs = [(h.term, h.formula) for h in open_leaves_in_order(proof)]
        frame = unfold([f for _, f in hyp_pairs], proof.formula, CORPUS_SIG)
        if linking_count(frame) <= 200:
            readings += distinct_readings(hyp_pairs, proof.formula, CORPUS_SIG,
                                          proof.term, mode)
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
        readings += distinct_readings(hyp_pairs, goal, sig, None, "net")
    assert readings > 1000


def test_latex_output():
    p = ring_up_proof()
    tex = latex_nd(p)
    assert "\\infer" in tex and "\\uparrow" in tex and "\\textit{mary}" in tex
    ps, terms, aps, trace = net_of_nd(p, SIG)
    from dispnet.nd import latex_trace

    assert "enumerate" in latex_trace(trace)
