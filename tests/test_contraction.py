import random

import pytest

from conftest import CORPUS_SIG
from dispnet.aps import to_aps
from dispnet.contraction import (
    apply_redex,
    contract,
    diagnose,
    is_proof_net,
)
from dispnet.formula import Atom, Signature, parse_formula
from dispnet.nd import open_hyps
from dispnet.proofstructure import enumerate_linkings, linking_count, unfold
from dispnet.terms import parse_term

from support import all_linkings, has_cycle, iter_redexes, linking, validate

SIG = Signature({"a": 0, "b": 0, "np": 0, "s": 0, "j": 1, "k2": 2})

RING_UP_SIG = Signature({"np": 0, "s": 0})
RING_UP_HYPS = [
    parse_formula("np"),
    parse_formula("(np\\s)^>np"),
    parse_formula("(s^>np)!>s"),
]
RING_UP_TERMS = ["mary", "rang+1+up", "everyone"]


def ring_up_candidates():
    """Every linking of the ring-up frame, those the search skips
    included, and the hypothesis terms."""
    frame = unfold(RING_UP_HYPS, Atom("s"), RING_UP_SIG)
    terms = {h: parse_term(t) for h, t in zip(frame.hypotheses, RING_UP_TERMS)}
    return list(all_linkings(frame)), terms


def prove(hyp_texts, goal_text, expect=None, sig=SIG):
    """Pipeline helper: sequent in concrete syntax, explicit terms; the
    verdict of every linking, those the search skips included."""
    hyps = [(parse_term(t), parse_formula(f)) for t, f in hyp_texts]
    goal = parse_formula(goal_text)
    frame = unfold([f for _, f in hyps], goal, sig)
    terms = {h: t for h, (t, _) in zip(frame.hypotheses, hyps)}
    expected = parse_term(expect) if expect else None
    return [is_proof_net(ps, terms, sig, expected) for ps in all_linkings(frame)]


def test_ring_up_winning_linking():
    candidates, terms = ring_up_candidates()
    expected = parse_term("mary+rang+everyone+up")
    verdicts = [
        is_proof_net(ps, terms, RING_UP_SIG, expected) for ps in candidates
    ]
    assert len(verdicts) == 4
    winners = [v for v in verdicts if v.is_net]
    assert len(winners) == 1
    win = winners[0]
    assert str(win.comb_term) == "mary+rang+everyone+up"
    assert win.trace.logical_rules() == ["^>"]
    # structural steps happen before the one logical step completes the job
    rules = [s.rule for s in win.trace.steps]
    assert rules.count("x>") == 2
    assert rules[-1] == "x>"
    # the merge of a lexical comb is the first available redex
    assert rules[0] == "+"


def test_final_comb_sort_matches_goal():
    verdicts = prove(
        [("a+1+b+1+c", "k2"), ("g", "k2!2j")], "j", "a+1+b+g+c"
    )
    win = next(v for v in verdicts if v.is_net)
    assert win.comb_term.sort == SIG.sort_of(win.ps.frame.formulas[win.ps.goal]) == 1


def test_ring_up_losers():
    candidates, terms = ring_up_candidates()
    expected = parse_term("mary+rang+everyone+up")
    verdicts = [
        is_proof_net(ps, terms, RING_UP_SIG, expected) for ps in candidates
    ]
    losers = [v for v in verdicts if not v.is_net]
    assert len(losers) == 3
    kinds = sorted(v.kind for v in losers)
    # one linking contracts to a comb in the wrong word order; the two
    # with crossed s-linkings deadlock between the par link and a cross
    assert kinds == ["string_mismatch", "stuck", "stuck"]
    for v in losers:
        if v.kind == "stuck":
            # each report names its element by the word ``to_text`` uses
            assert [r.fmt() for r in v.trace.stuck] == [
                "par 17 [^>]: premiss v8 is not a comb conclusion yet",
                "cross 16 [x>]: left premiss v7 is not a comb conclusion",
            ]
        else:
            assert str(v.comb_term) == "everyone+rang+mary+up"


def test_ring_up_theorem_mode():
    # without the word-order requirement, the wrong-order net still counts
    candidates, terms = ring_up_candidates()
    verdicts = [is_proof_net(ps, terms, RING_UP_SIG) for ps in candidates]
    assert sum(v.is_net for v in verdicts) == 2


def test_axiom_empty_trace():
    verdicts = prove([("x", "np")], "np", expect="x")
    assert len(verdicts) == 1
    assert verdicts[0].is_net
    assert verdicts[0].trace.steps == []


def test_lone_comb_has_no_redex():
    frame = unfold([Atom("np")], Atom("np"), SIG)
    ps = next(enumerate_linkings(frame))
    a = to_aps(ps, {ps.frame.hypotheses[0]: parse_term("x")}, SIG)
    assert iter_redexes(a)[0] == []


def test_modus_ponens_and_concatenation_order():
    assert any(v.is_net for v in prove([("x", "a"), ("y", "a\\b")], "b", "x+y"))
    # the same resources in the wrong order do not derive b
    assert not any(v.is_net for v in prove([("y", "a\\b"), ("x", "a")], "b", "y+x"))


def test_under_contraction():
    verdicts = prove([("x", "a")], "b\\(b*a)", "x")
    wins = [v for v in verdicts if v.is_net]
    assert wins and wins[0].trace.logical_rules() == ["\\"]


def test_over_contraction():
    verdicts = prove([("x", "a")], "(a*b)/b", "x")
    wins = [v for v in verdicts if v.is_net]
    assert wins and wins[0].trace.logical_rules() == ["/"]


def test_empty_slash_theorem():
    verdicts = prove([], "a\\a", "0")
    assert [v.is_net for v in verdicts] == [True]


def test_product_contraction():
    verdicts = prove([("x", "a*b")], "a*b", "x")
    wins = [v for v in verdicts if v.is_net]
    assert wins and wins[0].trace.logical_rules() == ["*"]


def test_down_contraction_and_cross():
    verdicts = prove([("x", "s")], "j!>(j o> s)", "x")
    wins = [v for v in verdicts if v.is_net]
    assert wins
    assert wins[0].trace.logical_rules() == ["!>"]
    assert any(s.rule == "x>" for s in wins[0].trace.steps)


def test_wrap_contraction():
    verdicts = prove([("y", "j o> s")], "j o> s", "y")
    wins = [v for v in verdicts if v.is_net]
    assert wins and wins[0].trace.logical_rules() == ["o>"]


def test_up_last_mode():
    # extraction at the last separator: everyone rang mary up, reversed roles
    verdicts = prove(
        [("x", "s")], "j!<(j o< s)", "x"
    )
    wins = [v for v in verdicts if v.is_net]
    assert wins and wins[0].trace.logical_rules() == ["!<"]


def test_numeric_mode_cross():
    verdicts = prove(
        [("a+1+b+1+c", "k2"), ("g", "k2!2j")], "j", "a+1+b+g+c"
    )
    wins = [v for v in verdicts if v.is_net]
    assert wins
    assert any(s.rule == "x2" for s in wins[0].trace.steps)


def test_numeric_mode_wrong_slot_fails():
    verdicts = prove(
        [("a+1+b+1+c", "k2"), ("g", "k2!2j")], "j", "a+g+b+1+c"
    )
    assert not any(v.is_net for v in verdicts)


def test_mismatch_reported_before_linking():
    import pytest
    from dispnet.proofstructure import CountMismatch

    frame = unfold([Atom("np")], Atom("s"), SIG)
    with pytest.raises(CountMismatch):
        list(enumerate_linkings(frame))


def exhaustive_contracts(aps):
    """Try every redex order; return set of reachable normal forms."""
    finals = set()

    def walk(state):
        redexes, _ = iter_redexes(state)
        if not redexes:
            finals.add((state.is_single_comb(), state.to_text()))
            return
        for r in redexes:
            child = state.clone()
            apply_redex(child, r)  # ids and row offsets survive clone()
            walk(child)

    walk(aps.clone())
    return finals


def test_stuck_linking_stuck_under_every_order():
    candidates, terms = ring_up_candidates()
    expected = parse_term("mary+rang+everyone+up")
    for ps in candidates:
        v = is_proof_net(ps, terms, RING_UP_SIG, expected)
        if v.kind != "stuck":
            continue
        finals = exhaustive_contracts(to_aps(ps, terms, RING_UP_SIG))
        assert finals
        assert all(not ok for ok, _ in finals)


def test_confluence_on_ring_up_net():
    candidates, terms = ring_up_candidates()
    rows = set()
    for ps in candidates:
        v = is_proof_net(ps, terms, RING_UP_SIG)
        if not v.is_net:
            continue
        for seed in range(12):
            rng = random.Random(seed)
            a = to_aps(ps, terms, RING_UP_SIG)
            trace = contract(a, select=rng.choice)
            assert trace.contracted
            rows.add((linking(ps), str(a.final_term())))
    # each net reaches one comb regardless of order
    assert len(rows) == 2


def test_step_bounds():
    candidates, terms = ring_up_candidates()
    for ps in candidates:
        a = to_aps(ps, terms, RING_UP_SIG)
        initial = a.element_count()
        trace = contract(a)
        assert len(trace.steps) <= initial
        assert trace.max_search_touched <= initial


def rescan_contract(aps, select=None):
    """Reference engine: rescan every element with ``iter_redexes``
    before each step. Returns the steps, the stuck reports and the
    number of element matches made."""
    steps, rescanned = [], 0
    while True:
        found, touched = iter_redexes(aps)
        rescanned += touched
        if not found:
            break
        steps.append(apply_redex(aps, found[0] if select is None else select(found)))
    stuck = [] if aps.is_single_comb() else diagnose(aps)
    return steps, stuck, rescanned


def corpus_linkings(proof_corpus, limit=300):
    """The abstract proof structure of every linking of each corpus
    proof's sequent that has at most ``limit`` linkings, stuck ones and
    those the search skips included."""
    for proof, *_ in proof_corpus:
        leaves = open_hyps(proof).values()
        frame = unfold([h.formula for h in leaves], proof.formula, CORPUS_SIG)
        if linking_count(frame) > limit:
            continue
        terms = {v: h.term for v, h in zip(frame.hypotheses, leaves)}
        for ps in all_linkings(frame):
            yield to_aps(ps, terms, CORPUS_SIG)


def test_worklist_agrees_with_rescan(proof_corpus):
    structures = stuck = 0
    for i, aps in enumerate(corpus_linkings(proof_corpus)):
        want_steps, want_stuck, _ = rescan_contract(aps.clone())
        got = contract(aps.clone())
        assert (got.steps, got.stuck) == (want_steps, want_stuck)
        stuck += not got.contracted

        # random orders: the same seed picks the same redex from the
        # same list, and every list offered is the rescan's list
        want_steps, want_stuck, _ = rescan_contract(
            aps.clone(), random.Random(i).choice)
        state = aps.clone()
        rng = random.Random(i)

        def checked_choice(found):
            assert found == iter_redexes(state)[0]
            return rng.choice(found)

        got = contract(state, select=checked_choice)
        assert (got.steps, got.stuck) == (want_steps, want_stuck)
        structures += 1
    assert structures > 4000 and stuck > 4000


def test_every_link_left_reports_why_once(proof_corpus):
    """At a stuck normal form, each par link and cross link left and
    each comb that feeds itself is in the stuck reports exactly once,
    with the reason it gives, and no placeholder stands in for a
    reason."""
    stuck = cyclic = 0
    for aps in corpus_linkings(proof_corpus):
        trace = contract(aps)
        if trace.contracted:
            continue
        links = [r.element for r in trace.stuck if r.tag != "+"]
        assert sorted(links) == sorted([*aps.pars, *aps.crosses])
        combs = [r.element for r in trace.stuck if r.tag == "+"]
        assert combs == [cid for cid, c in sorted(aps.combs.items())
                         if aps.premiss_at.get(c.concl) == cid]
        cyclic += bool(combs)
        for r in trace.stuck:
            assert r.reason and r.reason not in ("no failure recorded", "blocked")
        stuck += 1
    assert stuck > 4000 and cyclic > 500


def test_worklist_matches_a_fraction_of_a_rescan(proof_corpus):
    searched = rescanned = 0
    for *_, aps, _trace in proof_corpus:
        searched += contract(aps.clone()).searched
        rescanned += rescan_contract(aps.clone())[2]
    # a return to per-step rescans would put this near 1
    assert searched <= rescanned / 4


def test_role_maps_hold_after_every_step(proof_corpus):
    """The role maps agree with the elements after every step of the
    corpus nets and of every acyclic linking of the corpus sequents with
    at most 300 linkings. The cyclic linkings are left out: ``validate``
    reports their self-feeding combs by design."""
    structures = steps = 0
    for proof, _ps, _terms, net, _trace in proof_corpus:
        candidates = [net.clone()]
        leaves = open_hyps(proof).values()
        frame = unfold([h.formula for h in leaves], proof.formula, CORPUS_SIG)
        if linking_count(frame) <= 300:
            terms = {v: h.term for v, h in zip(frame.hypotheses, leaves)}
            candidates += [to_aps(ps, terms, CORPUS_SIG)
                           for ps in all_linkings(frame)
                           if not has_cycle(frame, linking(ps))]
        for aps in candidates:
            assert validate(aps) == []
            while found := iter_redexes(aps)[0]:
                apply_redex(aps, found[0])
                assert validate(aps) == []
                steps += 1
            structures += 1
    assert structures > 3000 and steps > 40000


def test_trace_format_mentions_rules():
    candidates, terms = ring_up_candidates()
    v = [
        is_proof_net(ps, terms, RING_UP_SIG, parse_term("mary+rang+everyone+up"))
        for ps in candidates
    ]
    win = next(x for x in v if x.is_net)
    text = win.trace.fmt()
    assert "[^>]" in text and "mary rang everyone up" in text


def test_stuck_reports_sort_condition():
    # extraction at the last separator with the withdrawn block in
    # front of sort-1 material: the mode's sort condition is reported
    sig = Signature({"s": 0, "j": 1, "k2": 2})
    hyps = [parse_term("a+1+b"), parse_term("f+1+f2")]
    fs = [parse_formula("j"), parse_formula("j\\(k2^<j)")]
    frame = unfold(fs, parse_formula("k2^<j"), sig)
    terms = dict(zip(frame.hypotheses, hyps))
    verdicts = [is_proof_net(ps, terms, sig) for ps in enumerate_linkings(frame)]
    stuck = [v for v in verdicts if v.kind == "stuck"]
    assert stuck
    assert any(
        "suffix right of the infix has nonzero sort" in r.reason
        for v in stuck for r in v.trace.stuck
    )


# One net per par rule and mode, then one stuck structure per reason a
# par link gives: name -> (hypotheses as (term, formula), goal, expected
# string, linking index, verdict kind, trace lines).
PAR_GOLDEN = {
    "\\": ([("x", "a")], "b\\(b*a)", "x", 0, "net", [
        "[+] consumed 4 -> comb 6: v3 x",
        "[+] consumed 8 -> comb 6: v7 x",
        "[\\] consumed 5 -> comb 6: x",
    ]),
    "/": ([("x", "a")], "(a*b)/b", "x", 0, "net", [
        "[+] consumed 4 -> comb 6: x v3",
        "[+] consumed 8 -> comb 6: x v7",
        "[/] consumed 5 -> comb 6: x",
    ]),
    "^>": ([("y", "np\\s")], "s^>np", "1+y", 0, "net", [
        "[+] consumed 6 -> comb 7: v5 y",
        "[+] consumed 10 -> comb 7: v9 y",
        "[^>] consumed 8 -> comb 7: 1 y",
    ]),
    "^<": ([("y", "np\\s")], "s^<np", "1+y", 0, "net", [
        "[+] consumed 6 -> comb 7: v5 y",
        "[+] consumed 10 -> comb 7: v9 y",
        "[^<] consumed 8 -> comb 7: 1 y",
    ]),
    "^n": ([("a+1+b", "j")], "(j*np)^2np", "a+1+b+1", 0, "net", [
        "[+] consumed 4 -> comb 6: a 1 b v3",
        "[+] consumed 8 -> comb 6: a 1 b v7",
        "[^2] consumed 5 -> comb 6: a 1 b 1",
    ]),
    "!>": ([("x", "s")], "j!>(j o> s)", "x", 0, "net", [
        "[x>] consumed 6,4 -> comb 9: v7 x v8",
        "[!>] consumed 5 -> comb 9: x",
    ]),
    "!<": ([("x", "s")], "j!<(j o< s)", "x", 0, "net", [
        "[x<] consumed 6,4 -> comb 9: v7 x v8",
        "[!<] consumed 5 -> comb 9: x",
    ]),
    "!n": ([("x", "s")], "k2!2(k2 o2 s)", "x", 0, "net", [
        "[x2] consumed 6,4 -> comb 10: v7 1[5.0.1] v8 x v9",
        "[!2] consumed 5 -> comb 10: x",
    ]),
    "*": ([("x", "a*b")], "a*b", "x", 0, "net", [
        "[+] consumed 8 -> comb 6: v7 v2",
        "[+] consumed 10 -> comb 6: v7 v9",
        "[*] consumed 5 -> comb 6: v0",
        "[+] consumed 4 -> comb 6: x",
    ]),
    "o>": ([("y", "j o> s")], "j o> s", "y", 0, "net", [
        "[x>] consumed 6,11 -> comb 9: v7 v10 v8",
        "[o>] consumed 5 -> comb 9: v0",
        "[+] consumed 4 -> comb 9: y",
    ]),
    "o<": ([("y", "j o< s")], "j o< s", "y", 0, "net", [
        "[x<] consumed 6,11 -> comb 9: v7 v10 v8",
        "[o<] consumed 5 -> comb 9: v0",
        "[+] consumed 4 -> comb 9: y",
    ]),
    "on": ([("y+1+z", "k2 o2 s")], "k2 o2 s", "y+1+z", 0, "net", [
        "[x2] consumed 6,12 -> comb 10: v7 1[5.0.1] v8 v11 v9",
        "[o2] consumed 5 -> comb 10: v0",
        "[+] consumed 4 -> comb 10: y 1 z",
    ]),
    "premiss-not-yet": ([("x", "(b/a)/a")], "(b/a)/a", None, 1, "stuck", [
        "[+] consumed 10 -> comb 11: x v9",
        "[+] consumed 11 -> comb 12: x v9 v7",
        "[+] consumed 16 -> comb 12: x v9 v15",
        "[+] consumed 18 -> comb 12: x v17 v15",
        "stuck:",
        "  par 13 [/]: premiss v6 is not a comb conclusion yet",
        "  par 14 [/]: withdrawn block is not the comb's suffix",
    ]),
    "not-prefix": ([("y", "b")], "a\\(b*a)", None, 0, "stuck", [
        "[+] consumed 4 -> comb 6: y v3",
        "[+] consumed 8 -> comb 6: y v7",
        "stuck:",
        "  par 5 [\\]: withdrawn block is not the comb's prefix",
    ]),
    "not-suffix": ([("y", "b")], "(a*b)/a", None, 0, "stuck", [
        "[+] consumed 4 -> comb 6: v3 y",
        "[+] consumed 8 -> comb 6: v7 y",
        "stuck:",
        "  par 5 [/]: withdrawn block is not the comb's suffix",
    ]),
    "outside-premiss": ([("x", "np"), ("y", "np\\s"), ("z", "np\\s")], "s*(s^>np)",
                        None, 1, "stuck", [
        "[+] consumed 12 -> comb 15: x v1",
        "[+] consumed 13 -> comb 15: x y",
        "[+] consumed 14 -> comb 16: v11 z",
        "[+] consumed 16 -> comb 17: v11 z v9",
        "[+] consumed 20 -> comb 17: v19 z v9",
        "stuck:",
        "  par 18 [^>]: auxiliary block lies outside the premiss comb",
    ]),
    "prefix-sort": ([("a+1+b", "j")], "(j*np)^>np", None, 0, "stuck", [
        "[+] consumed 4 -> comb 6: a 1 b v3",
        "[+] consumed 8 -> comb 6: a 1 b v7",
        "stuck:",
        "  par 5 [^>]: prefix left of the infix has nonzero sort",
    ]),
    "suffix-sort": ([("a+1+b", "j")], "(np*j)^<np", None, 0, "stuck", [
        "[+] consumed 4 -> comb 6: v3 a 1 b",
        "[+] consumed 8 -> comb 6: v7 a 1 b",
        "stuck:",
        "  par 5 [^<]: suffix right of the infix has nonzero sort",
    ]),
    "mode-sort": ([("a+1+b", "j")], "(np*j)^2np", None, 0, "stuck", [
        "[+] consumed 4 -> comb 6: v3 a 1 b",
        "[+] consumed 8 -> comb 6: v7 a 1 b",
        "stuck:",
        "  par 5 [^2]: prefix left of the infix has sort 0, mode needs 1",
    ]),
    "row-shorter": ([("x", "(j!>a)/a"), ("y", "a")], "j!>a", None, 0, "stuck", [
        "[+] consumed 9 -> comb 11: x v4",
        "[x>] consumed 12,11 -> comb 16: v14 x v4 v15",
        "stuck:",
        "  par 13 [!>]: comb row shorter than the circumfix",
        "  comb 16 [+]: comb feeds itself (cyclic linking)",
    ]),
    "circ-prefix": ([("x", "s"), ("y", "np")], "j!>(np*(j o> s))", None, 0, "stuck", [
        "[+] consumed 8 -> comb 10: y v6",
        "[x>] consumed 11,7 -> comb 14: v12 x v13",
        "[+] consumed 14 -> comb 10: y v12 x v13",
        "stuck:",
        "  par 9 [!>]: circumfix prefix does not match the comb",
    ]),
    "circ-suffix": ([("x", "s"), ("y", "np")], "j!>((j o> s)*np)", None, 0, "stuck", [
        "[+] consumed 7 -> comb 9: v5 y",
        "[x>] consumed 10,6 -> comb 13: v11 x v12",
        "[+] consumed 13 -> comb 9: v11 x v12 y",
        "stuck:",
        "  par 8 [!>]: circumfix suffix does not match the comb",
    ]),
    "not-adjacent": ([("x", "b*a")], "a*b", None, 0, "stuck", [
        "[+] consumed 8 -> comb 6: v2 v7",
        "[+] consumed 10 -> comb 6: v9 v7",
        "stuck:",
        "  par 5 [*]: the two component blocks are not adjacent",
    ]),
    "not-interleaved": ([("y", "j o> s"), ("z", "np")], "j o> (np*s)", None, 0, "stuck", [
        "[+] consumed 8 -> comb 11: z v2",
        "[x>] consumed 10,11 -> comb 14: v12 z v2 v13",
        "[+] consumed 16 -> comb 14: v12 z v15 v13",
        "stuck:",
        "  par 9 [o>]: circumfix and infix blocks are not interleaved correctly",
    ]),
}


@pytest.mark.parametrize("name", PAR_GOLDEN)
def test_par_rule_golden(name):
    hyps, goal, expect, index, kind, trace = PAR_GOLDEN[name]
    verdict = prove(hyps, goal, expect)[index]
    assert (verdict.kind, verdict.trace.fmt().splitlines()) == (kind, trace)


@pytest.mark.xfail(strict=True, reason=(
    "known completeness defect: the [*] par link and the cross link on "
    "its sort-1 component wait for each other ('separator is reserved by "
    "a pending par link')"))
@pytest.mark.parametrize("formula", ["(s^1np)*np", "(s^>s)*n"])
def test_eta_expanded_product_identity_contracts(formula):
    sig = Signature({"np": 0, "n": 0, "s": 0})
    verdicts = prove([("x+1+y", formula)], formula, expect="x+1+y", sig=sig)
    assert any(v.is_net for v in verdicts)
