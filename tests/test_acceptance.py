"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion 3's exhaustive bounds are configurable: the stated corpus
(every sequent over np/n/s with up to 6 connectives and up to 4
hypotheses) has on the order of 1e8 sequents, which no desk machine
enumerates in minutes, so the default run checks two exhaustive slices
(~1.2 million sequents) plus a seeded random sample drawn from the full
corpus. Set DISPNET_ACCEPT_BOUNDS (e.g. "3:3" or "6:4" for the full
enumeration, hours to days) and DISPNET_ACCEPT_SAMPLE to push further.
"""

import itertools
import os
import random
import time

from dispnet import cli
from dispnet.formula import (
    Atom,
    Over,
    Prod,
    Signature,
    Under,
    parse_formula,
    random_formula,
    well_sorted,
)
from dispnet.lexicon import load_grammar
from dispnet.nd import (
    LambekOracle,
    check_nd,
    extract_nd,
    open_hyps,
)
from dispnet.contraction import contract, is_proof_net
from dispnet.proofstructure import (
    CountMismatch,
    enumerate_linkings,
    unfold,
)
from dispnet.terms import parse_term

from conftest import CORPUS_SIG, LAMBEK_SIG, prove_lambek
from support import all_linkings, has_cycle, linking

RING_UP = """\
np 0
s 0
mary := mary : np
rang_up := rang+1+up : (np\\s)^>np
everyone := everyone : (s^>np)!>s
"""


def report(criterion, detail):
    print(f"[acceptance] criterion {criterion} PASS: {detail}")


# -- criterion 1: the worked discontinuous sentence ------------------------


def test_criterion_1_ring_up_parse():
    grammar = load_grammar(RING_UP)
    t0 = time.time()
    result = cli.run_parse(grammar, "mary rang everyone up".split(),
                           all_readings=True)
    elapsed = time.time() - t0
    assert result.linkings_tried == 4
    assert len(result.readings) == 1
    reading = result.readings[0]
    assert "^>" in reading.verdict.trace.logical_rules()
    assert str(reading.verdict.comb_term) == "mary+rang+everyone+up"
    assert result.goal == Atom("s")
    assert elapsed < 1.0
    report(1, f"1 reading of 4 linkings, [^>] fired, comb "
              f"'{reading.verdict.comb_term}' : s in {elapsed * 1000:.0f} ms")


# -- criterion 2: sort arithmetic -------------------------------------------


def brute_sort(f, sig):
    if isinstance(f, Atom):
        return sig.sorts[f.name]
    import dispnet.formula as fm

    if isinstance(f, fm.Prod):
        return brute_sort(f.left, sig) + brute_sort(f.right, sig)
    if isinstance(f, (fm.Under, fm.Over)):
        return brute_sort(f.result, sig) - brute_sort(f.arg, sig)
    if isinstance(f, fm.Wrap):
        return brute_sort(f.left, sig) + brute_sort(f.right, sig) - 1
    return brute_sort(f.result, sig) + 1 - brute_sort(f.arg, sig)


def test_criterion_2_sort_arithmetic():
    import dispnet.formula as fm

    sig = Signature({"np": 0, "n": 0, "s": 0, "pp": 0, "inf": 1})
    assert sig.sort_of(parse_formula("(np\\s)^>np")) == 1

    shoulder = load_grammar(
        "np 0\ns 0\n"
        "give_shoulder := gave+1+the+cold+shoulder : (np\\s)^>np\n"
    )
    entry = shoulder.all_entries()[0]
    assert entry.string.sort == 1
    assert shoulder.signature.sort_of(entry.formula) == 1

    rng = random.Random(20)
    checked = 0
    for _ in range(10_000):
        f = random_formula(rng, sig, 5)
        assert well_sorted(f, sig) == []
        s = sig.sort_of(f)
        assert s >= 0
        assert s == brute_sort(f, sig)
        if isinstance(f, (fm.Under, fm.Over)):
            assert s + sig.sort_of(f.arg) == sig.sort_of(f.result)
        elif isinstance(f, (fm.Up, fm.Down)):
            assert s + sig.sort_of(f.arg) == sig.sort_of(f.result) + 1
        elif isinstance(f, fm.Prod):
            assert s == sig.sort_of(f.left) + sig.sort_of(f.right)
        elif isinstance(f, fm.Wrap):
            assert s == sig.sort_of(f.left) + sig.sort_of(f.right) - 1
        checked += 1
    report(2, f"(np\\s)^>np has sort 1, idiom entry validates, "
              f"{checked} random formulas satisfy the sort identities exactly")


# -- criterion 3: Lambek-fragment oracle equivalence -------------------------

LAMBEK_ATOMS = tuple(LAMBEK_SIG.sorts)
_FORMULAS = {0: [Atom(a) for a in LAMBEK_ATOMS]}


def lambek_formulas(conn):
    if conn not in _FORMULAS:
        out = []
        for i in range(conn):
            for a in lambek_formulas(i):
                for b in lambek_formulas(conn - 1 - i):
                    out.extend((Over(a, b), Under(a, b), Prod(a, b)))
        _FORMULAS[conn] = out
    return _FORMULAS[conn]


def lambek_sequents(max_conn, max_hyps):
    for total in range(max_conn + 1):
        for m in range(max_hyps + 1):
            for comp in itertools.product(range(total + 1), repeat=m + 1):
                if sum(comp) != total:
                    continue
                pools = [lambek_formulas(c) for c in comp]
                for combo in itertools.product(*pools):
                    yield combo[:-1], combo[-1]


def random_lambek_formula(rng, conn):
    if conn == 0:
        return Atom(rng.choice(LAMBEK_ATOMS))
    left = rng.randint(0, conn - 1)
    a = random_lambek_formula(rng, left)
    b = random_lambek_formula(rng, conn - 1 - left)
    return rng.choice((Over(a, b), Under(a, b), Prod(a, b)))


def test_criterion_3_lambek_oracle_equivalence():
    bounds = os.environ.get("DISPNET_ACCEPT_BOUNDS", "2:4,3:2")
    sample_n = int(os.environ.get("DISPNET_ACCEPT_SAMPLE", "2000"))
    oracle = LambekOracle()
    total = 0
    unbalanced = 0  # decided by the atom count, before unfolding

    def agree(hs, goal):
        nonlocal unbalanced
        result = prove_lambek(hs, goal)
        assert bool(result.readings) == oracle.derivable(hs, goal), (hs, goal)
        unbalanced += bool(result.errors)

    for spec_part in bounds.split(","):
        conn, hyps = (int(x) for x in spec_part.split(":"))
        for hs, goal in lambek_sequents(conn, hyps):
            agree(hs, goal)
            total += 1

    rng = random.Random(600)
    sampled = 0
    for _ in range(sample_n):
        m = rng.randint(0, 4)
        budget = rng.randint(0, 6)
        cuts = sorted(rng.randint(0, budget) for _ in range(m))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
        formulas = [random_lambek_formula(rng, c) for c in sizes]
        hs, goal = tuple(formulas[:-1]), formulas[-1]
        agree(hs, goal)
        sampled += 1
    report(3, f"100% agreement on {total} exhaustively enumerated sequents "
              f"(bounds {bounds}) plus {sampled} sampled sequents at "
              f"connectives<=6, hypotheses<=4; the atom count decided "
              f"{unbalanced}, {total + sampled - unbalanced} went on to linking")


# -- criteria 4-6: the shared random corpus ----------------------------------

ORDERS = 20


def test_criterion_4_confluence(proof_corpus):
    discrepancies = 0
    for i, (p, ps, terms, aps, trace) in enumerate(proof_corpus):
        assert trace.contracted
        reference = None
        for seed in range(ORDERS):
            rng = random.Random(i * 1009 + seed)
            clone = aps.clone()
            t = contract(clone, select=rng.choice)
            assert t.contracted, f"corpus {i} order {seed} got stuck"
            term = clone.final_term()
            if reference is None:
                reference = term
            elif term != reference:
                discrepancies += 1
        assert reference == p.term
    assert discrepancies == 0
    report(4, f"{len(proof_corpus)} structures x {ORDERS} random orders all "
              f"reached the identical comb (0 discrepancies)")


def test_criterion_5_termination_and_search_bounds(proof_corpus):
    checked = 0
    for i, (p, ps, terms, aps, trace) in enumerate(proof_corpus):
        initial = trace.initial_elements
        assert len(trace.steps) <= initial
        assert trace.max_search_touched <= initial
        rng = random.Random(i)
        clone = aps.clone()
        t = contract(clone, select=rng.choice)
        assert len(t.steps) <= t.initial_elements
        assert t.max_search_touched <= t.initial_elements
        checked += 1
    report(5, f"{checked} deterministic + {checked} random traces obey "
              f"steps<=elements and per-step search<=elements exactly")


def test_criterion_6_round_trip(proof_corpus):
    for i, (p, ps, terms, aps, trace) in enumerate(proof_corpus):
        assert trace.contracted, f"corpus {i} does not contract"
        clone = aps.clone()
        contract(clone)
        assert clone.final_term() == p.term, f"corpus {i} comb != conclusion"
        verdict = is_proof_net(ps, terms, CORPUS_SIG)
        assert verdict.is_net
        q = extract_nd(verdict, CORPUS_SIG)
        bad = check_nd(q, CORPUS_SIG)
        assert not bad, f"corpus {i}: {bad}"
        assert q.term == p.term and q.formula == p.formula
        got = {h.label: (h.term, h.formula) for h in open_hyps(q).values()}
        want = {v: (terms[v], ps.frame.formulas[v]) for v in ps.frame.hypotheses}
        assert got == want, f"corpus {i}: sequent hypotheses differ"
    report(6, f"{len(proof_corpus)} proofs: net contracts to the conclusion "
              f"comb and extraction re-derives the identical sequent (100%)")


# -- criterion 7: negative controls ------------------------------------------


def test_criterion_7_negative_controls():
    sig = Signature({"np": 0, "s": 0})
    frame = unfold([Atom("np")], Atom("s"), sig)
    try:
        list(enumerate_linkings(frame))
        raise AssertionError("np |- s should not link")
    except CountMismatch as exc:
        assert exc.mismatches == {"np": (1, 0), "s": (0, 1)}

    grammar = load_grammar(RING_UP)
    frame = unfold(
        [e.formula for e in (grammar.entries[h][0]
                             for h in ("mary", "rang_up", "everyone"))],
        Atom("s"), grammar.signature,
    )
    terms = {
        h: parse_term(t)
        for h, t in zip(frame.hypotheses, ("mary", "rang+1+up", "everyone"))
    }
    expected = parse_term("mary+rang+everyone+up")
    verdicts = [
        is_proof_net(ps, terms, grammar.signature, expected)
        for ps in all_linkings(frame)
    ]
    losers = [v for v in verdicts if not v.is_net]
    assert len(losers) == 3
    kinds = sorted(v.kind for v in losers)
    assert kinds == ["string_mismatch", "stuck", "stuck"]
    for v in losers:
        # every rejection carries structured diagnostics: the stuck
        # reports, or the derived string that differs from the expected
        if v.kind == "stuck":
            assert any("comb" in r.reason for r in v.trace.stuck)
        else:
            assert v.comb_term not in (None, expected)
    # the two stuck linkings close a cycle, and the search skips them
    cyclic = {linking(v.ps) for v in verdicts if has_cycle(frame, linking(v.ps))}
    assert cyclic == {linking(v.ps) for v in losers if v.kind == "stuck"}
    assert not cyclic & {linking(ps) for ps in enumerate_linkings(frame)}
    report(7, "np |- s rejected with per-atom CountMismatch; the 3 losing "
              "linkings rejected with stuck-pattern / word-order diagnostics, "
              "the 2 stuck ones skipped by the search as cyclic")
