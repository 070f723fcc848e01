import pytest

from support import validate
from dispnet.aps import SortMismatch, to_aps
from dispnet.formula import Atom, Signature, parse_formula
from dispnet.proofstructure import enumerate_linkings, unfold
from dispnet.terms import SEP, parse_term

SIG = Signature({"np": 0, "n": 0, "s": 0, "big2": 2})

RING_UP_HYPS = [
    parse_formula("np"),
    parse_formula("(np\\s)^>np"),
    parse_formula("(s^>np)!>s"),
]
RING_UP_TERMS = ["mary", "rang+1+up", "everyone"]


def ring_up_structures():
    frame = unfold(RING_UP_HYPS, Atom("s"), SIG)
    structures = list(enumerate_linkings(frame))
    terms = {
        h: parse_term(t) for h, t in zip(frame.hypotheses, RING_UP_TERMS)
    }
    return structures, terms


def test_ring_up_aps_shape():
    structures, terms = ring_up_structures()
    for ps in structures:
        a = to_aps(ps, terms, SIG)
        # one par link survives, both cross links survive, the one
        # plus-tensor became a comb
        assert len(a.pars) == sum(l.kind == "par" for l in ps.frame.links) == 1
        assert len(a.crosses) == 2
        # combs: three lexical + one from the plus link + one tether
        assert len(a.combs) == 5
        par = next(iter(a.pars.values()))
        assert par.tag == "^" and str(par.mode) == ">"
        # the withdrawn np has sort 0: exactly one tether point
        assert [len(g) for g in par.groups] == [1]
        assert validate(a) == []
        assert a.conclusion == ps.goal


def test_ring_up_lexical_comb_rows():
    structures, terms = ring_up_structures()
    a = to_aps(structures[0], terms, SIG)
    rows = sorted(
        tuple("*" if type(it) is int else it for it in c.row)
        for c in a.combs.values()
    )
    assert ("rang", SEP, "up") in rows
    assert ("mary",) in rows
    assert ("everyone",) in rows


def test_axiom_aps_is_single_comb():
    frame = unfold([Atom("big2")], Atom("big2"), SIG)
    ps = next(enumerate_linkings(frame))
    a = to_aps(ps, {ps.frame.hypotheses[0]: parse_term("p+1+q+1+r")}, SIG)
    assert a.is_single_comb()
    assert str(a.final_term()) == "p+1+q+1+r"


def test_sort_mismatch_rejected():
    frame = unfold([Atom("np")], Atom("np"), SIG)
    ps = next(enumerate_linkings(frame))
    with pytest.raises(SortMismatch):
        to_aps(ps, {ps.frame.hypotheses[0]: parse_term("a+1+b")}, SIG)


def test_tether_group_sizes_match_sorts():
    # withdrawing a sort-2 hypothesis tethers three points
    frame = unfold([Atom("s")], parse_formula("big2!>(big2 o> s)"), SIG)
    # goal sort: s(big2 o> s) + 1 - s(big2) = (2+0-1) + 1 - 2 = 0
    ps = next(enumerate_linkings(frame))
    a = to_aps(ps, {ps.frame.hypotheses[0]: parse_term("x")}, SIG)
    sizes = sorted(len(g) for p in a.pars.values() for g in p.groups)
    assert sizes == [3]


def test_to_text_deterministic():
    structures, terms = ring_up_structures()
    a1 = to_aps(structures[0], terms, SIG).to_text()
    a2 = to_aps(structures[0], terms, SIG).to_text()
    assert a1 == a2
    assert "cross" in a1 and "par" in a1 and "conclusion" in a1


def test_clone_independent():
    structures, terms = ring_up_structures()
    a = to_aps(structures[0], terms, SIG)
    b = a.clone()
    b.combs[next(iter(b.combs))].row.append("zzz")
    assert a.to_text() != b.to_text()
