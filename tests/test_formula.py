import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from dispnet.formula import (
    Atom,
    Down,
    FormulaError,
    IllSorted,
    Over,
    Prod,
    Signature,
    Under,
    Up,
    Wrap,
    _children,
    format_formula,
    parse_formula,
    random_formula,
    well_sorted,
)
from dispnet.terms import FIRST, at

SIG = Signature({"np": 0, "n": 0, "s": 0, "pp": 0, "inf": 1, "big2": 2})


def brute_sort(f, sig):
    # Independent evaluator: the raw recurrences, no caching, no checks.
    if isinstance(f, Atom):
        return sig.sorts[f.name]
    if isinstance(f, Prod):
        return brute_sort(f.left, sig) + brute_sort(f.right, sig)
    if isinstance(f, Under):
        return brute_sort(f.result, sig) - brute_sort(f.arg, sig)
    if isinstance(f, Over):
        return brute_sort(f.result, sig) - brute_sort(f.arg, sig)
    if isinstance(f, Wrap):
        return brute_sort(f.left, sig) + brute_sort(f.right, sig) - 1
    if isinstance(f, Down):
        return brute_sort(f.result, sig) + 1 - brute_sort(f.arg, sig)
    if isinstance(f, Up):
        return brute_sort(f.result, sig) + 1 - brute_sort(f.arg, sig)
    raise AssertionError(f)


def test_sort_examples():
    f = parse_formula("(np\\s)^>np")
    assert SIG.sort_of(f) == 1
    assert SIG.sort_of(Atom("np")) == 0
    g = parse_formula("(s^>np)!>s")
    assert SIG.sort_of(g) == 0
    assert brute_sort(g, SIG) == 0


def test_well_sorted_ok():
    assert well_sorted(parse_formula("(np\\s)^>np"), SIG) == []


def test_well_sorted_circumfix_violation():
    # the left argument of a wrap connective needs a separator
    f = parse_formula("np\\(s o> s)")
    violations = well_sorted(f, SIG)
    assert violations
    assert any("sort 0" in v for v in violations)


def test_well_sorted_mode_index_violation():
    f = Up(Atom("s"), Atom("np"), at(2))  # s^2np has sort 1, mode 2 too big
    violations = well_sorted(f, SIG)
    assert violations
    assert any("mode 2" in v for v in violations)


def test_well_sorted_unknown_atom():
    assert well_sorted(Atom("zz"), SIG) == ["unknown atom zz"]


def test_well_sorted_negative_division():
    f = parse_formula("inf\\np")  # 0 - 1 < 0
    assert well_sorted(f, SIG)


@pytest.mark.parametrize("text, violations", [
    ("np\\q", ["unknown atom q"]),
    ("q o> np", ["unknown atom q"]),
    ("np o> q", ["unknown atom q", "np o> q: circumfix argument has sort 0"]),
    ("(j\\np)/np", ["j\\np: result sort smaller than argument sort"]),
    ("np\\(s o> s)", ["s o> s: circumfix argument has sort 0", "s o> s: negative sort"]),
])
def test_a_sort_violation_is_reported_once_where_it_arises(text, violations):
    # a formula whose operand has no sort is not blamed for its own
    assert well_sorted(parse_formula(text), Signature({"np": 0, "s": 0, "j": 1})) == violations


def test_parse_associativity():
    assert parse_formula("a\\b\\c") == Under(Atom("a"), Under(Atom("b"), Atom("c")))
    assert parse_formula("a/b/c") == Over(Over(Atom("a"), Atom("b")), Atom("c"))
    with pytest.raises(FormulaError):
        parse_formula("a\\b/c")
    with pytest.raises(FormulaError):
        parse_formula("a*b*c")


def test_parse_modes():
    f = parse_formula("s^12np")
    assert f == Up(Atom("s"), Atom("np"), at(12))
    g = parse_formula("inf o> np")
    assert g == Wrap(Atom("inf"), Atom("np"), FIRST)
    with pytest.raises(FormulaError):
        parse_formula("s^np")


def test_print_examples():
    assert format_formula(parse_formula("(np\\s)^>np")) == "(np\\s)^>np"
    assert format_formula(parse_formula("a\\b\\c")) == "a\\b\\c"
    assert format_formula(parse_formula("a/(b/c)")) == "a/(b/c)"
    assert format_formula(parse_formula("inf o< np")) == "inf o< np"


def test_signature_parse_format():
    text = "np 0\ns 0\ninf 1\n"
    sig = Signature.parse(text)
    assert sig.sorts == {"np": 0, "s": 0, "inf": 1}
    assert Signature.parse(sig.format()) == sig
    with pytest.raises(FormulaError):
        Signature.parse("np zero")
    with pytest.raises(FormulaError):
        Signature.parse("np 0\nnp 1")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 5))
def test_random_formula_sort_identities(seed, budget):
    rng = random.Random(seed)
    f = random_formula(rng, SIG, budget)
    assert well_sorted(f, SIG) == []
    s = SIG.sort_of(f)
    assert s >= 0
    assert s == brute_sort(f, SIG)
    # Table-style rearrangements on compound formulas
    if isinstance(f, Under):
        assert SIG.sort_of(f) + SIG.sort_of(f.arg) == SIG.sort_of(f.result)
    if isinstance(f, Over):
        assert SIG.sort_of(f) + SIG.sort_of(f.arg) == SIG.sort_of(f.result)
    if isinstance(f, Up):
        assert SIG.sort_of(f) + SIG.sort_of(f.arg) == SIG.sort_of(f.result) + 1
    if isinstance(f, Down):
        assert SIG.sort_of(f) + SIG.sort_of(f.arg) == SIG.sort_of(f.result) + 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_formula_round_trip(seed):
    rng = random.Random(seed)
    f = random_formula(rng, SIG, 4)
    assert parse_formula(format_formula(f)) == f


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_well_sorted_monotone(seed):
    # a compound formula is ok iff its parts are ok and its own top
    # condition holds
    from dispnet.formula import _children, top_level_ok

    rng = random.Random(seed)
    f = random_formula(rng, SIG, 4)
    ok = well_sorted(f, SIG) == []
    parts_ok = all(well_sorted(c, SIG) == [] for c in _children(f))
    assert ok == (parts_ok and top_level_ok(f, SIG))


# --- what a formula node remembers ---------------------------------------

SIG_A = Signature({"np": 1, "s": 0})
SIG_B = Signature({"np": 0, "s": 2})


def checked_sort(f, sig):
    """brute_sort, or None when some subformula's sort is negative."""
    if not isinstance(f, Atom) and any(
            checked_sort(c, sig) is None for c in _children(f)):
        return None
    s = brute_sort(f, sig)
    return s if s >= 0 else None


def asked_sort(f, sig):
    try:
        return sig.sort_of(f)
    except IllSorted:
        return None


def subformulas(f):
    yield f
    for c in _children(f):
        yield from subformulas(c)


def test_one_node_answers_each_signature_with_its_own_sort():
    f = parse_formula("(s^>np)*np")
    for _ in range(3):
        assert SIG_A.sort_of(f) == 1 and SIG_A.sort_of(f.left) == 0
        assert SIG_B.sort_of(f) == 3 and SIG_B.sort_of(f.left) == 3


def test_alternating_signatures_match_the_raw_recurrences():
    rng = random.Random(5)
    sig_b = Signature({"np": 1, "n": 0, "s": 2, "pp": 0, "inf": 0, "big2": 1})
    formulas = [random_formula(rng, SIG, 5) for _ in range(300)]
    for sig in (SIG, sig_b, SIG, sig_b):
        for f in formulas:
            for g in subformulas(f):
                assert asked_sort(g, sig) == checked_sort(g, sig)
                assert (well_sorted(g, sig) == []) == (
                    well_sorted(parse_formula(format_formula(g)), sig) == [])


def test_well_sorted_under_one_signature_is_not_taken_for_another():
    f = parse_formula("(np!>s)/s")
    bad = ["np!>s: circumfix argument has sort 0"]
    for _ in range(2):
        assert well_sorted(f, SIG_A) == []
        assert well_sorted(f, SIG_B) == bad
    # the sort alone, asked under B, must not carry A's verdict over
    assert well_sorted(f, SIG_A) == []
    SIG_B.sort_of(f)
    assert well_sorted(f, SIG_B) == bad


def test_negative_sort_raises_every_time():
    f = parse_formula("s/np")
    for _ in range(3):
        with pytest.raises(IllSorted):
            SIG_A.sort_of(f)
        assert well_sorted(f, SIG_A) == [
            "s/np: result sort smaller than argument sort"]
    assert getattr(f, "_sig", None) is not SIG_A
    assert SIG_B.sort_of(f) == 2


def test_equal_formulas_hash_equal():
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng, SIG, 5)
        g = parse_formula(format_formula(f))
        SIG.sort_of(f)
        assert f == g and f is not g and hash(f) == hash(g)
        assert {f: 1}[g] == 1


def test_replace_of_a_remembered_node_answers_afresh():
    f = parse_formula("np\\(s^>np)")
    assert SIG_B.sort_of(f) == 3 and well_sorted(f, SIG_B) == []
    g = replace(f, arg=Atom("s"))
    assert SIG_B.sort_of(g) == 1 and well_sorted(g, SIG_B) == []
    h = replace(f.result, result=Atom("np"))
    assert SIG_B.sort_of(h) == 1
    assert well_sorted(replace(f, arg=Atom("pp")), SIG_B)[0] == "unknown atom pp"
    assert replace(f) == f and hash(replace(f)) == hash(f)


def test_the_signature_keeps_no_table_of_formulas():
    sig = Signature({"np": 0, "s": 0})
    for text in ("np\\s", "s/np", "(np\\s)/np", "np*np"):
        sig.sort_of(parse_formula(text))
        well_sorted(parse_formula(text), sig)
    assert vars(sig) == {"sorts": {"np": 0, "s": 0}}
    # nor does a node: its answers live in slots, and its fields are its
    # operands (and mode) only
    f = parse_formula("(np\\s)^>np")
    assert not hasattr(f, "__dict__")
    assert [x.name for x in fields(f)] == ["result", "arg", "mode"]
