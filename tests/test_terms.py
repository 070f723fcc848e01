import pytest
from hypothesis import given, strategies as st

from dispnet.terms import (
    EMPTY,
    FIRST,
    LAST,
    SEP,
    FreshVars,
    IndexOutOfRange,
    StringTerm,
    TermError,
    WrapOnSortZero,
    at,
    concat,
    format_term,
    parse_mode,
    parse_term,
    wrap,
)


def t(text):
    return parse_term(text)


def test_sort_examples():
    assert t("mary").sort == 0
    assert t("rang+1+up").sort == 1
    # a string of sort 2 with three atomic subterms
    assert t("p+1+q+1+r").sort == 2


def test_concat_examples():
    assert concat(t("mary"), t("rang")) == t("mary+rang")
    assert concat(EMPTY, t("rang+1+up")) == t("rang+1+up")
    both = concat(t("a+1"), t("1+b"))
    assert both == t("a+1+1+b")
    assert both.sort == 2


def test_wrap_first():
    assert wrap(t("rang+1+up"), FIRST, t("everyone")) == t("rang+everyone+up")
    assert wrap(t("1"), FIRST, t("a+1+b")) == t("a+1+b")


def test_wrap_last():
    assert wrap(t("a+1+b+1+c"), LAST, t("x+y")) == t("a+1+b+x+y+c")


def test_wrap_at():
    assert wrap(t("a+1+b+1+c"), at(2), t("1")) == t("a+1+b+1+c")
    assert wrap(t("a+1+b+1+c"), at(1), t("x")) == t("a+x+b+1+c")


def test_wrap_errors():
    with pytest.raises(WrapOnSortZero):
        wrap(t("a"), FIRST, t("b"))
    with pytest.raises(IndexOutOfRange):
        wrap(t("a+1+b"), at(2), t("x"))


def test_mode_validation():
    with pytest.raises(ValueError):
        at(0)
    assert str(parse_mode(">")) == ">"
    assert str(parse_mode("<")) == "<"
    assert parse_mode("3") == at(3)


def test_mode_with_a_digit_that_is_not_decimal_is_a_term_error():
    # "²" is a digit to str.isdigit, but int() refuses it
    with pytest.raises(TermError) as exc:
        parse_mode("²")
    assert str(exc.value) == "bad wrap mode '²'"


words = st.sampled_from(["a", "b", "c", "w", "p0"])
items = st.one_of(words, st.just(SEP))
terms = st.builds(lambda xs: StringTerm(tuple(xs)), st.lists(items, max_size=8))


@given(terms, terms)
def test_concat_sort_additive(x, y):
    assert concat(x, y).sort == x.sort + y.sort


@given(terms, terms, terms)
def test_concat_associative(x, y, z):
    assert concat(concat(x, y), z) == concat(x, concat(y, z))


@given(terms)
def test_empty_identity(x):
    assert concat(EMPTY, x) == x
    assert concat(x, EMPTY) == x


@given(terms, terms)
def test_wrap_sort_arithmetic(x, y):
    if x.sort == 0:
        with pytest.raises(WrapOnSortZero):
            wrap(x, FIRST, y)
        return
    assert wrap(x, FIRST, y).sort == x.sort + y.sort - 1


@given(terms, terms)
def test_wrap_first_is_at_1(x, y):
    if x.sort >= 1:
        assert wrap(x, FIRST, y) == wrap(x, at(1), y)


@given(terms, terms)
def test_wrap_last_is_at_sort(x, y):
    if x.sort >= 1:
        assert wrap(x, LAST, y) == wrap(x, at(x.sort), y)


@given(terms)
def test_parse_print_round_trip(x):
    assert parse_term(format_term(x)) == x


def test_parse_rejects_garbage():
    with pytest.raises(TermError):
        parse_term("a++b")
    with pytest.raises(TermError):
        parse_term("")
    with pytest.raises(TermError):
        parse_term("a+0")
    with pytest.raises(TermError):
        parse_term("2+a")


def test_fresh_vars_generic_term():
    fresh = FreshVars()
    g = fresh.term(2)
    assert g == t("p0+1+p1+1+p2")
    assert fresh.term(0) == t("p3")
