import pytest

from dispnet import formula as fm
from dispnet import terms as tm
from dispnet.lexicon import (
    GrammarError,
    lexical_covers,
    load_grammar,
    lookup,
    print_grammar,
)

RING_UP = """\
# ring-up grammar
np 0
s 0
mary := mary : np
rang_up := rang+1+up : (np\\s)^>np
everyone := everyone : (s^>np)!>s
"""


def test_load_accepts_ring_up():
    g = load_grammar(RING_UP)
    entry = lookup(g, "rang_up")[0]
    assert entry.string == tm.parse_term("rang+1+up")
    assert entry.string.sort == 1
    assert g.signature.sort_of(entry.formula) == 1
    assert lookup(g, "mary")[0].string.sort == 0


def test_load_rejects_sort_mismatch():
    with pytest.raises(GrammarError) as exc:
        load_grammar("np 0\nbad := a+1 : np\n")
    assert any("string sort 1 != formula sort 0" in v for v in exc.value.violations)
    assert any(v.startswith("line 2") for v in exc.value.violations)


def test_load_rejects_unknown_atom_and_reports_all():
    with pytest.raises(GrammarError) as exc:
        load_grammar("np 0\na := a : zz\nb := b+1 : np\n")
    assert len(exc.value.violations) == 2


def test_load_rejects_wordless_entry():
    with pytest.raises(GrammarError) as exc:
        load_grammar("np 0\ninf 1\nx := 1 : inf\n")
    assert any("no words" in v for v in exc.value.violations)


def test_lookup_examples():
    g = load_grammar(RING_UP)
    hits = lookup(g, "everyone")
    assert len(hits) == 1
    assert fm.format_formula(hits[0].formula) == "(s^>np)!>s"
    assert lookup(g, "zzz") == []
    # sort recomputed from the string term itself
    assert lookup(g, "rang_up")[0].string.sort == 1


def test_print_load_round_trip():
    g = load_grammar(RING_UP)
    assert load_grammar(print_grammar(g)) == g


def test_pieces():
    g = load_grammar(RING_UP)
    assert lookup(g, "rang_up")[0].pieces() == [("rang",), ("up",)]
    assert lookup(g, "mary")[0].pieces() == [("mary",)]


def test_covers_ring_up_sentence():
    g = load_grammar(RING_UP)
    covers = lexical_covers(g, "mary rang everyone up".split())
    assert len(covers) == 1
    cover = covers[0]
    assert [m.entry.headword for m in cover] == ["mary", "rang_up", "everyone"]
    ring = cover[1]
    assert ring.spans == ((1, 2), (3, 4))


def test_covers_reject_unknown_or_partial():
    g = load_grammar(RING_UP)
    assert lexical_covers(g, ["mary", "rang"]) == []  # dangling idiom piece
    assert lexical_covers(g, ["mary", "zzz"]) == []


def test_covers_word_order_variant():
    g = load_grammar(RING_UP)
    covers = lexical_covers(g, "rang mary up everyone".split())
    assert len(covers) == 1
    assert [m.entry.headword for m in covers[0]] == ["rang_up", "mary", "everyone"]


def test_covers_ambiguous_segmentation():
    g = load_grammar(
        "np 0\ns 0\n"
        "up := up : np\n"
        "rang_up := rang+1+up : (np\\s)^>np\n"
        "mary := mary : np\n"
        "rang := rang : np\n"
    )
    covers = lexical_covers(g, "rang mary up".split())
    # either the idiom wraps around mary, or three simple words
    heads = sorted(tuple(m.entry.headword for m in c) for c in covers)
    assert heads == [("rang", "mary", "up"), ("rang_up", "mary")]
