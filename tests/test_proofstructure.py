import math
import random
import time
import tracemalloc
from dataclasses import replace
from itertools import permutations, product

import pytest

from conftest import CORPUS_SIG
from dispnet.aps import IllFormedComb, to_aps
from dispnet.contraction import is_proof_net
from dispnet.formula import (
    Atom,
    Signature,
    format_formula,
    parse_formula,
    random_formula,
)
from dispnet.nd import extract_nd, nd_to_sexpr, open_leaves_in_order
from dispnet.proofstructure import (
    Anchors,
    CountMismatch,
    ProofFrame,
    ProofStructure,
    check_structure,
    count_mismatches,
    enumerate_linkings,
    linking_count,
    place,
    sequent_mismatches,
    unfold,
)
from dispnet.terms import parse_term

SIG = Signature({"np": 0, "n": 0, "s": 0, "inf": 1})

RING_UP_HYPS = [
    parse_formula("np"),
    parse_formula("(np\\s)^>np"),
    parse_formula("(s^>np)!>s"),
]
GOAL_S = Atom("s")


def ring_up_frame():
    return unfold(RING_UP_HYPS, GOAL_S, SIG)


def test_ring_up_frame_shape():
    frame = ring_up_frame()
    tensor = [l for l in frame.links if l.kind == "tensor"]
    par = [l for l in frame.links if l.kind == "par"]
    assert sorted(l.tag for l in tensor) == ["L!", "L\\", "L^"]
    assert [l.tag for l in par] == ["R^"]
    assert str(par[0].mode) == ">"
    # atoms: four np occurrences and four s occurrences (goal included)
    assert len(frame.producers["np"]) == 2
    assert len(frame.consumers["np"]) == 2
    assert len(frame.producers["s"]) == 2
    assert len(frame.consumers["s"]) == 2


def test_ring_up_linking_count():
    frame = ring_up_frame()
    structures = list(enumerate_linkings(frame))
    # independent count: product of factorials of per-atom multiplicities
    expected = math.prod(
        math.factorial(len(v)) for v in frame.producers.values()
    )
    assert expected == 4
    assert len(structures) == 4
    assert linking_count(frame) == 4
    for ps in structures:
        assert check_structure(ps) == []
        assert len(ps.frame.hypotheses) == 3


def test_axiom_frame():
    frame = unfold([Atom("np")], Atom("np"), SIG)
    assert frame.links == []
    structures = list(enumerate_linkings(frame))
    assert len(structures) == 1
    ps = structures[0]
    assert ps.goal == ps.frame.hypotheses[0]


def test_simple_over_frame():
    frame = unfold([parse_formula("a/b"), Atom("b")], Atom("a"), Signature({"a": 0, "b": 0}))
    # one tensor link, leaves b, b, a, a
    assert len(frame.links) == 1
    link = frame.links[0]
    assert link.kind == "tensor" and link.tag == "L/"
    assert len(frame.producers["b"]) == 1 and len(frame.consumers["b"]) == 1
    assert len(frame.producers["a"]) == 1 and len(frame.consumers["a"]) == 1
    assert linking_count(frame) == 1


def test_count_mismatch():
    frame = unfold([Atom("np")], Atom("s"), SIG)
    mism = count_mismatches(frame)
    assert set(mism) == {"np", "s"}
    with pytest.raises(CountMismatch) as exc:
        list(enumerate_linkings(frame))
    assert set(exc.value.mismatches) == {"np", "s"}
    assert linking_count(frame) == 0


def connectives(f):
    """(connective, mode kind or None) of every compound subformula."""
    if isinstance(f, Atom):
        return set()
    parts = (f.left, f.right) if hasattr(f, "left") else (f.result, f.arg)
    mode = getattr(f, "mode", None)
    here = (type(f).__name__, mode.kind if mode else None)
    return {here}.union(*map(connectives, parts))


def test_sequent_mismatches_match_unfold_randomly():
    rng = random.Random(13)
    seen = set()
    balanced = 0
    for _ in range(2000):
        hyps = [random_formula(rng, SIG, 3) for _ in range(rng.randint(0, 3))]
        goal = random_formula(rng, SIG, 3)
        want = count_mismatches(unfold(hyps, goal, SIG))
        assert sequent_mismatches(hyps, goal) == want, (hyps, goal)
        balanced += not want
        seen.update(*map(connectives, hyps + [goal]))
    # every connective, every wrap mode kind, and both outcomes occurred
    assert {name for name, _ in seen} == {
        "Over", "Under", "Prod", "Up", "Down", "Wrap"}
    assert {(name, kind) for name, kind in seen if kind} == {
        (name, kind) for name in ("Up", "Down", "Wrap") for kind in "<>@"}
    assert 0 < balanced < 2000


def test_sequent_mismatches_match_unfold_on_corpus(proof_corpus):
    for proof, *_ in proof_corpus:
        hyps = [h.formula for h in open_leaves_in_order(proof)]
        frame = unfold(hyps, proof.formula, CORPUS_SIG)
        assert (sequent_mismatches(hyps, proof.formula)
                == count_mismatches(frame)), str(proof.term)


def test_enumeration_deterministic():
    frame = ring_up_frame()
    first = [ps.linking for ps in enumerate_linkings(frame)]
    second = [ps.linking for ps in enumerate_linkings(ring_up_frame())]
    assert first == second
    assert len(set(first)) == 4


def test_dump_stable():
    frame = ring_up_frame()
    assert frame.dump() == unfold(RING_UP_HYPS, GOAL_S, SIG).dump()
    assert "par R^> " in frame.dump()


# One connective unfolded on each side: the link, and the formula of each
# vertex in vertex-id order. Vertex numbering fixes the linking order, so
# ``Reading.verdict.ps.index`` and the comb ids in traces depend on it.
UNFOLD_LAYOUT = [
    ("s/np", True, "tensor L/ [0 1] -> [2]", ["s/np", "np", "s", "n"]),
    ("s/np", False, "par R/ [1] -> [0 2] main=0", ["s/np", "s", "np"]),
    ("np\\s", True, "tensor L\\ [1 0] -> [2]", ["np\\s", "np", "s", "n"]),
    ("np\\s", False, "par R\\ [1] -> [2 0] main=0", ["np\\s", "s", "np"]),
    ("np*s", True, "par L* [0] -> [1 2] main=0", ["np*s", "np", "s", "n"]),
    ("np*s", False, "tensor R* [1 2] -> [0]", ["np*s", "np", "s"]),
    ("s^>np", True, "tensor L^> [0 1] -> [2]", ["s^>np", "np", "s", "n"]),
    ("s^>np", False, "par R^> [1] -> [0 2] main=0", ["s^>np", "s", "np"]),
    ("inf!<s", True, "tensor L!< [1 0] -> [2]", ["inf!<s", "inf", "s", "n"]),
    ("inf!<s", False, "par R!< [1] -> [2 0] main=0", ["inf!<s", "s", "inf"]),
    ("inf o1 np", True, "par Lo1 [0] -> [1 2] main=0",
     ["inf o1 np", "inf", "np", "n"]),
    ("inf o1 np", False, "tensor Ro1 [1 2] -> [0]", ["inf o1 np", "inf", "np"]),
]


def vertex_formulas(structure):
    return [format_formula(structure.vertices[v].formula)
            for v in sorted(structure.vertices)]


@pytest.mark.parametrize("text, positive, dump, formulas", UNFOLD_LAYOUT)
def test_unfold_layout(text, positive, dump, formulas):
    f = parse_formula(text)
    frame = unfold([f], Atom("n"), SIG) if positive else unfold([], f, SIG)
    assert frame.dump() == dump
    assert vertex_formulas(frame) == formulas


def test_unfold_layout_nested():
    """Subformulas are unfolded depth first, each link's two new vertices
    before either is unfolded."""
    hyps = [parse_formula("(np\\s)/(n*np)"), parse_formula("(s^>np)!>s"),
            parse_formula("inf o> (np/n)")]
    frame = unfold(hyps, parse_formula("(n*np)\\((inf!<s)/np)"), SIG)
    assert frame.dump().splitlines() == [
        "tensor L/ [0 1] -> [2]",
        "tensor R* [3 4] -> [1]",
        "tensor L\\ [5 2] -> [6]",
        "tensor L!> [8 7] -> [9]",
        "par R^> [10] -> [8 11] main=8",
        "par Lo> [12] -> [13 14] main=12",
        "tensor L/ [14 15] -> [16]",
        "par R\\ [18] -> [19 17] main=17",
        "par R/ [20] -> [18 21] main=18",
        "par R!< [22] -> [23 20] main=20",
        "par L* [19] -> [24 25] main=19",
    ]
    assert vertex_formulas(frame) == [
        "(np\\s)/(n*np)", "n*np", "np\\s", "n", "np", "np", "s",
        "(s^>np)!>s", "s^>np", "s", "s", "np",
        "inf o> (np/n)", "inf", "np/n", "n", "np",
        "(n*np)\\((inf!<s)/np)", "(inf!<s)/np", "n*np", "inf!<s", "np", "s",
        "inf", "n", "np",
    ]
    assert (frame.hypotheses, frame.goal) == ([0, 7, 12], 17)


def local_sort_ok(link, vertices, sig):
    def s(vid):
        return sig.sort_of(vertices[vid].formula)

    if link.tag in ("L/", "R/"):
        c_over_b, b = (link.premisses[0], link.premisses[1]) if link.tag == "L/" else (
            link.conclusions[0], link.conclusions[1])
        c = link.conclusions[0] if link.tag == "L/" else link.premisses[0]
        return s(c_over_b) == s(c) - s(b)
    if link.tag in ("L\\", "R\\"):
        a, under = (link.premisses[0], link.premisses[1]) if link.tag == "L\\" else (
            link.conclusions[0], link.conclusions[1])
        c = link.conclusions[0] if link.tag == "L\\" else link.premisses[0]
        return s(under) == s(c) - s(a)
    if link.tag in ("L*", "R*"):
        a, b = link.conclusions if link.tag == "L*" else link.premisses
        prod = link.premisses[0] if link.tag == "L*" else link.conclusions[0]
        return s(prod) == s(a) + s(b)
    if link.tag in ("L^", "R^"):
        up, b = (link.premisses[0], link.premisses[1]) if link.tag == "L^" else (
            link.conclusions[0], link.conclusions[1])
        c = link.conclusions[0] if link.tag == "L^" else link.premisses[0]
        return s(up) == s(c) + 1 - s(b)
    if link.tag in ("L!", "R!"):
        a, down = (link.premisses[0], link.premisses[1]) if link.tag == "L!" else (
            link.conclusions[0], link.conclusions[1])
        c = link.conclusions[0] if link.tag == "L!" else link.premisses[0]
        return s(down) == s(c) + 1 - s(a)
    if link.tag in ("Lo", "Ro"):
        a, b = link.conclusions if link.tag == "Lo" else link.premisses
        wrap = link.premisses[0] if link.tag == "Lo" else link.conclusions[0]
        return s(wrap) == s(a) + s(b) - 1
    raise AssertionError(link.tag)


def test_unfold_preserves_sorts_randomly():
    rng = random.Random(7)
    for _ in range(100):
        hyps = [random_formula(rng, SIG, 3) for _ in range(rng.randint(1, 3))]
        goal = random_formula(rng, SIG, 2)
        frame = unfold(hyps, goal, SIG)
        for link in frame.links:
            assert local_sort_ok(link, frame.vertices, SIG)


def random_frames():
    """Balanced random frames with at most 200 linkings."""
    rng = random.Random(11)
    for _ in range(60):
        hyps = [random_formula(rng, SIG, 2) for _ in range(rng.randint(1, 2))]
        goal = random_formula(rng, SIG, 2)
        frame = unfold(hyps, goal, SIG)
        if count_mismatches(frame):
            continue
        expected = math.prod(
            math.factorial(len(v)) for v in frame.producers.values()
        )
        if expected > 200:
            continue
        yield frame, expected


def test_linkings_match_factorial_product_randomly():
    checked = 0
    for frame, expected in random_frames():
        got = sum(1 for _ in enumerate_linkings(frame))
        assert got == expected
        checked += 1
    assert checked > 5


def itertools_order(frame):
    """Reference stream order: one producer permutation per atom, atoms
    in name order, the last atom's permutation varying fastest."""
    names = sorted(frame.producers)
    consumers = [sorted(frame.consumers[a]) for a in names]
    perms = [permutations(sorted(frame.producers[a])) for a in names]
    for combo in product(*perms):
        yield tuple(pair for cs, ps in zip(consumers, combo)
                    for pair in zip(ps, cs))


def test_stream_order_matches_itertools_reference():
    checked = 0
    for frame, expected in random_frames():
        stream = list(enumerate_linkings(frame))
        assert [ps.linking for ps in stream] == list(itertools_order(frame))
        assert [ps.index for ps in stream] == list(range(expected))
        checked += 1
    assert checked > 5


def test_first_linking_is_lazy():
    # ten np producers: 10! permutations of them, none needed up front
    f = "np"
    for _ in range(9):
        f = f"np/({f})"
    formula = parse_formula(f)
    frame = unfold([formula], formula, SIG)
    assert len(frame.producers["np"]) == 10
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        ps = next(enumerate_linkings(frame))
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ps.index == 0
    assert elapsed < 1.0
    assert peak < 5 * 2 ** 20


RING_UP_ANCHORS = Anchors(SIG, (((0, 1),), ((1, 2), (3, 4)), ((2, 3),)),
                          ((0, 4),))


def test_position_pass_ring_up():
    frame = ring_up_frame()
    pos, const = place(frame, RING_UP_ANCHORS)
    mary, rang_up, everyone = frame.hypotheses
    assert len(pos[rang_up]) == 4 and len(pos[frame.goal]) == 2
    # token positions are constants shared by every anchor naming them
    assert pos[mary][1] == pos[rang_up][0] and pos[rang_up][1] == pos[everyone][0]
    assert pos[frame.goal] == (pos[mary][0], pos[rang_up][3])
    assert all(const[p] for v in (mary, rang_up, everyone) for p in pos[v])
    for link in frame.links:
        for v in link.vertices():
            assert len(pos[v]) == 2 * SIG.sort_of(frame.vertices[v].formula) + 2
    # the np argument of rang_up fills its gap, between 'rang' and 'up'
    (l_up,) = (l for l in frame.links if l.tag == "L^")
    assert pos[l_up.premisses[1]] == (pos[rang_up][1], pos[rang_up][2])


def test_anchored_stream_keeps_full_stream_indexes():
    full = list(enumerate_linkings(ring_up_frame()))
    kept = list(enumerate_linkings(ring_up_frame(), RING_UP_ANCHORS))
    assert len(kept) == 2
    for ps in kept:
        assert full[ps.index].linking == ps.linking


def anchors_of(proof):
    """Anchors read off a proof's conclusion term: each open hypothesis
    word occurs once in it, and every piece of a hypothesis is a run of
    consecutive words there."""
    leaves = open_leaves_in_order(proof)
    at = {w: i for i, w in enumerate(proof.term.words())}
    hyps = []
    for h in leaves:
        spans = []
        for piece in h.term.pieces():
            start = at[piece[0]]
            assert [at[w] for w in piece] == list(range(start, start + len(piece)))
            spans.append((start, start + len(piece)))
        hyps.append(tuple(spans))
    goal, k = [], 0
    for piece in proof.term.pieces():
        goal.append((k, k + len(piece)))
        k += len(piece)
    return leaves, Anchors(CORPUS_SIG, tuple(hyps), tuple(goal))


def test_pruning_keeps_every_net_on_corpus(proof_corpus):
    checked = 0
    for proof, *_ in proof_corpus:
        leaves, anchors = anchors_of(proof)
        frame = unfold([h.formula for h in leaves], proof.formula, CORPUS_SIG)
        if linking_count(frame) > 200:
            continue
        terms = {v: h.term for v, h in zip(frame.hypotheses, leaves)}
        is_net = {ps.linking: is_proof_net(ps, terms, CORPUS_SIG, proof.term).is_net
                  for ps in enumerate_linkings(frame)}
        kept = {ps.linking for ps in enumerate_linkings(frame, anchors)}
        assert ({l for l in kept if is_net[l]}
                == {l for l, net in is_net.items() if net}), str(proof.term)
        checked += 1
    assert checked > 200


def test_derived_anchors_keep_every_net_on_corpus(proof_corpus):
    # the anchors ``run_sequent`` reads off a sequent's terms when no
    # cover gives them: for a sort-0 conclusion with distinct words they
    # are the proof's own, and every net keeps its place in the stream
    checked = 0
    for proof, *_ in proof_corpus:
        words = proof.term.words()
        if proof.term.sort or len(set(words)) < len(words):
            continue
        leaves = open_leaves_in_order(proof)
        anchors = Anchors.of_terms(CORPUS_SIG, [(h.term, h.formula) for h in leaves],
                                   proof.formula, proof.term)
        assert anchors == anchors_of(proof)[1], str(proof.term)
        frame = unfold([h.formula for h in leaves], proof.formula, CORPUS_SIG)
        if linking_count(frame) > 200:
            continue
        terms = {v: h.term for v, h in zip(frame.hypotheses, leaves)}
        nets = {ps.linking: ps.index for ps in enumerate_linkings(frame)
                if is_proof_net(ps, terms, CORPUS_SIG, proof.term).is_net}
        kept = {ps.linking: ps.index for ps in enumerate_linkings(frame, anchors)}
        assert nets.items() <= kept.items(), str(proof.term)
        checked += 1
    assert checked > 100


def copying_realize(frame, linking):
    """The reference for ``realize``: the candidate as a copy of its
    frame, each link rewritten with every linked consumer vertex merged
    into its producer and those vertices dropped, standing as a frame of
    its own under the empty linking."""
    remap = {consumer: producer for producer, consumer in linking}

    def m(vid):
        return remap.get(vid, vid)

    vertices = {vid: v for vid, v in frame.vertices.items() if vid not in remap}
    links = [
        replace(link,
                premisses=tuple(map(m, link.premisses)),
                conclusions=tuple(map(m, link.conclusions)),
                main=m(link.main) if link.main is not None else None)
        for link in frame.links
    ]
    return ProofStructure(
        ProofFrame(vertices, links, list(frame.hypotheses), m(frame.goal)))


def aps_text(ps, terms):
    try:
        return to_aps(ps, terms, CORPUS_SIG).to_text()
    except IllFormedComb as exc:
        return f"ill-formed: {exc}"


def test_structure_read_through_linking_matches_copy(proof_corpus):
    # every streamed candidate shares its frame, and reads, contracts
    # and extracts exactly as a copy of the frame with its consumers
    # merged into their producers
    checked = 0
    for proof, *_ in proof_corpus:
        leaves = open_leaves_in_order(proof)
        frame = unfold([h.formula for h in leaves], proof.formula, CORPUS_SIG)
        if linking_count(frame) > 200:
            continue
        terms = {v: h.term for v, h in zip(frame.hypotheses, leaves)}
        for ps in enumerate_linkings(frame):
            assert ps.frame is frame
            ref = copying_realize(frame, ps.linking)
            assert ps.goal == ref.goal
            assert check_structure(ps) == check_structure(ref)
            assert aps_text(ps, terms) == aps_text(ref, terms)
            got, want = (is_proof_net(x, terms, CORPUS_SIG, proof.term)
                         for x in (ps, ref))
            assert (got.kind, got.comb_term, got.trace.fmt()) == (
                want.kind, want.comb_term, want.trace.fmt())
            if got.kind != "stuck":
                assert (nd_to_sexpr(extract_nd(got, CORPUS_SIG))
                        == nd_to_sexpr(extract_nd(want, CORPUS_SIG)))
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("hyps, expected", [
    (["x", "y"], "x+y+z"),         # a word no hypothesis has
    (["x", "x"], "x+x"),           # a repeated word
    (["x", "y+x"], "x+y"),         # a word claimed twice
    (["y+x", "z"], "x+y+z"),       # a piece out of order
    (["0", "x"], "x"),             # an empty term
], ids=["unclaimed", "repeated", "claimed-twice", "out-of-order", "empty"])
def test_of_terms_falls_back_unless_exact(hyps, expected):
    pairs = [(parse_term(t), Atom("np")) for t in hyps]
    assert Anchors.of_terms(SIG, pairs, GOAL_S, parse_term(expected)) is None


def test_of_terms_reads_ring_up_anchors():
    up = parse_formula("(np\\s)^>np")
    pairs = [(parse_term("m"), Atom("np")), (parse_term("r+1+up"), up),
             (parse_term("e"), Atom("np"))]
    anchors = Anchors.of_terms(SIG, pairs, GOAL_S, parse_term("m+r+e+up"))
    assert anchors == RING_UP_ANCHORS
    # the same sequent with an empty piece, a mismatched sort, a sort-1
    # expected term or a sort-1 goal has no exact anchors
    empty = [pairs[0], (parse_term("1+up"), up), pairs[2]]
    assert Anchors.of_terms(SIG, empty, GOAL_S, parse_term("m+e+up")) is None
    flat = [pairs[0], (parse_term("r+up"), up), pairs[2]]
    assert Anchors.of_terms(SIG, flat, GOAL_S, parse_term("m+r+e+up")) is None
    assert Anchors.of_terms(SIG, pairs, GOAL_S, parse_term("m+r+1+e+up")) is None
    assert Anchors.of_terms(SIG, pairs, Atom("inf"), parse_term("m+r+e+up")) is None
