import math
import random
import time
import tracemalloc
from dataclasses import replace
from itertools import islice, permutations

import pytest

from conftest import CORPUS_SIG
from support import (
    all_linkings,
    check_structure,
    escapes_scope,
    has_cycle,
    itertools_order,
    linking,
    place,
    positions_clash,
)
from dispnet.aps import to_aps
from dispnet.contraction import is_proof_net
from dispnet.formula import (
    Atom,
    Signature,
    format_formula,
    parse_formula,
    random_formula,
)
from dispnet.lexicon import lexical_covers, load_grammar
from dispnet.nd import extract_nd, nd_to_sexpr, open_leaves_in_order
from dispnet.proofstructure import (
    Anchors,
    CountMismatch,
    ProofFrame,
    ProofStructure,
    _positions,
    count_mismatches,
    enumerate_linkings,
    lay_out,
    linking_count,
    sequent_mismatches,
    tally,
    unbalanced,
    unfold,
)
from dispnet.terms import FreshVars, parse_term

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
    structures = list(all_linkings(frame))
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
    # the two linkings that cross the s atoms close a cycle; the search
    # streams the other two
    acyclic = [linking(ps) for ps in structures
               if not has_cycle(frame, linking(ps))]
    assert len(acyclic) == 2
    assert [linking(ps) for ps in enumerate_linkings(frame)] == acyclic


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
    first = [linking(ps) for ps in enumerate_linkings(frame)]
    second = [linking(ps) for ps in enumerate_linkings(ring_up_frame())]
    assert first == second
    assert len(set(first)) == 2
    assert set(first) == {linking(ps) for ps in all_linkings(frame)
                          if not has_cycle(frame, linking(ps))}


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
    return [format_formula(f) for f in structure.formulas]


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


def local_sort_ok(link, formulas, sig):
    def s(vid):
        return sig.sort_of(formulas[vid])

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
            assert local_sort_ok(link, frame.formulas, SIG)


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


def test_stream_order_matches_itertools_reference():
    checked = 0
    for frame, expected in random_frames():
        stream = list(enumerate_linkings(frame))
        assert [linking(ps) for ps in stream] == list(itertools_order(frame))
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
    # the first linking of the full stream closes a cycle; the one
    # streamed is acyclic and keeps its place in the full stream
    first = tuple(zip(sorted(frame.producers["np"]), sorted(frame.consumers["np"])))
    assert has_cycle(frame, first)
    assert not has_cycle(frame, linking(ps))
    assert [c for _, c in linking(ps)] == sorted(frame.consumers["np"])
    assert (next(islice(permutations(sorted(frame.producers["np"])), ps.index, None))
            == tuple(p for p, _ in linking(ps)))
    assert elapsed < 1.0
    assert peak < 5 * 2 ** 20


RING_UP_ANCHORS = Anchors((((0, 1),), ((1, 2), (3, 4)), ((2, 3),)), ((0, 4),))


def test_position_pass_ring_up():
    frame = ring_up_frame()
    pos, const = place(frame, SIG, RING_UP_ANCHORS)
    mary, rang_up, everyone = frame.hypotheses
    assert len(pos[rang_up]) == 4 and len(pos[frame.goal]) == 2
    # token positions are constants shared by every anchor naming them
    assert pos[mary][1] == pos[rang_up][0] and pos[rang_up][1] == pos[everyone][0]
    assert pos[frame.goal] == (pos[mary][0], pos[rang_up][3])
    assert all(const[p] for v in (mary, rang_up, everyone) for p in pos[v])
    for link in frame.links:
        for v in link.vertices():
            assert len(pos[v]) == 2 * SIG.sort_of(frame.formulas[v]) + 2
    # the np argument of rang_up fills its gap, between 'rang' and 'up'
    (l_up,) = (l for l in frame.links if l.tag == "L^")
    assert pos[l_up.premisses[1]] == (pos[rang_up][1], pos[rang_up][2])


def test_anchored_stream_keeps_full_stream_indexes():
    full = list(all_linkings(ring_up_frame()))
    kept = list(enumerate_linkings(ring_up_frame(), RING_UP_ANCHORS))
    # positions skip the wrong word order and one crossed linking, and
    # the other crossed linking closes a cycle
    assert len(kept) == 1
    for ps in kept:
        assert linking(full[ps.index]) == linking(ps)


D_SIG = Signature({"np": 0, "s": 0, "j": 1})


def random_lexicon(rng):
    """A grammar of seeded random formulas over np, s and j, the first
    held by a second entry too, then a quantifier, a verb that takes a
    clause and ``np``, whose scopes and clauses make linkings escape;
    entry i's pieces are the words ``w<i>p<j>``."""
    formulas = [random_formula(rng, D_SIG, 2) for _ in range(5)]
    formulas += [formulas[0]] + [parse_formula(f) for f in (
        "(s^>np)!>s", "(np\\s)/s", "np\\s", "np")]
    lines = ["np 0", "s 0", "j 1"]
    for i, f in enumerate(formulas):
        term = "+1+".join(f"w{i}p{j}" for j in range(D_SIG.sort_of(f) + 1))
        lines.append(f"e{i} := {term} : {format_formula(f)}")
    return load_grammar("\n".join(lines)), formulas


def random_sentence(rng, formulas, first):
    """The phrases headed by the entries ``first``, then up to two more:
    a phrase is an entry's pieces with a phrase in each gap between
    them, of sort-0 entries only two gaps down."""
    sort0 = [i for i, f in enumerate(formulas) if D_SIG.sort_of(f) == 0]

    def phrase(i, depth):
        out = []
        for j in range(D_SIG.sort_of(formulas[i]) + 1):
            if j:
                inner = rng.randrange(len(formulas)) if depth < 2 else rng.choice(sort0)
                out += phrase(inner, depth + 1)
            out.append(f"w{i}p{j}")
        return out

    heads = first + [rng.randrange(len(formulas)) for _ in range(rng.randint(0, 2))]
    return [t for i in heads for t in phrase(i, 0)]


def test_compiled_frames_match_unfold_and_the_reference_stream():
    """A cover's frame laid out from its entries' compiled pieces is the
    frame ``unfold`` builds from its formulas as one piece, and its
    stream yields exactly the linkings of the full stream with no cycle
    and no escaped scope, each at its index there; anchored, it also
    drops those with a position clash (``place`` positions the whole
    frame). Sentences repeat an entry and use two entries of one
    formula; laying a piece out, once or twice in a frame, never
    changes it."""
    rng = random.Random(20)
    frames = repeated = shared = streams = escaped = 0
    for trial in range(1000):
        grammar, formulas = random_lexicon(rng)
        # entry 5 holds entry 0's formula; entry 9 is np
        first = ([0, 5], [9, 9], [rng.randrange(10)])[trial % 3]
        tokens = random_sentence(rng, formulas, first)
        for cover in lexical_covers(grammar, tokens)[:4]:
            own = [m.frame_piece for m in cover]
            before = [list(p.atoms) for p in own]
            # the first goal that balances the cover, if one does
            goals = [f for f in [Atom("s"), Atom("np")] + formulas
                     if D_SIG.sort_of(f) == 0]
            goal = next((g for g in goals
                         if not unbalanced(tally(own + [grammar.goal_piece(g)]))),
                        goals[0])
            pieces = own + [grammar.goal_piece(goal)]
            frame = lay_out(pieces, tally(pieces))
            want = unfold([m.entry.formula for m in cover], goal, D_SIG)
            assert frame.formulas == want.formulas
            assert frame.dump() == want.dump()
            assert (frame.hypotheses, frame.goal) == (want.hypotheses, want.goal)
            assert (frame.producers, frame.consumers) == (want.producers, want.consumers)
            assert frame.tally == {a: (len(frame.producers.get(a, ())),
                                       len(frame.consumers.get(a, ())))
                                   for a in frame.producers.keys() | frame.consumers.keys()}
            assert lay_out(pieces, tally(pieces)) == frame
            assert [p.atoms for p in own] == before
            frames += 1
            entries = [m.entry for m in cover]
            repeated += len(set(map(id, entries))) < len(entries)
            shared += {"e0", "e5"} <= {e.headword for e in entries}
            if count_mismatches(frame) or linking_count(frame) > 300:
                continue
            anchors = Anchors([m.spans for m in cover], ((0, len(tokens)),))
            full = [(ps.index, linking(ps)) for ps in all_linkings(frame)]
            acyclic = [(i, l) for i, l in full if not has_cycle(frame, l)]
            kept = [(i, l) for i, l in acyclic if not escapes_scope(frame, l)]
            assert [(ps.index, linking(ps)) for ps in enumerate_linkings(frame)] == kept
            assert [(ps.index, linking(ps)) for ps in enumerate_linkings(frame, anchors)] == [
                (i, l) for i, l in kept if not positions_clash(frame, D_SIG, anchors, l)]
            assert linking_count(frame) == len(full)
            streams += 1
            escaped += len(acyclic) - len(kept)
    assert frames > 1000 and repeated > 100 and shared > 100 and streams > 150
    assert escaped > 0


def anchors_of(hyp_terms, term):
    """Anchors read off a string ``term`` that the hypothesis terms
    ``hyp_terms``, in hypothesis order, spell: each hypothesis word
    occurs once in it, and every piece of a hypothesis is a run of
    consecutive words there."""
    at = {w: i for i, w in enumerate(term.words())}
    hyps = []
    for hyp_term in hyp_terms:
        spans = []
        for piece in hyp_term.pieces():
            start = at[piece[0]]
            assert [at[w] for w in piece] == list(range(start, start + len(piece)))
            spans.append((start, start + len(piece)))
        hyps.append(tuple(spans))
    goal, k = [], 0
    for piece in term.pieces():
        goal.append((k, k + len(piece)))
        k += len(piece)
    return Anchors(tuple(hyps), tuple(goal))


def test_pruning_keeps_every_net_on_corpus(proof_corpus):
    checked = 0
    for proof, *_ in proof_corpus:
        leaves = open_leaves_in_order(proof)
        anchors = anchors_of([h.term for h in leaves], proof.term)
        frame = unfold([h.formula for h in leaves], proof.formula, CORPUS_SIG)
        if linking_count(frame) > 200:
            continue
        terms = {v: h.term for v, h in zip(frame.hypotheses, leaves)}
        is_net = {linking(ps): is_proof_net(ps, terms, CORPUS_SIG, proof.term).is_net
                  for ps in enumerate_linkings(frame)}
        kept = {linking(ps) for ps in enumerate_linkings(frame, anchors)}
        assert ({l for l in kept if is_net[l]}
                == {l for l, net in is_net.items() if net}), str(proof.term)
        checked += 1
    assert checked > 200


@pytest.fixture(scope="module")
def anchored_survivors(proof_corpus):
    """Every linking that the stream of each corpus proof, anchored at
    its own term (``anchors_of``) and uncapped, yields: its corpus
    index, its index in the full stream and its verdict."""
    survivors = []
    for i, (proof, *_) in enumerate(proof_corpus):
        leaves = open_leaves_in_order(proof)
        anchors = anchors_of([h.term for h in leaves], proof.term)
        frame = unfold([h.formula for h in leaves], proof.formula, CORPUS_SIG)
        terms = {v: h.term for v, h in zip(frame.hypotheses, leaves)}
        survivors.extend((i, ps.index, is_proof_net(ps, terms, CORPUS_SIG, proof.term))
                         for ps in enumerate_linkings(frame, anchors))
    return survivors


# (corpus proof, linking index) of the anchored survivors that stop with
# a par link waiting on a separator that a pending par link reserves (the
# [*] deadlock); only proofs 37, 721, 744 and 943 have no net at all
DEADLOCKED = {
    (37, 11321339161), (342, 7631689777689781525801), (433, 28050609497112),
    (471, 2140153197876), (495, 1679641), (665, 3092699473944),
    (665, 10001208913944), (721, 6479118036432143), (721, 6479118036475583),
    (744, 0), (920, 318819307113), (943, 0), (970, 297725),
}


def test_anchored_survivors_contract(anchored_survivors):
    # positions, acyclicity and scope leave only nets: the search is as
    # strict as contraction, apart from the deadlock
    stuck = [f"proof {i} linking {index} ({verdict.kind}): "
             + "; ".join(report.fmt() for report in verdict.trace.stuck)
             for i, index, verdict in anchored_survivors
             if not verdict.is_net and (i, index) not in DEADLOCKED]
    assert not stuck, "\n".join(stuck)
    assert len(anchored_survivors) > 1300


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "contraction deadlock: a par link waits on a separator that a pending "
    "[*], [o<] or [o1] par link reserves"))
def test_deadlocked_anchored_survivors_contract(anchored_survivors):
    verdicts = {(i, index): verdict for i, index, verdict in anchored_survivors}
    assert [pair for pair in sorted(DEADLOCKED) if not verdicts[pair].is_net] == []


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
        assert anchors == anchors_of([h.term for h in leaves], proof.term), str(proof.term)
        frame = unfold([h.formula for h in leaves], proof.formula, CORPUS_SIG)
        if linking_count(frame) > 200:
            continue
        terms = {v: h.term for v, h in zip(frame.hypotheses, leaves)}
        nets = {linking(ps): ps.index for ps in enumerate_linkings(frame)
                if is_proof_net(ps, terms, CORPUS_SIG, proof.term).is_net}
        kept = {linking(ps): ps.index for ps in enumerate_linkings(frame, anchors)}
        assert nets.items() <= kept.items(), str(proof.term)
        checked += 1
    assert checked > 100


def small_d_frames():
    """The frames of 400 seeded random balanced sequents over the corpus
    signature, with at most 50 linkings each."""
    rng = random.Random(5)
    count = 400
    while count:
        hyps = [random_formula(rng, CORPUS_SIG, 3) for _ in range(rng.randint(1, 3))]
        goal = random_formula(rng, CORPUS_SIG, 3)
        if not sequent_mismatches(hyps, goal):
            frame = unfold(hyps, goal, CORPUS_SIG)
            if linking_count(frame) <= 50:
                count -= 1
                yield frame


def test_anchored_survivors_contract_on_random_frames():
    """The random frames, with fresh hypothesis terms: anchored at the
    comb string of each net its unanchored stream finds, a frame's
    stream yields only linkings that contract to that string, the net
    itself at its own index among them."""
    fresh = FreshVars()
    frames = ([(SIG, frame) for frame, _ in random_frames()]
              + [(CORPUS_SIG, frame) for frame in small_d_frames()])
    nets = 0
    for sig, frame in frames:
        hyp_terms = [fresh.term(sig.sort_of(frame.formulas[v])) for v in frame.hypotheses]
        terms = dict(zip(frame.hypotheses, hyp_terms))
        sequent = (", ".join(format_formula(frame.formulas[v]) for v in frame.hypotheses)
                   + " |- " + format_formula(frame.formulas[frame.goal]))
        for ps in enumerate_linkings(frame):
            net = is_proof_net(ps, terms, sig)
            if not net.is_net:
                continue
            anchors = anchors_of(hyp_terms, net.comb_term)
            kinds = {s.index: is_proof_net(s, terms, sig, net.comb_term).kind
                     for s in enumerate_linkings(frame, anchors)}
            assert kinds.get(ps.index) == "net", (sequent, ps.index, kinds)
            assert set(kinds.values()) == {"net"}, (sequent, net.comb_term, kinds)
            nets += 1
    assert nets > 300


def test_search_skips_exactly_the_cyclic_linkings(proof_corpus):
    """The stream is the full stream less every linking that closes a
    directed cycle (``has_cycle``) or escapes a scope (``escapes_scope``)
    and, with anchors, every linking whose positions clash, each at its
    index in the full stream; and every linking with a cycle or an
    escape is stuck, so no net is cut."""
    cases = []  # signature, frame, hypothesis terms, expected string, anchors
    for proof, *_ in proof_corpus:
        leaves = open_leaves_in_order(proof)
        anchors = anchors_of([h.term for h in leaves], proof.term)
        frame = unfold([h.formula for h in leaves], proof.formula, CORPUS_SIG)
        if linking_count(frame) <= 300:
            terms = {v: h.term for v, h in zip(frame.hypotheses, leaves)}
            cases.append((CORPUS_SIG, frame, terms, proof.term, None))
            cases.append((CORPUS_SIG, frame, terms, proof.term, anchors))
    fresh = FreshVars()
    frames = ([(SIG, frame) for frame, _ in random_frames()]
              + [(CORPUS_SIG, frame) for frame in small_d_frames()])
    for sig, frame in frames:
        sort = [sig.sort_of(f) for f in frame.formulas]
        terms = {v: fresh.term(sort[v]) for v in frame.hypotheses}
        cases.append((sig, frame, terms, fresh.term(sort[frame.goal]), None))

    linkings = dropped = 0
    for sig, frame, terms, expected, anchors in cases:
        reference = [ps for ps in all_linkings(frame) if anchors is None
                     or not positions_clash(frame, sig, anchors, linking(ps))]
        cut = [has_cycle(frame, linking(ps)) or escapes_scope(frame, linking(ps))
               for ps in reference]
        assert ([(ps.index, linking(ps)) for ps in enumerate_linkings(frame, anchors)]
                == [(ps.index, linking(ps))
                    for ps, is_cut in zip(reference, cut) if not is_cut])
        if anchors is None:
            for ps, is_cut in zip(reference, cut):
                if is_cut:
                    assert is_proof_net(ps, terms, sig, expected).kind == "stuck"
                    assert is_proof_net(ps, terms, sig).kind == "stuck"
            linkings += len(reference)
            dropped += sum(cut)
    assert len(cases) > 900 and linkings > 10000 and dropped > linkings / 2


def made_up_anchors(frame, sig):
    """Anchors for any frame: each hypothesis piece one token, end to
    end, and the goal's pieces the first tokens again, so that the goal
    and the hypotheses share token constants."""
    hyps, t = [], 0
    for v in frame.hypotheses:
        k = sig.sort_of(frame.formulas[v]) + 1
        hyps.append(tuple((i, i + 1) for i in range(t, t + k)))
        t += k
    k = sig.sort_of(frame.formulas[frame.goal]) + 1
    return Anchors(tuple(hyps), tuple((i, i + 1) for i in range(k)))


def assert_positions_match_place(frame, sig, anchors):
    """``_positions`` gives every atom vertex of the frame the positions
    ``place`` gives it, under one bijection of all points that keeps
    each point's constant flag and maps each token constant to the same
    token: both number a token's point at its first mention, hypotheses
    first and the goal last, so the bijection keeps the order of the
    token points."""
    got, const = _positions(frame, anchors)
    want, want_const = place(frame, sig, anchors)
    atoms = [v for v, f in enumerate(frame.formulas) if type(f) is Atom]
    assert sorted(got) == atoms
    image = {}
    for v in atoms:
        assert len(got[v]) == len(want[v])
        for p, q in zip(want[v], got[v]):
            assert image.setdefault(p, q) == q, (v, p)
            assert const[q] == want_const[p], (v, p)
    assert sorted(image) == list(range(len(want_const)))
    assert sorted(image.values()) == list(range(len(const)))
    tokens = sorted({p for v in [*frame.hypotheses, frame.goal] for p in want[v]})
    assert [image[p] for p in tokens] == sorted(image[p] for p in tokens)


def test_positions_match_place(proof_corpus):
    """The templates of a frame's pieces, instantiated at its anchors,
    are the positions ``place`` hands down the laid-out frame's links:
    on random frames, the corpus sequents anchored at their own term,
    and grammar covers laid out from compiled pieces."""
    cases = [(SIG, frame, made_up_anchors(frame, SIG)) for frame, _ in random_frames()]
    cases += [(CORPUS_SIG, frame, made_up_anchors(frame, CORPUS_SIG))
              for frame in small_d_frames()]
    for proof, *_ in proof_corpus:
        leaves = open_leaves_in_order(proof)
        cases.append((CORPUS_SIG,
                      unfold([h.formula for h in leaves], proof.formula, CORPUS_SIG),
                      anchors_of([h.term for h in leaves], proof.term)))
    rng = random.Random(21)
    for trial in range(300):
        grammar, formulas = random_lexicon(rng)
        tokens = random_sentence(rng, formulas, [rng.randrange(10)])
        for cover in lexical_covers(grammar, tokens)[:4]:
            pieces = [m.frame_piece for m in cover] + [grammar.goal_piece(Atom("s"))]
            cases.append((D_SIG, lay_out(pieces, tally(pieces)),
                          Anchors([m.spans for m in cover], ((0, len(tokens)),))))
    for sig, frame, anchors in cases:
        assert_positions_match_place(frame, sig, anchors)
    assert sum(len(frame.pieces) > 2 for _, frame, _ in cases) > 100


def copying_realize(frame, pairs):
    """The reference for ``realize``: the candidate as a copy of its
    frame, each link rewritten with every linked consumer vertex merged
    into its producer. The merged vertices keep their formulas, as
    vertex ids index them, but map to themselves, so the copy reads
    every link as it stands and ``to_aps`` gives them no point."""
    remap = {consumer: producer for producer, consumer in pairs}

    def m(vid):
        return remap.get(vid, vid)

    links = [
        replace(link,
                premisses=tuple(map(m, link.premisses)),
                conclusions=tuple(map(m, link.conclusions)),
                main=m(link.main) if link.main is not None else None)
        for link in frame.links
    ]
    copy = ProofFrame(list(frame.formulas), links, list(frame.hypotheses),
                      m(frame.goal))
    return ProofStructure(copy, 0, {consumer: consumer for consumer in remap})


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
            ref = copying_realize(frame, linking(ps))
            assert ps.goal == ref.goal
            assert check_structure(ps) == check_structure(ref)
            assert (to_aps(ps, terms, CORPUS_SIG).to_text()
                    == to_aps(ref, terms, CORPUS_SIG).to_text())
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
    (["x", "x:n"], "x+x"),         # a repeated word of two formulas
    (["x", "y+x"], "x+y"),         # a word claimed twice
    (["y+x", "z"], "x+y+z"),       # a piece out of order
    (["0", "x"], "x"),             # an empty term
], ids=["unclaimed", "repeated", "claimed-twice", "out-of-order", "empty"])
def test_of_terms_falls_back_unless_exact(hyps, expected):
    # each hypothesis is a term, of formula np unless it names an atom
    pairs = [(parse_term(t), Atom(atom or "np"))
             for t, _, atom in (h.partition(":") for h in hyps)]
    assert Anchors.of_terms(SIG, pairs, GOAL_S, parse_term(expected)) is None


def test_of_terms_anchors_a_repeated_word_in_hypothesis_order():
    # hypotheses with the same sort-0 term and formula take the word's
    # occurrences in their order; a word repeated in a sort-1 term gets
    # no anchors, as two copies of the term can nest or cross
    x, y = (parse_term("x"), Atom("np")), (parse_term("y"), Atom("n"))
    anchors = Anchors.of_terms(SIG, [x, y, x], GOAL_S, parse_term("x+x+y"))
    assert anchors.hypotheses == (((0, 1),), ((2, 3),), ((1, 2),))
    up = (parse_term("r+1+up"), parse_formula("(np\\s)^>np"))
    assert Anchors.of_terms(SIG, [up, up], GOAL_S, parse_term("r+r+up+up")) is None


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
