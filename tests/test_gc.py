"""Per-call code builds no reference cycles.

A walk written as a nested function that calls itself is a reference
cycle: the function's closure holds the function. The cycle keeps the
call's whole working set (frame, structure, trace, proof) alive until
the cycle collector finds it, and each collector pass runs over the
live working set of whatever call is running then. Each case runs one
per-call path with the collector off and requires that it left nothing
for the collector to free."""

import gc
import random
from itertools import count

import pytest

from dispnet import cli
from dispnet.contraction import is_proof_net
from dispnet.formula import Signature, format_formula, parse_formula, well_sorted
from dispnet.lexicon import load_grammar
from dispnet.nd import (
    check_nd,
    extract_nd,
    latex_nd,
    nd_from_sexpr,
    nd_to_sexpr,
    net_of_nd,
    random_nd_proof,
)
from dispnet.terms import FreshVars

from conftest import CORPUS_DEPTH, CORPUS_SEED, CORPUS_SIG

GRAMMAR = load_grammar("""\
np 0
s 0
mary := mary : np
john := john : np
sue := sue : np
rang_up := rang+1+up : (np\\s)^>np
everyone := everyone : (s^>np)!>s
someone := someone : (s^>np)!>s
thinks := thinks : (np\\s)/s
walks := walks : np\\s
who := who : (np\\np)/(np\\s)
likes := likes : (np\\s)/np
left := left : np\\s
left := left : (np\\s)/np
""")

SIG = Signature({"np": 0, "s": 0, "a": 0, "b": 0, "j": 1})

FORMULAS = ("(np\\s)^>np", "(s^>np)!>s", "np/np/n", "n\\n\\np",
            "(j o> s)*np", "j!1(s^<np)")


@pytest.fixture(scope="module")
def proofs():
    """The first 12 proofs of the shared fuzz corpus."""
    rng = random.Random(CORPUS_SEED)
    fresh, labels = FreshVars(), count()
    return [random_nd_proof(rng, CORPUS_SIG, max_depth=CORPUS_DEPTH,
                            fresh=fresh, labels=labels) for _ in range(12)]


def parse(sentence):
    result = cli.run_parse(GRAMMAR, sentence.split(), all_readings=True)
    assert result.readings


def prove(text, readings):
    """Read the sequent ``text`` and decide it, as ``dispnet prove``
    does when every term is given."""
    hyp_pairs, goal, goal_term, _ = cli.parse_sequent(text)
    result = cli.run_sequent(hyp_pairs, goal, SIG, goal_term, all_readings=True)
    assert len(result.readings) == readings


def round_trip(proofs):
    for p in proofs:
        ps, terms, _, _ = net_of_nd(p, CORPUS_SIG)
        verdict = is_proof_net(ps, terms, CORPUS_SIG)
        assert check_nd(extract_nd(verdict, CORPUS_SIG), CORPUS_SIG) == []


def syntax(proofs):
    for text in FORMULAS:
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f
        well_sorted(f, CORPUS_SIG)
    for p in proofs:
        assert nd_from_sexpr(nd_to_sexpr(p)) == p
        latex_nd(p)


@pytest.mark.parametrize("case", [
    "parse-ring-up", "parse-scope", "parse-relative", "prove-balanced",
    "prove-unbalanced", "round-trip", "syntax"])
def test_per_call_paths_leave_no_cycles(case, proofs):
    run = {
        "parse-ring-up": lambda: parse("mary rang everyone up"),
        "parse-scope": lambda: parse("everyone thinks someone walks"),
        "parse-relative": lambda: parse("john who likes sue left"),
        "prove-balanced":
            lambda: prove("v1+1+v2:(np\\s)^>np, o:np, x:np |- x+v1+o+v2:s", 1),
        "prove-unbalanced": lambda: prove("x:np, y:np\\s |- x+y:np", 0),
        "round-trip": lambda: round_trip(proofs),
        "syntax": lambda: syntax(proofs),
    }[case]
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
