import random
from itertools import count

import pytest

from dispnet import cli
from dispnet.formula import Signature
from dispnet.nd import net_of_nd, random_nd_proof
from dispnet.terms import EMPTY, FreshVars, concat

CORPUS_SIG = Signature({"np": 0, "n": 0, "s": 0, "j": 1})
LAMBEK_SIG = Signature({"np": 0, "n": 0, "s": 0})
CORPUS_SIZE = 1000
CORPUS_DEPTH = 6
CORPUS_SEED = 20240817


@pytest.fixture(scope="session")
def proof_corpus():
    """1000 random checked proofs of depth <= 6, with their nets: the
    shared fuzz corpus for the confluence, step-bound, and round-trip
    criteria."""
    rng = random.Random(CORPUS_SEED)
    fresh = FreshVars()
    labels = count()
    corpus = []
    for _ in range(CORPUS_SIZE):
        p = random_nd_proof(rng, CORPUS_SIG, max_depth=CORPUS_DEPTH,
                            fresh=fresh, labels=labels)
        ps, terms, aps, trace = net_of_nd(p, CORPUS_SIG)
        corpus.append((p, ps, terms, aps, trace))
    return corpus


def prove_lambek(hyps, goal, all_readings=False):
    """Decide the bare Lambek sequent ``hyps |- goal`` as ``dispnet prove``
    does: through ``cli.run_sequent``, with fresh hypothesis terms and
    their concatenation as the string the comb must spell. The sequent
    is derivable iff the result has a reading; an unbalanced one has
    its ``CountMismatch`` in ``errors``. ``run_sequent`` reads anchors
    off the fresh terms, so only linkings whose string positions unify
    are contracted."""
    fresh = FreshVars("x")
    hyp_pairs = [(fresh.term(0), f) for f in hyps]
    expected = EMPTY
    for term, _ in hyp_pairs:
        expected = concat(expected, term)
    return cli.run_sequent(hyp_pairs, goal, LAMBEK_SIG, expected,
                           all_readings=all_readings)
