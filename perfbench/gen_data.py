"""Regenerate the stored input pools of the benchmark.

    python3 perfbench/gen_data.py [--seed 1]

Writes two files under perfbench/data/:

* ``lambek.txt``: bare Lambek sequents drawn with the acceptance
  suite's criterion-3 sampler (up to 6 connectives and 4 hypotheses
  over np/n/s), each with its verdict from the independent cut-free
  sequent prover ``nd.LambekOracle``.
* ``roundtrip.sexpr``: random checked natural-deduction proofs of depth
  at most 6 over np/n/s and the sort-1 atom j, one s-expression a line.

Timed runs only load these files, so they import neither the proof
generator nor the oracle, and set-up time measures loading rather than
rejection sampling.
"""

from __future__ import annotations

import argparse
import random
import sys
from itertools import count
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dispnet import formula as fm  # noqa: E402
from dispnet import nd  # noqa: E402
from dispnet.terms import FreshVars  # noqa: E402

DEFAULT_SEED = 1
LAMBEK_POOL = 4000
ROUNDTRIP_POOL = 500
LAMBEK_ATOMS = ("np", "n", "s")
ROUNDTRIP_SIG = fm.Signature({"np": 0, "n": 0, "s": 0, "j": 1})


def random_lambek_formula(rng, conn):
    if conn == 0:
        return fm.Atom(rng.choice(LAMBEK_ATOMS))
    left = rng.randint(0, conn - 1)
    a = random_lambek_formula(rng, left)
    b = random_lambek_formula(rng, conn - 1 - left)
    return rng.choice((fm.Over(a, b), fm.Under(a, b), fm.Prod(a, b)))


def lambek_sequent(rng):
    """Criterion 3's sampler: up to 4 hypotheses, up to 6 connectives
    spread over the hypotheses and the goal."""
    m = rng.randint(0, 4)
    budget = rng.randint(0, 6)
    cuts = sorted(rng.randint(0, budget) for _ in range(m))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
    formulas = [random_lambek_formula(rng, c) for c in sizes]
    return tuple(formulas[:-1]), formulas[-1]


def lambek_lines(seed):
    rng = random.Random(seed)
    oracle = nd.LambekOracle()
    lines = []
    for _ in range(LAMBEK_POOL):
        hyps, goal = lambek_sequent(rng)
        text = (", ".join(fm.format_formula(h) for h in hyps)
                + " |- " + fm.format_formula(goal))
        for f in (*hyps, goal):
            if fm.parse_formula(fm.format_formula(f)) != f:
                raise SystemExit(f"formula syntax does not round-trip: {text}")
        lines.append(f"{text}\t{int(oracle.derivable(hyps, goal))}")
    return lines


def roundtrip_lines(seed):
    rng = random.Random(seed)
    fresh = FreshVars()
    labels = count()
    lines = []
    for _ in range(ROUNDTRIP_POOL):
        p = nd.random_nd_proof(rng, ROUNDTRIP_SIG, max_depth=6, fresh=fresh,
                               labels=labels)
        text = nd.nd_to_sexpr(p)
        if nd.nd_from_sexpr(text) != p:
            raise SystemExit(f"proof syntax does not round-trip: {text}")
        lines.append(text)
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args(argv)
    data = HERE / "data"
    header = (f"# generated by perfbench/gen_data.py --seed {args.seed}; "
              "do not edit by hand\n")
    (data / "lambek.txt").write_text(
        header + "# hypotheses |- goal <TAB> derivable (LambekOracle)\n"
        + "\n".join(lambek_lines(args.seed)) + "\n")
    (data / "roundtrip.sexpr").write_text(
        header + "# signature: np 0, n 0, s 0, j 1; one proof a line\n"
        + "\n".join(roundtrip_lines(args.seed)) + "\n")


if __name__ == "__main__":
    main()
