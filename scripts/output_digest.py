"""One sha256 per benchmark workload over everything dispnet prints for it.

    python3 scripts/output_digest.py

Run it in two checkouts: equal digests mean the two programs give
byte-identical output on the benchmark's inputs. ``output_digests.txt``
next to it holds this program's four lines, and CI compares them:

    python3 scripts/output_digest.py | diff scripts/output_digests.txt -

A change that alters the output updates that file. The inputs are those
of ``perfbench/workloads.py`` at seed 1:

* ``parse-mix``: block 0, each sentence parsed with all readings, as the
  record ``dispnet parse --all --trace --json --latex`` prints;
* ``prove-lambek``: every stored sequent, with all readings, as the
  record ``dispnet prove --all --trace --json --latex`` prints;
* ``roundtrip-corpus``: every stored proof sent through ``net_of_nd``
  and ``is_proof_net``: the abstract proof structure's ``to_text()``,
  both contraction traces (text and LaTeX), and the s-expression and
  LaTeX of the proof ``extract_nd`` reads back;
* ``contraction``: every linking of each stored round-trip proof's
  sequent that has at most 300 linkings, decided by ``is_proof_net``
  against the proof's string: the verdict kind and the trace's
  ``fmt()``, steps and stuck reports alike.

dispnet is imported from this checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

SEED = 1


def record(cli, result):
    return json.dumps(cli._result_json(result, "parse", latex=True, trace=True),
                      sort_keys=True)


def parse_mix():
    work = workloads.ParseMix(SEED)
    for item in work.block(0):
        result = work.cli.run_parse(work.grammar, item.tokens, all_readings=True)
        yield record(work.cli, result)


def prove_lambek():
    work = workloads.ProveLambek(SEED)
    for item in work.items:
        result = work.cli.run_sequent(list(item.hyp_pairs), item.goal, work.sig,
                                      item.expected, all_readings=True)
        yield record(work.cli, result)


def roundtrip_corpus():
    from dispnet import contraction, nd

    work = workloads.RoundtripCorpus(SEED)
    for item in work.items:
        ps, terms, aps, trace = nd.net_of_nd(item.proof, work.sig)
        verdict = contraction.is_proof_net(ps, terms, work.sig)
        back = nd.extract_nd(verdict, work.sig)
        yield "\n".join((aps.to_text(), trace.fmt(), nd.latex_trace(trace),
                         verdict.trace.fmt(), nd.latex_trace(verdict.trace),
                         nd.nd_to_sexpr(back), nd.latex_nd(back)))


def contraction_verdicts():
    from dispnet import contraction, nd, proofstructure as pstruct

    work = workloads.RoundtripCorpus(SEED)
    for item in work.items:
        leaves = nd.open_leaves_in_order(item.proof)
        frame = pstruct.unfold([h.formula for h in leaves], item.proof.formula,
                               work.sig)
        if pstruct.linking_count(frame) > 300:
            continue
        terms = {v: h.term for v, h in zip(frame.hypotheses, leaves)}
        for ps in pstruct.enumerate_linkings(frame):
            verdict = contraction.is_proof_net(ps, terms, work.sig, item.proof.term)
            yield verdict.kind + "\n" + verdict.trace.fmt()


def main():
    for name, records in (("parse-mix", parse_mix), ("prove-lambek", prove_lambek),
                          ("roundtrip-corpus", roundtrip_corpus),
                          ("contraction", contraction_verdicts)):
        digest = hashlib.sha256()
        count = 0
        for text in records():
            digest.update(text.encode() + b"\0")
            count += 1
        print(f"{name} {count} {digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
