"""One sha256 per benchmark workload over everything dispnet prints for
it, and one over what ``check_nd`` rejects.

    python3 scripts/output_digest.py

Run it in two checkouts: equal digests mean the two programs give
byte-identical output on the benchmark's inputs. ``output_digests.txt``
next to it holds this program's five lines, and CI compares them:

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
  ``fmt()``, steps and stuck reports alike. The linkings come from
  ``all_linkings`` of ``tests/support.py``, which lists them with
  ``itertools`` in the order of the full stream and builds them with
  ``realize``, so the records do not depend on what the search skips;
* ``nd-rejects``: for each stored round-trip proof and each of its nodes
  in walk order, one mutated copy per change that applies: the items of
  a hypothesis term of two or more items reversed, a two-premiss node's
  children swapped, a node's first discharge label replaced by one the
  proof does not use, a moded rule node's mode set to None. A record is
  the mutant's name and the sorted paths of the violations ``check_nd``
  reports (the text before the first ``:``), or ``RAISES`` and the
  exception's type. The messages are left out, so that rewording one
  does not change the digest.

dispnet is imported from this checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))

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

    sys.path.insert(0, str(ROOT / "tests"))
    from support import all_linkings

    work = workloads.RoundtripCorpus(SEED)
    for item in work.items:
        leaves = nd.open_hyps(item.proof).values()
        frame = pstruct.unfold([h.formula for h in leaves], item.proof.formula,
                               work.sig)
        if pstruct.linking_count(frame) > 300:
            continue
        terms = {v: h.term for v, h in zip(frame.hypotheses, leaves)}
        for ps in all_linkings(frame):
            verdict = contraction.is_proof_net(ps, terms, work.sig, item.proof.term)
            yield verdict.kind + "\n" + verdict.trace.fmt()


def mutants(nd, proof):
    """(name, mutated copy of ``proof``) for each node and change that
    applies, in walk order; a name is the node's path and the change."""
    from dataclasses import replace

    from dispnet.terms import StringTerm

    def walk(node, path):
        yield path, node
        for i, child in enumerate(getattr(node, "children", ())):
            yield from walk(child, path + (i,))

    def put(node, path, new):
        if not path:
            return new
        kids = list(node.children)
        kids[path[0]] = put(kids[path[0]], path[1:], new)
        return replace(node, children=tuple(kids))

    # a stored proof discharges only labels of its leaves
    unused = 1 + max(node.label for _, node in walk(proof, ())
                     if isinstance(node, nd.Hyp))
    for path, node in walk(proof, ()):
        changes = []
        if isinstance(node, nd.Hyp):
            if len(node.term.items) > 1:
                changes.append(("reverse", replace(
                    node, term=StringTerm(node.term.items[::-1]))))
        else:
            if len(node.children) == 2:
                changes.append(("swap", replace(node, children=node.children[::-1])))
            if node.discharges:
                changes.append(("relabel", replace(
                    node, discharges=(unused,) + node.discharges[1:])))
            if node.mode is not None:
                changes.append(("modeless", replace(node, mode=None)))
        for change, new in changes:
            name = ".".join(["root", *map(str, path)])
            yield f"{name} {change}", put(proof, path, new)


def nd_rejects():
    work = workloads.RoundtripCorpus(SEED)
    nd = work.nd
    for n, item in enumerate(work.items):
        for name, mutant in mutants(nd, item.proof):
            try:
                found = sorted(v.split(":")[0] for v in nd.check_nd(mutant, work.sig))
            except Exception as exc:  # a crash is recorded, not raised
                found = [f"RAISES {type(exc).__name__}"]
            yield "\n".join([f"{n} {name}"] + found)


def main():
    for name, records in (("parse-mix", parse_mix), ("prove-lambek", prove_lambek),
                          ("roundtrip-corpus", roundtrip_corpus),
                          ("contraction", contraction_verdicts),
                          ("nd-rejects", nd_rejects)):
        digest = hashlib.sha256()
        count = 0
        for text in records():
            digest.update(text.encode() + b"\0")
            count += 1
        print(f"{name} {count} {digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
