"""Command-line front end: parse sentences, prove sequents, check proofs.

    dispnet parse GRAMMAR "mary rang everyone up" [--goal s] [--all]
    dispnet prove GRAMMAR_OR_SIG "x:np, y:np\\s |- x+y:s"
    dispnet check PROOF_FILE

Exit codes: 0 when at least one reading/derivation is found (or the
proof checks), 1 when none is, 2 on input errors (a proof too deep to
build or print among them, with nothing on stdout), 141 (128 + SIGPIPE)
when the reader closes standard output before the report is written,
as in ``dispnet parse ... --json | head``; that case prints nothing
to standard error. Output is
deterministic for fixed inputs and flags; ``--json`` emits the same
reading set as the human-readable report.

``--mode net`` accepts any linking whose abstract proof structure
contracts to a comb; the default ``parse`` mode additionally requires
the comb to spell the expected string (the sentence for ``parse``, the
stated goal term for ``prove``). Both commands skip, before
contraction, every linking with a position clash, a cycle, or a
withdrawn hypothesis that reaches the goal around its body
(``stats.pruned``). Cycles and escaped hypotheses are checked in every
mode. A position clash is checked in ``parse`` mode, where a linking's
string positions must fit that string; ``prove`` checks it whenever
its terms read as tokens of the string, as a bare sequent's fresh
terms always do.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import formula as fm
from . import lexicon as lx
from . import nd
from . import terms as tm
from .contraction import is_proof_net
from .proofstructure import (
    Anchors,
    CountMismatch,
    enumerate_linkings,
    lay_out,
    linking_count,
    sequent_mismatches,
    tally,
    unbalanced,
    unfold,
)


EXIT_CLOSED_PIPE = 128 + 13  # what a shell reports for a SIGPIPE death


@dataclass
class Reading:
    cover: tuple          # EntryMatch tuple for parse, () for prove
    verdict: object       # NetVerdict; its ps.index is the linking's
    proof: object         # NDProof


@dataclass
class ParseResult:
    tokens: list
    goal: object
    readings: list = field(default_factory=list)
    linkings_tried: int = 0
    pruned: int = 0       # linkings tried that the search skipped:
                          # position clash, cycle or escaped hypothesis
    nets_found: int = 0
    errors: list = field(default_factory=list)


def run_sequent(hyp_pairs, goal_formula, sig, expected=None,
                 all_readings=False):
    """Decide one sequent; hyp_pairs are (StringTerm, Formula). With
    ``expected`` (``parse`` mode) a net is a reading only when its comb
    spells that string; with None (``net`` mode) every net is one.
    Anchors are read off the hypothesis terms and ``expected`` when that
    reading is exact (``Anchors.of_terms``): a bare ``prove`` sequent,
    whose fresh one-word terms are the tokens of the string the comb
    must spell, is pruned like a parsed sentence, repeated words
    included. An unbalanced sequent is reported as a ``CountMismatch``
    without being unfolded."""
    result = ParseResult(tokens=[], goal=goal_formula)
    hypotheses = [f for _, f in hyp_pairs]
    mismatches = sequent_mismatches(hypotheses, goal_formula)
    if mismatches:
        result.errors.append(CountMismatch(mismatches))
        return result
    frame = unfold(hypotheses, goal_formula, sig)
    anchors = (Anchors.of_terms(sig, hyp_pairs, goal_formula, expected)
               if expected is not None else None)
    _decide(result, frame, [t for t, _ in hyp_pairs], sig, expected,
            all_readings, (), anchors)
    return result


def _decide(result, frame, hyp_terms, sig, expected, all_readings, cover,
            anchors):
    """Add to ``result`` what the linkings of ``frame`` give: each
    linking the search keeps (``enumerate_linkings``, with ``anchors``
    if any) is contracted, and each net is a reading, up to the first
    one unless ``all_readings``. ``hyp_terms`` holds the string term of
    each hypothesis.

    Each net is one reading; readings are not compared. A proof is read
    off the frame along its linking, and the frame, a forest of formula
    trees rooted at the fixed hypothesis and goal vertices, has no
    symmetry that fixes those roots, so two linkings extract to two
    different proofs."""
    terms = dict(zip(frame.hypotheses, hyp_terms))
    tried = contracted = 0
    for ps in enumerate_linkings(frame, anchors):
        verdict = is_proof_net(ps, terms, sig, expected)
        contracted += 1
        tried = ps.index + 1
        if verdict.kind != "stuck":
            result.nets_found += 1
        if not verdict.is_net:
            continue
        result.readings.append(Reading(cover, verdict,
                                       nd.extract_nd(verdict, sig)))
        if not all_readings:
            break
    else:
        tried = linking_count(frame)
    result.linkings_tried += tried
    result.pruned += tried - contracted


def run_parse(grammar, tokens, goal=None, mode="parse", all_readings=False):
    """Parse ``tokens``: decide the sequent of each lexical cover in
    turn. A cover's frame is its entries' compiled pieces and the goal's
    laid end to end, and its balance the sum of their tallies, so no
    formula is walked here."""
    goal = goal if goal is not None else grammar.goal_default
    result = ParseResult(tokens=list(tokens), goal=goal)
    expected = tm.StringTerm(tuple(tokens)) if mode == "parse" else None
    sig = grammar.signature
    # a sentence is a sort-0 string, so only a sort-0 goal can spell it
    anchored = expected is not None and sig.sort_of(goal) == 0
    goal_piece = grammar.goal_piece(goal)
    for cover in lx.lexical_covers(grammar, tokens):
        pieces = [m.frame_piece for m in cover]
        pieces.append(goal_piece)
        counts = tally(pieces)
        mismatches = unbalanced(counts)
        if mismatches:
            result.errors.append(CountMismatch(mismatches))
            continue
        anchors = (Anchors([m.spans for m in cover], ((0, len(tokens)),))
                   if anchored else None)
        _decide(result, lay_out(pieces, counts),
                [m.entry.string for m in cover], sig, expected,
                all_readings, cover, anchors)
        if result.readings and not all_readings:
            break
    return result


# -- sequent text parsing -------------------------------------------------


def parse_sequent(text):
    """``x:np, y:np\\s |- x+y:s``; terms may be omitted (``np, np\\s |- s``),
    in which case hypotheses get fresh variables and the expected goal
    term is their concatenation. The antecedent may be empty
    (`` |- np/np``), but none of its comma-separated hypotheses may."""
    if "|-" not in text:
        raise ValueError("sequent needs |- between hypotheses and goal")
    left, _, right = text.partition("|-")
    hyp_pairs = []
    explicit = []
    parts = left.split(",") if left.strip() else []
    for n, part in enumerate(parts, 1):
        part = part.strip()
        if not part:
            raise ValueError(f"hypothesis {n} of {len(parts)} is empty")
        if ":" in part:
            t, _, f = part.partition(":")
            term = tm.parse_term(t.strip())
            explicit.append(True)
        else:
            term, f = None, part
            explicit.append(False)
        hyp_pairs.append((term, fm.parse_formula(f.strip())))
    right = right.strip()
    if ":" in right:
        t, _, f = right.partition(":")
        goal_term = tm.parse_term(t.strip())
        goal = fm.parse_formula(f.strip())
    else:
        goal_term = None
        goal = fm.parse_formula(right)
    return hyp_pairs, goal, goal_term, all(explicit) if hyp_pairs else True


def _fill_terms(hyp_pairs, goal_term, goal, sig):
    """Check each stated term's sort against its formula, the goal's
    last, and give each hypothesis without a term a fresh one, named
    apart from the words of the stated terms."""
    stated = [(t, f, "hypothesis") for t, f in hyp_pairs if t is not None]
    if goal_term is not None:
        stated.append((goal_term, goal, "goal"))
    for term, f, what in stated:
        if term.sort != sig.sort_of(f):
            raise ValueError(
                f"{what} {term} has sort {term.sort}, formula "
                f"{fm.format_formula(f)} needs {sig.sort_of(f)}"
            )
    fresh = nd.fresh_beyond([t for t, _, _ in stated], "x")
    return [(t if t is not None else fresh.term(sig.sort_of(f)), f)
            for t, f in hyp_pairs]


# -- reporting -------------------------------------------------------------


def _reading_record(r, latex=False, trace=False):
    rec = {
        "linking": r.verdict.ps.index,
        "final": str(r.verdict.comb_term),
        "proof": nd.nd_to_sexpr(r.proof),
    }
    if r.cover:
        rec["cover"] = [
            {"headword": m.entry.headword,
             "term": str(m.entry.string),
             "formula": fm.format_formula(m.entry.formula),
             "spans": [list(s) for s in m.spans]}
            for m in r.cover
        ]
    if trace:
        rec["trace"] = [
            {"rule": s.rule, "consumed": list(s.consumed),
             "result": s.result, "row": s.row}
            for s in r.verdict.trace.steps
        ]
    if latex:
        rec["latex"] = nd.latex_nd(r.proof)
        rec["latex_trace"] = nd.latex_trace(r.verdict.trace)
    return rec


def _result_json(result, mode, latex, trace):
    return {
        "tokens": result.tokens,
        "goal": fm.format_formula(result.goal),
        "mode": mode,
        "readings": [_reading_record(r, latex, trace) for r in result.readings],
        "stats": {
            "linkings": result.linkings_tried,
            "pruned": result.pruned,
            "nets": result.nets_found,
            "readings": len(result.readings),
            "steps": [len(r.verdict.trace.steps) for r in result.readings],
        },
        "errors": [str(e) for e in result.errors],
    }


def _result_text(result, latex, trace):
    out = []
    w = out.append
    if result.tokens:
        w(f"sentence: {' '.join(result.tokens)}\n")
    w(f"goal: {fm.format_formula(result.goal)}\n")
    for e in result.errors:
        w(f"error: atom count mismatch: {e}\n")
    for n, r in enumerate(result.readings, 1):
        w(f"reading {n} (linking {r.verdict.ps.index}):\n")
        if r.cover:
            w("  cover: " + "  ".join(str(m.entry) for m in r.cover) + "\n")
        w(f"  comb: {r.verdict.comb_term} : {fm.format_formula(result.goal)}\n")
        w(f"  proof: {nd.nd_to_sexpr(r.proof)}\n")
        if trace:
            for line in r.verdict.trace.fmt().splitlines():
                w(f"  {line}\n")
        if latex:
            w(f"  latex: {nd.latex_nd(r.proof)}\n")
            for line in nd.latex_trace(r.verdict.trace).splitlines():
                w(f"  latex-trace: {line}\n")
    w(
        f"stats: linkings={result.linkings_tried} nets={result.nets_found} "
        f"readings={len(result.readings)}\n"
    )
    return "".join(out)


# -- subcommands -----------------------------------------------------------


def _input_error(exc) -> int:
    """Report unusable input; exit code 2."""
    if isinstance(exc, RecursionError):
        exc = "input nested too deeply"
    print(f"error: {exc}", file=sys.stderr)
    return 2


def cmd_parse(args) -> int:
    try:
        grammar = lx.load_grammar(Path(args.grammar).read_text())
        goal = fm.parse_formula(args.goal) if args.goal is not None else None
        if goal is not None:
            bad = fm.well_sorted(goal, grammar.signature)
            if bad:
                raise ValueError("; ".join(bad))
    except (OSError, ValueError, RecursionError) as exc:
        return _input_error(exc)
    tokens = args.sentence.split()
    vocabulary = {
        w for e in grammar.all_entries() for w in e.string.words()
    }
    unknown = [t for t in tokens if t not in vocabulary]
    if unknown:
        print(f"error: unknown words: {' '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        result = run_parse(grammar, tokens, goal, args.mode, args.all)
        report = render(result, args)
    except RecursionError as exc:
        return _input_error(exc)
    sys.stdout.write(report)
    return 0 if result.readings else 1


def cmd_prove(args) -> int:
    try:
        sig = load_signature(args.signature)
        hyp_pairs, goal, goal_term, explicit = parse_sequent(args.sequent)
        for _, f in hyp_pairs:
            bad = fm.well_sorted(f, sig)
            if bad:
                raise ValueError("; ".join(bad))
        bad = fm.well_sorted(goal, sig)
        if bad:
            raise ValueError("; ".join(bad))
        hyp_pairs = _fill_terms(hyp_pairs, goal_term, goal, sig)
    except (OSError, ValueError, RecursionError) as exc:
        return _input_error(exc)
    if goal_term is None and not explicit:
        # bare sequent: derivability means the comb spells the
        # hypotheses concatenated in order
        goal_term = tm.EMPTY
        for t, _ in hyp_pairs:
            goal_term = tm.concat(goal_term, t)
    try:
        result = run_sequent(hyp_pairs, goal, sig,
                             goal_term if args.mode == "parse" else None, args.all)
        report = render(result, args)
    except RecursionError as exc:
        return _input_error(exc)
    sys.stdout.write(report)
    return 0 if result.readings else 1


def cmd_check(args) -> int:
    try:
        text = Path(args.proof).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        return _input_error(exc)
    # the signature is the lines before the first one that opens a proof
    rows, lines = text.splitlines(), list(fm.content_lines(text))
    start = next((n for n, line in lines if line.startswith("(")),
                 len(rows) + 1)
    try:
        sig = fm.Signature.parse("\n".join(rows[:start - 1]))
        proof = nd.nd_from_sexpr(
            "\n".join(line for n, line in lines if n >= start))
    except (ValueError, IndexError, RecursionError) as exc:
        return _input_error(exc)
    violations = nd.check_nd(proof, sig)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    print(
        f"ok: {proof.term} : {fm.format_formula(proof.formula)} "
        f"from {len(nd.open_leaves_in_order(proof))} hypothesis(es)"
    )
    return 0


def load_signature(path):
    """Accept either a bare signature file or a grammar file."""
    text = Path(path).read_text()
    if ":=" in text:
        return lx.load_grammar(text).signature
    return fm.Signature.parse(text)


def render(result, args) -> str:
    """The whole report of ``parse`` or ``prove``, made before any of it
    is written, so that a proof too deep to render leaves stdout empty."""
    if args.json:
        return json.dumps(_result_json(result, args.mode, args.latex,
                                       args.trace), sort_keys=True, indent=2) + "\n"
    return _result_text(result, args.latex, args.trace)


def main(argv=None) -> int:
    top = argparse.ArgumentParser(prog="dispnet", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--all", action="store_true",
                       help="exhaust all linkings instead of stopping at the first reading")
        p.add_argument("--trace", action="store_true", help="print contraction traces")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--latex", action="store_true", help="include LaTeX proof trees")
        p.add_argument("--mode", choices=("parse", "net"), default="parse",
                       help="parse: comb must spell the expected string; net: contraction suffices")

    p_parse = sub.add_parser("parse", help="parse a sentence with a grammar")
    p_parse.add_argument("grammar")
    p_parse.add_argument("sentence")
    p_parse.add_argument("--goal", help="goal formula (default: grammar default)")
    common(p_parse)
    p_parse.set_defaults(func=cmd_parse)

    p_prove = sub.add_parser("prove", help="prove a sequent with explicit string terms")
    p_prove.add_argument("signature", help="signature or grammar file")
    p_prove.add_argument("sequent")
    common(p_prove)
    p_prove.set_defaults(func=cmd_prove)

    p_check = sub.add_parser("check", help="check a serialized proof file")
    p_check.add_argument("proof")
    p_check.set_defaults(func=cmd_check)

    args = top.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: the rest of the output, and the flush at
        # interpreter exit, go to devnull instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
