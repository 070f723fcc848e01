"""The three benchmark workloads: inputs, the call into dispnet, checks.

Each workload makes its inputs from the seed, in blocks of fixed
composition; a run measures whole blocks, so every run of a workload
measures the same mix however fast the program is.

* ``parse-mix``: sentences from the templates below, each parsed with
  all readings by ``cli.run_parse``. One block holds every template
  ``PER_DEPTH[depth]`` times; the seed picks the words and the order.
* ``prove-lambek``: one block is the stored pool of bare Lambek
  sequents, each decided by ``cli.run_sequent`` up to its first reading.
* ``roundtrip-corpus``: one block is the stored pool of random
  natural-deduction proofs, each sent through ``nd.net_of_nd``,
  ``contraction.is_proof_net``, ``nd.extract_nd`` and ``nd.check_nd``.

For the two stored pools the seed picks a renaming of the sort-0 atoms
np/n/s (derivability, and every step of a round trip, are invariant
under a one-to-one renaming of atoms) and the order of each block.

Every output is checked against a reference that did not come from
dispnet: the hand-derived reading counts below, the verdicts of the
independent sequent prover ``LambekOracle`` stored with the pool, and
the sequent of each stored proof.
"""

from __future__ import annotations

import random
import re
import sys
from collections import Counter
from dataclasses import dataclass, fields, replace
from math import factorial, prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DATA = HERE / "data"


def import_dispnet():
    """Import dispnet from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import dispnet

    where = Path(dispnet.__file__).resolve().parent
    if where != SRC / "dispnet":
        raise SystemExit(f"dispnet imported from {where}, not from {SRC}")


# -- parse-mix -----------------------------------------------------------------

# Slot words, by kind. Within one sentence equal slot labels get the same
# word and different labels of one kind get different words, so a
# sentence repeats a word only where its template says so.
WORDS = {
    "N": ("mary", "john", "sue", "bill", "kim", "ann", "tom", "liz"),
    "I": ("walks", "sleeps", "talks", "runs"),
    "T": ("likes", "sees", "meets", "loves"),
    "S": ("thinks", "says", "knows", "hopes", "fears", "believes"),
    "Q": ("everyone", "someone"),
}


# Items of each template in one block, by clause depth (the number of
# verbs). Every template of a depth gets the same count, so no
# construction is favoured within a depth. Depths 1-2 make up 93% of the
# items, so latency p50 is the latency of a short sentence. Depths 4-5
# make up 16 items, more than 1% of the block, so latency p99 is a
# depth-4 latency. Depth 5 has its minimum of one sentence, about half
# of the block's time; NOTES.md gives the measured share of each
# template.
PER_DEPTH = {1: 50, 2: 50, 3: 20, 4: 5, 5: 1}
VERBS = ("I", "T", "S")


@dataclass(frozen=True)
class Template:
    pattern: str       # slot labels (N1, S2, ...) and literal words
    readings: int      # derived by hand from the grammar, see ``why``
    why: str

    @property
    def depth(self):
        """Clause depth: the number of verbs."""
        return sum(1 for t in self.pattern.split()
                   if t[0] in VERBS or t in ("left", "rang"))

    @property
    def per_block(self):
        return PER_DEPTH[self.depth]

    @property
    def repeats(self):
        """True when the template repeats a word in its sentences."""
        tokens = self.pattern.split()
        return len(set(tokens)) < len(tokens)


# Reading counts are derived from data/grammar.gram by hand, with the
# Lambek-calculus argument in ``why``; none was read off dispnet. A
# reading is a proof up to renaming of discharged hypotheses, so scope
# orders count and the order in which equal words are used does not.
TEMPLATES = (
    Template("N1 I1", 1, "np, np\\s => s has one derivation"),
    Template("N1 T1 N2", 1, "the verb takes its object on the right, its subject on the left"),
    Template("N1 left", 1, "only the np\\s entry of 'left' fits; the (np\\s)/np one lacks an object"),
    Template("N1 left N2", 1, "only the (np\\s)/np entry of 'left' fits; np\\s leaves an np over"),
    Template("Q1 I1", 1, "one clause, so the quantifier has one scope"),
    Template("N1 T1 Q1", 1, "one clause, so the quantifier has one scope"),
    Template("Q1 T1 Q2", 2, "two scope orders: subject over object and object over subject"),
    Template("N1 rang Q1 up", 1, "the idiom wraps the quantifier, which has one clause to scope over"),
    Template("N1 rang N2 up", 1, "the idiom wraps its object; one derivation"),
    Template("N1 who I1 I2", 1, "'who I1' modifies the only name, which is the subject of I2"),
    Template("N1 who T1 N2 I1", 1, "'who T1 N2' modifies N1, which is the subject of I1"),
    Template("N1 S1 N2 I1", 1, "one way to nest the embedded clause"),
    Template("N1 S1 N2 left", 1, "as N1 S1 N2 I1; only the np\\s entry of 'left' fits"),
    Template("N1 S1 Q1 I1", 2, "the quantifier scopes over the embedded or over the matrix clause"),
    Template("Q1 S1 Q2 I1", 3, "Q2 scopes over the embedded clause, or over the matrix above or below Q1"),
    Template("N1 S1 N2 S2 N3 I1", 1, "one way to nest three clauses"),
    Template("N1 S1 N2 S1 N3 I1", 1, "as with distinct verbs; exchanging the equal verbs is no new reading"),
    Template("N1 S1 N2 S2 N3 S3 N4 I1", 1, "one way to nest four clauses"),
    Template("N1 S1 N2 S1 N3 S1 N4 I1", 1, "as with distinct verbs; exchanging the equal verbs is no new reading"),
    Template("N1 S1 N2 S2 N3 S3 N4 S4 N5 I1", 1, "one way to nest five clauses"),
    Template("I1 N1", 0, "np\\s is leftmost, so no np precedes it"),
    Template("T1 N1 N2", 0, "(np\\s)/np is leftmost, so no np precedes it"),
    Template("N1 N2 T1", 0, "(np\\s)/np is rightmost, so no np follows it"),
    Template("I1 N1 S1 N2", 0, "np\\s is leftmost and no word takes an np\\s argument"),
    Template("I1 N1 S1 N2 S2 N3", 0, "np\\s is leftmost and no word takes an np\\s argument"),
    Template("I1 N1 S1 N2 S2 N3 S3 N4", 0, "np\\s is leftmost and no word takes an np\\s argument"),
)


def instantiate(pattern, rng):
    tokens = pattern.split()
    labels = sorted({t for t in tokens if t[0].isupper()})
    fill = {}
    for kind in sorted({label[0] for label in labels}):
        mine = [label for label in labels if label[0] == kind]
        fill.update(zip(mine, rng.sample(WORDS[kind], len(mine))))
    return tuple(fill.get(t, t) for t in tokens)


@dataclass(frozen=True)
class Sentence:
    tokens: tuple
    template: Template


def discharged(p, Hyp):
    """Labels of the hypotheses that some rule of the proof discharges."""
    out = set()
    stack = [p]
    while stack:
        n = stack.pop()
        if not isinstance(n, Hyp):
            out.update(n.discharges)
            stack.extend(n.children)
    return out


def reading_shape(p, Hyp):
    """A proof with its open hypothesis labels erased and discharged ones
    renamed in first-use order: readings that differ only in which of
    two equal words fills which place get the same shape."""
    bound = discharged(p, Hyp)
    names = {}

    def name(label):
        return names.setdefault(label, len(names))

    def walk(n):
        if isinstance(n, Hyp):
            if n.label in bound:
                return ("var", name(n.label))
            return ("hyp", str(n.term), repr(n.formula))
        return (n.name, repr(n.mode), tuple(name(d) for d in n.discharges),
                tuple(walk(c) for c in n.children))

    return walk(p)


class ParseMix:
    name = "parse-mix"

    def __init__(self, seed):
        import_dispnet()
        from dispnet import cli, lexicon, nd

        self.cli, self.Hyp = cli, nd.Hyp
        # bound before any tracer wraps it: the checks must not show in traces
        self.check_nd = nd.check_nd
        self.grammar = lexicon.load_grammar((DATA / "grammar.gram").read_text())
        self.seed = seed

    def block(self, index):
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        items = [Sentence(instantiate(t.pattern, rng), t)
                 for t in TEMPLATES for _ in range(t.per_block)]
        rng.shuffle(items)
        return items

    def call(self, item):
        return self.cli.run_parse(self.grammar, item.tokens, all_readings=True)

    @staticmethod
    def group(item):
        return item.template.pattern

    def references(self):
        """Nothing to work out: the reading counts are in TEMPLATES."""

    @staticmethod
    def keep(result):
        return [(r.proof, str(r.verdict.comb_term)) for r in result.readings]

    @staticmethod
    def readings(kept):
        return len(kept)

    outcome = readings

    def check(self, item, kept):
        """None when right, "known: ..." for the repeated-word defect (see
        NOTES.md), else what is wrong."""
        sentence = "+".join(item.tokens)
        sig = self.grammar.signature
        for proof, comb in kept:
            if comb != sentence or str(proof.term) != sentence:
                return f"reading spells {comb}, not {sentence}"
            if repr(proof.formula) != repr(self.grammar.goal_default):
                return f"reading concludes {proof.formula!r}"
            bad = self.check_nd(proof, sig)
            if bad:
                return "proof fails check_nd: " + "; ".join(bad)
        want = item.template.readings
        distinct = len({reading_shape(p, self.Hyp) for p, _ in kept})
        if distinct != want:
            return f"{distinct} distinct readings, expected {want}"
        if len(kept) == want:
            return None
        # readings that differ only in which of two equal words fills which
        # place: the repeated-word defect (at most prod(r!) of them)
        bound = want * prod(factorial(r) for r in Counter(item.tokens).values())
        if item.template.repeats and len(kept) <= bound:
            return (f"known: '{item.template.pattern}' gives {len(kept)} "
                    f"readings, {want} expected")
        return f"{len(kept)} readings, expected {want}"

    def describe(self, item):
        return " ".join(item.tokens)


# -- stored pools ----------------------------------------------------------------

ATOMS = ("np", "n", "s")


def atom_renaming(name, seed):
    """A one-to-one renaming of np/n/s drawn from the seed, as a function
    on formulas."""
    from dispnet import formula as fm

    targets = list(ATOMS)
    random.Random(f"{name}:rename:{seed}").shuffle(targets)
    table = dict(zip(ATOMS, targets))

    def rename(f):
        if isinstance(f, fm.Atom):
            return fm.Atom(table.get(f.name, f.name))
        return replace(f, **{
            field.name: rename(getattr(f, field.name)) for field in fields(f)
            if type(getattr(f, field.name)).__module__ == fm.__name__})

    return rename


def data_lines(filename):
    return [line for line in (DATA / filename).read_text().splitlines()
            if line and not line.startswith("#")]


class PoolWorkload:
    """One block is the stored pool, ``passes`` times over, in an order
    drawn from the seed."""

    passes = 1

    @staticmethod
    def group(item):
        return None

    def references(self):
        """Nothing to work out: the references are stored or built in."""

    def block(self, index):
        block = list(self.items) * self.passes
        random.Random(f"{self.name}:{self.seed}:{index}").shuffle(block)
        return block


@dataclass(frozen=True)
class Sequent:
    text: str
    hyp_pairs: tuple
    goal: object
    expected: object
    derivable: bool


class ProveLambek(PoolWorkload):
    name = "prove-lambek"

    def __init__(self, seed):
        import_dispnet()
        from dispnet import cli, formula as fm, terms as tm

        self.cli = cli
        self.seed = seed
        self.sig = fm.Signature({a: 0 for a in ATOMS})
        rename = atom_renaming(self.name, seed)
        self.items = []
        for line in data_lines("lambek.txt"):
            text, verdict = line.split("\t")
            left, goal = text.split("|-")
            hyps = [rename(fm.parse_formula(f)) for f in left.split(",")
                    if f.strip()]
            goal = rename(fm.parse_formula(goal))
            fresh = tm.FreshVars("x")
            hyp_pairs = tuple((fresh.term(0), f) for f in hyps)
            expected = tm.EMPTY
            for term, _ in hyp_pairs:
                expected = tm.concat(expected, term)
            text = (", ".join(map(fm.format_formula, hyps)) + " |- "
                    + fm.format_formula(goal))
            self.items.append(Sequent(text, hyp_pairs, goal, expected,
                                      verdict == "1"))

    def call(self, item):
        return self.cli.run_sequent(list(item.hyp_pairs), item.goal, self.sig,
                                    item.expected)

    @staticmethod
    def keep(result):
        return bool(result.readings)

    @staticmethod
    def readings(kept):
        return int(kept)

    outcome = readings

    def check(self, item, kept):
        if kept != item.derivable:
            return f"verdict {kept}, LambekOracle says {item.derivable}"
        return None

    def describe(self, item):
        return item.text


@dataclass(frozen=True)
class StoredProof:
    text: str
    proof: object


def open_sequent(p, Hyp):
    """(conclusion term, conclusion formula, sorted open hypotheses)."""
    bound = discharged(p, Hyp)
    leaves = []
    stack = [p]
    while stack:
        n = stack.pop()
        if isinstance(n, Hyp):
            if n.label not in bound:
                leaves.append((str(n.term), repr(n.formula)))
        else:
            stack.extend(n.children)
    return str(p.term), repr(p.formula), tuple(sorted(leaves))


class RoundtripCorpus(PoolWorkload):
    name = "roundtrip-corpus"
    passes = 2      # 1000 items a block

    def __init__(self, seed):
        import_dispnet()
        from dispnet import contraction, formula as fm, nd

        self.nd, self.contraction = nd, contraction
        self.seed = seed
        self.sig = fm.Signature({"np": 0, "n": 0, "s": 0, "j": 1})
        rename = atom_renaming(self.name, seed)
        hyp_formula = re.compile(r'(\(hyp \d+ "[^"]*" ")([^"]*)(")')
        self.items = []
        self.sequents = None    # text -> reference, see ``references``
        for line in data_lines("roundtrip.sexpr"):
            text = hyp_formula.sub(
                lambda m: (m[1] + fm.format_formula(rename(fm.parse_formula(m[2])))
                           + m[3]), line)
            self.items.append(StoredProof(text, nd.nd_from_sexpr(text)))

    def call(self, item):
        nd = self.nd
        ps, terms, _aps, _trace = nd.net_of_nd(item.proof, self.sig)
        verdict = self.contraction.is_proof_net(ps, terms, self.sig)
        back = nd.extract_nd(verdict, self.sig)
        return verdict, back, nd.check_nd(back, self.sig)

    def keep(self, result):
        verdict, back, violations = result
        return (verdict.is_net, str(verdict.comb_term),
                open_sequent(back, self.nd.Hyp), tuple(violations))

    @staticmethod
    def outcome(kept):
        return kept[0], kept[1], len(kept[3])

    @staticmethod
    def readings(kept):
        return 0

    def references(self):
        """The sequent of each stored proof. Run after set-up and before
        the timed phase, so that neither shows the work."""
        self.sequents = {item.text: open_sequent(item.proof, self.nd.Hyp)
                         for item in self.items}

    def check(self, item, kept):
        is_net, comb, sequent, violations = kept
        want = self.sequents[item.text]
        if not is_net:
            return "the net of the proof is not accepted"
        if comb != want[0]:
            return f"net contracts to {comb}, proof concludes {want[0]}"
        if violations:
            return "extracted proof fails check_nd: " + "; ".join(violations)
        if sequent != want:
            return f"extracted sequent {sequent} differs from {want}"
        return None

    def describe(self, item):
        return item.text[:100]


WORKLOADS = {w.name: w for w in (ParseMix, ProveLambek, RoundtripCorpus)}
