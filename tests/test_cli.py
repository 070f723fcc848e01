import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dispnet import cli
from dispnet.contraction import is_proof_net
from dispnet.formula import Atom, Over, Prod, Signature, Under
from dispnet.lexicon import load_grammar
from dispnet.nd import nd_to_sexpr
from dispnet.proofstructure import sequent_mismatches
from dispnet.terms import SEP, StringTerm

from conftest import prove_lambek

RING_UP = """\
np 0
s 0
mary := mary : np
rang_up := rang+1+up : (np\\s)^>np
everyone := everyone : (s^>np)!>s
"""

SIG = """\
np 0
s 0
a 0
b 0
j 1
"""


@pytest.fixture
def grammar_file(tmp_path):
    path = tmp_path / "ring.gram"
    path.write_text(RING_UP)
    return str(path)


@pytest.fixture
def sig_file(tmp_path):
    path = tmp_path / "base.sig"
    path.write_text(SIG)
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_ring_up(grammar_file, capsys):
    code, out, err = run(["parse", grammar_file, "mary rang everyone up"], capsys)
    assert code == 0
    assert "reading 1" in out
    assert "mary+rang+everyone+up : s" in out


def test_parse_all_finds_single_reading(grammar_file, capsys):
    code, out, err = run(
        ["parse", grammar_file, "mary rang everyone up", "--all", "--trace"],
        capsys,
    )
    assert code == 0
    assert "linkings=4" in out
    assert "readings=1" in out
    assert "[^>]" in out


def test_parse_single_word_goal_np(grammar_file, capsys):
    code, out, err = run(
        ["parse", grammar_file, "mary", "--goal", "np"], capsys
    )
    assert code == 0
    assert "readings=1" in out


def test_parse_wrong_order_rejected(grammar_file, capsys):
    code, out, err = run(
        ["parse", grammar_file, "rang mary up everyone", "--all"], capsys
    )
    assert code == 1
    assert "readings=0" in out


def test_parse_unknown_word(grammar_file, capsys):
    code, out, err = run(["parse", grammar_file, "mary zzz"], capsys)
    assert code == 2
    assert "unknown words: zzz" in err


def test_parse_json_deterministic(grammar_file, capsys):
    code1, out1, _ = run(
        ["parse", grammar_file, "mary rang everyone up", "--json", "--all",
         "--trace"],
        capsys,
    )
    code2, out2, _ = run(
        ["parse", grammar_file, "mary rang everyone up", "--json", "--all",
         "--trace"],
        capsys,
    )
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    # the linking whose comb spells a wrong word order is pruned by
    # position unification before contraction, so one net is left
    assert data["stats"] == {"linkings": 4, "pruned": 2, "nets": 1,
                             "readings": 1, "steps": [5]}
    assert data["readings"][0]["final"] == "mary+rang+everyone+up"
    assert any(s["rule"] == "^>" for s in data["readings"][0]["trace"])


# word -> formulas; a grammar file is written from a word list
LEXICON = {
    "a": ["np"], "b": ["np"], "c": ["np"], "d": ["np"], "e": ["np"],
    "walks": ["np\\s"], "sleeps": ["np\\s"],
    "likes": ["(np\\s)/np"], "sees": ["(np\\s)/np"],
    "thinks": ["(np\\s)/s"], "says": ["(np\\s)/s"],
    "everyone": ["(s^>np)!>s"], "someone": ["(s^>np)!>s"],
    "who": ["(np\\np)/(np\\s)"],
}


def grammar_text(words):
    """A grammar for the given words; a word missing from LEXICON is a
    renamed copy (``thinks_2``) with the entries of its original."""
    lines = ["np 0", "s 0"]
    for w in sorted(set(words)):
        for f in LEXICON[w.split("_")[0]]:
            lines.append(f"{w} := {w} : {f}")
    return "\n".join(lines) + "\n"


def parse_all(tokens):
    grammar = load_grammar(grammar_text(tokens))
    return grammar, cli.run_parse(grammar, tokens, all_readings=True)


def renamed_apart(tokens):
    """The k-th repeat of a word becomes ``word_k``."""
    seen = {}
    out = []
    for t in tokens:
        seen[t] = seen.get(t, 0) + 1
        out.append(t if seen[t] == 1 else f"{t}_{seen[t]}")
    return out


TEMPLATES = (
    "N S N I", "N S N S N I", "N S N S N S N I", "Q S Q I", "N T N",
    "Q T Q", "N S Q T N", "Q S N S Q I", "N who I S N I",
)
WORDS = {"N": ("a", "b"), "S": ("thinks", "says"), "I": ("walks", "sleeps"),
         "T": ("likes", "sees"), "Q": ("everyone", "someone")}


def test_repeated_words_read_like_renamed_apart():
    rng = random.Random(3)
    repeats = readings = 0
    for _ in range(40):
        tokens = [rng.choice(WORDS[k]) if k in WORDS else k
                  for k in rng.choice(TEMPLATES).split()]
        _, result = parse_all(tokens)
        _, apart = parse_all(renamed_apart(tokens))
        assert len(result.readings) == len(apart.readings), tokens
        repeats += len(set(tokens)) < len(tokens)
        readings += len(result.readings)
    assert repeats > 20 and readings > 40


@pytest.mark.xfail(strict=True, reason=(
    "prove does not anchor a repeated word (Anchors.of_terms returns None), "
    "so the two x hypotheses trade places and give a second reading"))
def test_prove_with_a_repeated_word_reads_as_parse_does(tmp_path, capsys):
    path = tmp_path / "xy.gram"
    path.write_text("np 0\ns 0\nx := x : np\ny := y : np\\(np\\s)\n")
    code, out, _ = run(["parse", str(path), "x x y", "--all"], capsys)
    assert code == 0 and "readings=1\n" in out
    code, out, _ = run(["prove", str(path), "x:np, x:np, y:np\\(np\\s) |- x+x+y:s",
                        "--all"], capsys)
    assert code == 0 and "readings=1\n" in out


def test_repeated_verb_chain_has_one_reading(tmp_path, capsys):
    tokens = "a thinks b thinks c thinks d thinks e walks"
    path = tmp_path / "chain.gram"
    path.write_text(grammar_text(tokens.split()))
    code, out, _ = run(["parse", str(path), tokens, "--all"], capsys)
    assert code == 0
    assert "stats: linkings=14400 nets=1 readings=1\n" in out


@pytest.mark.parametrize("sentence", [
    "a thinks b thinks c walks",
    "everyone thinks everyone walks",
    "a likes a",
    "a who walks thinks b who walks walks",
])
def test_reading_hypotheses_sit_at_their_cover_spans(sentence):
    """Contract each reading again with every word renamed to its token
    position: the comb must still spell the sentence, so the hypothesis
    at token k is the cover entry whose span holds k."""
    tokens = sentence.split()
    grammar, result = parse_all(tokens)
    assert result.readings
    expected = StringTerm(tuple(f"t{k}" for k in range(len(tokens))))
    for r in result.readings:
        terms = {}
        for h, m in zip(r.verdict.ps.frame.hypotheses, r.cover):
            at = iter(t for start, end in m.spans for t in range(start, end))
            terms[h] = StringTerm(tuple(
                it if it == SEP else f"t{next(at)}" for it in m.entry.string.items))
        assert is_proof_net(r.verdict.ps, terms, grammar.signature, expected).is_net


def test_prove_modus_ponens(sig_file, capsys):
    code, out, _ = run(
        ["prove", sig_file, "x:np, y:np\\s |- x+y:s"], capsys
    )
    assert code == 0
    assert "x+y : s" in out


def test_prove_sort_mismatch_is_input_error(sig_file, capsys):
    code, out, err = run(
        ["prove", sig_file, "v:(np\\s)^>np, o:np, x:np |- x+v+o:s"], capsys
    )
    assert code == 2
    assert "sort" in err


def test_prove_goal_sort_mismatch_is_input_error(sig_file, capsys):
    code, out, err = run(["prove", sig_file, "x:np, y:np\\s |- x+1+y:s"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: goal x+1+y has sort 1, formula s needs 0\n"


@pytest.mark.parametrize("sequent", [
    "x0:np\\s, np |- s",
    "x:np, np\\s |- x+x0:s",
], ids=["hypothesis-word", "goal-word"])
def test_fresh_terms_avoid_stated_words(sequent, sig_file, capsys):
    """A hypothesis stated without a term gets a word of its own, so it
    cannot stand in for a word of a stated term."""
    code, out, _ = run(["prove", sig_file, sequent], capsys)
    assert code == 1
    assert "readings=0" in out


def test_fresh_terms_skip_past_stated_words(sig_file, capsys):
    code, out, _ = run(["prove", sig_file, "x1:np, np\\s |- s"], capsys)
    assert code == 0
    assert "comb: x1+x2 : s" in out


def test_prove_discontinuous_verb(sig_file, capsys):
    code, out, _ = run(
        ["prove", sig_file,
         "v1+1+v2:(np\\s)^>np, o:np, x:np |- x+v1+o+v2:s"],
        capsys,
    )
    assert code == 0
    assert "x+v1+o+v2 : s" in out


def test_prove_discontinuous_with_terms(sig_file, capsys):
    code, out, _ = run(
        ["prove", sig_file, "a+1+b:j, g:j!>(j o> s) |- a+g+b:j o> s"],
        capsys,
    )
    assert code == 0
    code, out, _ = run(
        ["prove", sig_file, "a+1+b:j, g:j!>(j o> s) |- 0:j o> s"], capsys
    )
    assert code == 1  # derivation exists but spells a+g+b, not the empty term


def test_prove_bare_sequent_derivability(sig_file, capsys):
    code, out, _ = run(["prove", sig_file, "np, np\\s |- s"], capsys)
    assert code == 0
    code, out, _ = run(["prove", sig_file, "np\\s, np |- s"], capsys)
    assert code == 1
    code, out, _ = run(["prove", sig_file, "np |- s"], capsys)
    assert code == 1
    out = capsys.readouterr()
    code, out2, _ = run(["prove", sig_file, "np |- s", "--json"], capsys)
    data = json.loads(out2)
    assert data["errors"]


def test_prove_net_mode_ignores_order(sig_file, capsys):
    code, out, _ = run(
        ["prove", sig_file, "y:np\\s, x:np |- y+x:s", "--mode", "net"],
        capsys,
    )
    assert code == 0


@pytest.mark.parametrize("sequent, message", [
    ("np, , np |- np", "hypothesis 2 of 3 is empty"),
    ("np, |- np", "hypothesis 2 of 2 is empty"),
    (", x:np |- x:np", "hypothesis 1 of 2 is empty"),
], ids=["middle", "trailing", "leading"])
def test_empty_hypothesis_is_input_error(sequent, message, sig_file, capsys):
    code, out, err = run(["prove", sig_file, sequent], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_empty_antecedent_is_a_sequent(sig_file, capsys):
    code, out, err = run(["prove", sig_file, " |- np"], capsys)
    assert code == 1 and err == ""
    assert "error: atom count mismatch: np: 0 producer(s) vs 1 consumer(s)" in out
    code, out, _ = run(["prove", sig_file, "|- np/np"], capsys)
    assert code == 0
    assert "comb: 0 : np/np" in out


def nested(depth):
    f = "np"
    for _ in range(depth):
        f = f"np/({f})"
    return f


@pytest.mark.parametrize("sequent, linkings", [
    ("np, (np\\s)/s, " * 4 + "np, np\\s |- s", 14400),
    (f"{nested(7)} |- {nested(7)}", 40320),
], ids=["thinks-chain", "nested-identity"])
def test_prove_contracts_only_anchored_linkings(sequent, linkings, sig_file, capsys):
    # the fresh hypothesis terms are the tokens of the string the comb
    # must spell, so linkings whose positions clash are never contracted;
    # the indexes still count the full stream
    code, out, _ = run(["prove", sig_file, sequent, "--all", "--json"], capsys)
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["readings"] == 1 and stats["linkings"] == linkings
    assert stats["linkings"] - stats["pruned"] == stats["nets"]


REPEATED_WORD = "a:np, t:(np\\s)/s, a:np, w:np\\s |- a+t+a+w:s"
REPEATED_WORD_OUT = """\
goal: s
reading 1 (linking 1):
  comb: a+t+a+w : s
  proof: (under_e (hyp 0 "a" "np") (over_e (hyp 1 "t" "(np\\s)/s") \
(under_e (hyp 6 "a" "np") (hyp 7 "w" "np\\s"))))
reading 2 (linking 3):
  comb: a+t+a+w : s
  proof: (under_e (hyp 6 "a" "np") (over_e (hyp 1 "t" "(np\\s)/s") \
(under_e (hyp 0 "a" "np") (hyp 7 "w" "np\\s"))))
stats: linkings=4 nets=2 readings=2
"""
EMPTY_PIECE = "1+up:(np\\s)^>np, m:np, e:np |- m+e+up:s"
EMPTY_PIECE_OUT = """\
goal: s
reading 1 (linking 1):
  comb: m+e+up : s
  proof: (under_e (hyp 5 "m" "np") (up_e > (hyp 0 "1+up" "(np\\s)^>np") \
(hyp 6 "e" "np")))
stats: linkings=2 nets=2 readings=1
"""


@pytest.mark.parametrize("sequent, expected", [
    (REPEATED_WORD, REPEATED_WORD_OUT),
    (EMPTY_PIECE, EMPTY_PIECE_OUT),
], ids=["repeated-word", "empty-piece"])
def test_prove_without_exact_anchors_contracts_every_linking(
        sequent, expected, sig_file, capsys):
    code, out, _ = run(["prove", sig_file, sequent, "--all"], capsys)
    assert code == 0
    assert out == expected
    code, out, _ = run(["prove", sig_file, sequent, "--all", "--json"], capsys)
    assert json.loads(out)["stats"]["pruned"] == 0


def random_lambek_formula(rng, conn):
    if conn == 0:
        return Atom(rng.choice(("np", "s")))
    left = rng.randint(0, conn - 1)
    a = random_lambek_formula(rng, left)
    b = random_lambek_formula(rng, conn - 1 - left)
    return rng.choice((Over, Under, Prod))(a, b)


def test_derived_anchors_keep_readings_and_indexes(monkeypatch):
    rng = random.Random(11)
    sequents = []
    while len(sequents) < 300:
        hyps = [random_lambek_formula(rng, rng.randint(0, 3))
                for _ in range(rng.randint(1, 4))]
        goal = random_lambek_formula(rng, rng.randint(0, 3))
        if not sequent_mismatches(hyps, goal):
            sequents.append((hyps, goal))

    def decide():
        out = []
        for hyps, goal in sequents:
            r = prove_lambek(hyps, goal, all_readings=True)
            readings = [(nd_to_sexpr(x.proof), x.verdict.ps.index)
                        for x in r.readings]
            out.append((readings, r.linkings_tried, r.pruned))
        return out

    anchored = decide()
    monkeypatch.setattr(cli.Anchors, "of_terms", classmethod(lambda cls, *a: None))
    plain = decide()
    assert [a[:2] for a in anchored] == [p[:2] for p in plain]
    assert sum(1 for readings, *_ in plain if readings) > 20
    assert sum(p for *_, p in plain) == 0 < sum(p for *_, p in anchored)


NP_S_MISMATCH = ("np: 1 producer(s) vs 0 consumer(s), "
                 "s: 0 producer(s) vs 1 consumer(s)")


def test_prove_countmismatch_message(sig_file, capsys):
    code, out, _ = run(["prove", sig_file, "x:np |- x:s"], capsys)
    assert code == 1
    assert "count mismatch" in out
    assert "np" in out and "s" in out
    code, out, _ = run(["prove", sig_file, "np |- s"], capsys)
    assert code == 1
    assert out == (
        "goal: s\n"
        f"error: atom count mismatch: {NP_S_MISMATCH}\n"
        "stats: linkings=0 nets=0 readings=0\n"
    )
    code, out, _ = run(["prove", sig_file, "np |- s", "--json"], capsys)
    assert code == 1
    assert out == json.dumps({
        "errors": [NP_S_MISMATCH],
        "goal": "s",
        "mode": "parse",
        "readings": [],
        "stats": {"linkings": 0, "nets": 0, "pruned": 0, "readings": 0,
                  "steps": []},
        "tokens": [],
    }, indent=2) + "\n"


def test_unbalanced_sequent_is_not_unfolded(monkeypatch):
    def unfold(*args):
        raise AssertionError("an unbalanced sequent was unfolded")

    monkeypatch.setattr(cli, "unfold", unfold)
    hyp_pairs = [(StringTerm(("x",)), Atom("np"))]
    result = cli.run_sequent(hyp_pairs, Atom("s"),
                             Signature({"np": 0, "s": 0}))
    assert [str(e) for e in result.errors] == [NP_S_MISMATCH]
    assert result.errors[0].mismatches == {"np": (1, 0), "s": (0, 1)}
    assert result.readings == [] and result.linkings_tried == 0


def test_check_roundtrip(tmp_path, grammar_file, capsys, sig_file):
    code, out, _ = run(
        ["parse", grammar_file, "mary rang everyone up", "--json"], capsys
    )
    proof_text = json.loads(out)["readings"][0]["proof"]
    path = tmp_path / "proof.nd"
    path.write_text("np 0\ns 0\n" + proof_text + "\n")
    code, out, _ = run(["check", str(path)], capsys)
    assert code == 0
    assert "ok: mary+rang+everyone+up : s" in out


def test_check_rejects_a_label_used_twice(tmp_path, capsys):
    # label 1 is discharged by over_i and used again by an open leaf
    path = tmp_path / "reused.nd"
    path.write_text('np 0\ns 0\n(over_e (over_i 1 (prod_i (hyp 0 "a" "np") '
                    '(hyp 1 "q" "s"))) (hyp 1 "q" "s"))\n')
    code, out, err = run(["check", str(path)], capsys)
    assert (code, out, err) == (1, "violation: hypothesis label 1 used twice\n", "")


def test_check_accepts_a_discharge_label_reused_in_another_scope(tmp_path, capsys):
    path = tmp_path / "scoped.nd"
    path.write_text('np 0\ns 0\n(prod_i (over_i 1 (prod_i (hyp 0 "a" "np") '
                    '(hyp 1 "q" "s"))) (over_i 1 (prod_i (hyp 2 "b" "np") '
                    '(hyp 1 "r" "s"))))\n')
    code, out, err = run(["check", str(path)], capsys)
    assert (code, err) == (0, "") and out.startswith("ok: a+b : ")
    assert "from 2 hypothesis(es)" in out


def test_check_rejects_bad_proof(tmp_path, capsys):
    path = tmp_path / "bad.nd"
    path.write_text(
        'np 0\ns 0\n(under_e (hyp 0 "a" "np") (hyp 1 "b" "s"))\n'
    )
    code, out, err = run(["check", str(path)], capsys)
    assert code == 2  # does not even build: bad arithmetic

    path2 = tmp_path / "bad2.nd"
    path2.write_text('np 0\n(hyp 0 "a+1+b" "np")\n')
    code, out, err = run(["check", str(path2)], capsys)
    assert code == 1
    assert "violation" in out


@pytest.mark.parametrize("proof, message", [
    ('(under_e (hyp 0 "a" "np"))', "under_e: takes 2 premiss(es)"),
    ('(hyp 0 "a" "np") extra', "trailing material 'extra'"),
    ('(hyp 0 "a")', 'hyp: expected a label, a "term" and a "formula"'),
    ('(hyp x "a" "np")', "hyp: label 'x' is not an integer"),
    ('(up_e (hyp 0 "a+1+b" "s^>np") (hyp 1 "c" "np"))',
     "up_e: expected a mode, got none"),
    ('(hyp 0 "a" "np', "unterminated string '\"np'"),
], ids=["premisses", "trailing", "hyp-arity", "label", "mode", "string"])
def test_check_malformed_proof_is_input_error(proof, message, tmp_path, capsys):
    path = tmp_path / "bad.nd"
    path.write_text("np 0\ns 0\n" + proof + "\n")
    code, out, err = run(["check", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_prove_has_no_goal_option(sig_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["prove", sig_file, "np |- np", "--goal", "s"])
    assert exc.value.code == 2
    assert "--goal" in capsys.readouterr().err


def test_check_file_missing(capsys):
    code, out, err = run(["check", "/nonexistent/file.nd"], capsys)
    assert code == 2


def test_check_reports_file_line_numbers(tmp_path, capsys):
    path = tmp_path / "bad.nd"
    path.write_text('# a proof\n\nnp 0\ns x\n(hyp 0 "a" "np")\n')
    code, out, err = run(["check", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: line 4: bad signature entry 's x'\n"


def test_check_reads_comments_as_the_signature_does(tmp_path, capsys):
    path = tmp_path / "ok.nd"
    path.write_text('np 0  # the one atom\n\n(hyp 0 "a" "np")  # a leaf\n')
    code, out, err = run(["check", str(path)], capsys)
    assert (code, err) == (0, "")
    assert out == "ok: a : np from 1 hypothesis(es)\n"


DEEP = 3000


@pytest.mark.parametrize("command, text", [
    ("prove", "(" * DEEP + "np" + ")" * DEEP + " |- np"),
    ("prove", "np/" * DEEP + "np |- np"),
    ("check", "np 0\n" + "(under_i 0 " * DEEP + '(hyp 0 "a" "np")' + ")" * DEEP),
    ("parse", "s 0\nw := w : " + "(" * DEEP + "s" + ")" * DEEP),
], ids=["prove-parens", "prove-slashes", "check", "parse"])
def test_deep_input_is_input_error(command, text, tmp_path, sig_file, capsys):
    if command == "prove":
        argv = ["prove", sig_file, text]
    else:
        path = tmp_path / "deep.txt"
        path.write_text(text)
        argv = [command, str(path)] + (["w"] if command == "parse" else [])
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err == "error: input nested too deeply\n"


@pytest.mark.parametrize("flags", [[], ["--all", "--trace", "--json", "--latex"]])
def test_closed_stdout_exits_quietly(grammar_file, flags):
    # short output fails at the final flush, long output inside print
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dispnet", "parse", grammar_file,
             "mary rang everyone up", *flags],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=60)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.returncode == cli.EXIT_CLOSED_PIPE
