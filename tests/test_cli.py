import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dispnet import cli
from dispnet.contraction import is_proof_net
from dispnet.lexicon import load_grammar
from dispnet.terms import SEP, StringTerm

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
        for h, m in zip(r.verdict.ps.hypotheses, r.cover):
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


def test_prove_countmismatch_message(sig_file, capsys):
    code, out, _ = run(["prove", sig_file, "x:np |- x:s"], capsys)
    assert code == 1
    assert "count mismatch" in out
    assert "np" in out and "s" in out


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


def test_check_file_missing(capsys):
    code, out, err = run(["check", "/nonexistent/file.nd"], capsys)
    assert code == 2


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
