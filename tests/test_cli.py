import json

import pytest

from dispnet import cli

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
    assert data["stats"] == {"linkings": 4, "nets": 2, "readings": 1,
                             "steps": [5]}
    assert data["readings"][0]["final"] == "mary+rang+everyone+up"
    assert any(s["rule"] == "^>" for s in data["readings"][0]["trace"])


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
