import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liequant import bfamily, cli, universal
from liequant.bfamily import Obstructed, stored_family
from liequant.rmatrix import NonUnique

SRC = str(Path(__file__).resolve().parent.parent / "src")
DATA = Path(__file__).resolve().parent / "data"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "liequant.cli", *args],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})


def test_cbh_command(tmp_path):
    out = tmp_path / "cbh.json"
    r = run_cli("cbh", "--max-degree", "3", "--out", str(out))
    assert r.returncode == 0
    data = json.loads(out.read_text())
    texts = {(e["p"], e["q"]): e["text"] for e in data["entries"]}
    assert texts[(1, 1)] == "1/2*[x1,x2]"
    assert "1/12" in texts[(2, 1)]


def test_bfamily_solve_check_roundtrip_and_determinism(tmp_path):
    f1, f2 = tmp_path / "b1.json", tmp_path / "b2.json"
    r1 = run_cli("bfamily", "solve", "--max-degree", "3", "--out", str(f1))
    r2 = run_cli("bfamily", "solve", "--max-degree", "3", "--out", str(f2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert f1.read_bytes() == f2.read_bytes()
    chk = run_cli("bfamily", "check", "--bfamily", str(f1))
    assert chk.returncode == 0
    assert json.loads(chk.stdout)["ok"] is True


def test_bfamily_check_broken_family_fails(tmp_path):
    f1 = tmp_path / "b.json"
    run_cli("bfamily", "solve", "--max-degree", "3", "--out", str(f1))
    data = json.loads(f1.read_text())
    # hand-edit: zero out one degree-3 entry
    data["entries"] = [e for e in data["entries"]
                       if not (e["p"] == 1 and e["q"] == 2)]
    f1.write_text(json.dumps(data))
    chk = run_cli("bfamily", "check", "--bfamily", str(f1))
    assert chk.returncode == 1
    payload = json.loads(chk.stdout)
    assert payload["ok"] is False and payload["violations"]


def test_bad_input_exit_code(tmp_path):
    bad = tmp_path / "nope.json"
    r = run_cli("bfamily", "check", "--bfamily", str(bad))
    assert r.returncode == 2


def test_shuffle_mul(tmp_path):
    out = tmp_path / "m.json"
    r = run_cli("shuffle", "mul", "--left", "0", "--right", "1",
                "--hbar-order", "2", "--out", str(out))
    assert r.returncode == 0
    data = json.loads(out.read_text())
    words = {tuple(t["word"]): t["coeff"] for t in data["terms"]}
    assert words[(0, 1)][0] == "1" and words[(1,)][0] == "1/2"


def test_shuffle_mul_of_long_words_is_golden():
    """stdout of the product of two 3-letter words, byte for byte: every
    block sequence of the deformed word product at lengths (3, 3), the
    degree-6 blocks included."""
    r = run_cli("shuffle", "mul", "--left", "0,1,0", "--right", "1,0,1",
                "--hbar-order", "3")
    assert r.returncode == 0 and r.stderr.startswith("[-1/4](e e e) + ")
    assert r.stdout.encode() == (DATA / "shuffle_mul_010_101.json").read_bytes()


def test_shuffle_mul_reads_the_stored_family_to_the_degree_of_its_words(monkeypatch,
                                                                        capsys):
    """The product of a 2- and a 3-letter word reads the blocks B_pq up
    to p + q = 5, so the stored family is read to degree 5."""
    degrees = []

    def stored(n):
        degrees.append(n)
        return stored_family(n)
    monkeypatch.setattr(bfamily, "stored_family", stored)
    assert cli.main(["shuffle", "mul", "--left", "0,1", "--right", "1,0,1"]) == 0
    assert degrees == [5]
    assert capsys.readouterr().out


def test_shuffle_hopf_check():
    r = run_cli("shuffle", "hopf-check", "--max-degree", "2",
                "--hbar-order", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"] is True


def test_qybe_cohomology():
    r = run_cli("qybe", "cohomology", "--max-n", "2")
    assert r.returncode == 0
    table = {row["N"]: row for row in json.loads(r.stdout)["table"]}
    assert table[1]["dim_H2"] == 1 and table[2]["dim_H2"] == 0
    # the command solves no family, so it takes no --max-degree
    r = run_cli("qybe", "cohomology", "--max-n", "2", "--max-degree", "2")
    assert r.returncode == 2 and "unrecognized arguments: --max-degree" in r.stderr


def test_qybe_cohomology_output_is_golden():
    """stdout of qybe cohomology to N = 3, byte for byte."""
    r = run_cli("qybe", "cohomology", "--max-n", "3")
    assert r.returncode == 0 and r.stderr == "N,dim_H2,dim_H3\n1,1,None\n2,0,0\n3,0,0\n"
    assert r.stdout.encode() == (DATA / "qybe_cohomology_n3.json").read_bytes()


def test_qybe_solve_to_degree_4_is_golden():
    """qybe solve to degree 4 reads the stored family to degree 5, which
    extends to degree 6, so rho_4 exists: exit 0, no stderr, and the rho
    table varrho_1..varrho_4 on stdout, byte for byte."""
    r = run_cli("qybe", "solve", "--max-degree", "4")
    assert r.returncode == 0 and r.stderr == ""
    assert json.loads(r.stdout)["ok"] is True
    assert r.stdout.encode() == (DATA / "qybe_solve_d4.json").read_bytes()


def test_qybe_solve_output_is_golden():
    """qybe solve to degree 3 succeeds: exit 0, no stderr, and the rho
    table varrho_1..varrho_3 on stdout, byte for byte."""
    r = run_cli("qybe", "solve", "--max-degree", "3")
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.encode() == (DATA / "qybe_solve_d3.json").read_bytes()


def test_rmatrix_command():
    r = run_cli("rmatrix", "--max-degree", "2")
    assert r.returncode == 0
    assert "R_2" in r.stderr
    payload = json.loads(r.stdout)
    assert payload["ok"] is True and len(payload["terms"]) == 3


def test_rmatrix_output_is_golden():
    """stdout of rmatrix to degree 3, byte for byte: the raw
    representatives of R_0..R_3 that the lambda table assembles."""
    r = run_cli("rmatrix", "--max-degree", "3")
    assert r.returncode == 0 and r.stderr.startswith("R_0 = ")
    assert r.stdout.encode() == (DATA / "rmatrix_d3.json").read_bytes()


def _assert_input_error(r):
    assert r.returncode == 2, r.stderr
    assert "input error:" in r.stderr and "Traceback" not in r.stderr


def test_negative_letter_index_is_input_error():
    _assert_input_error(run_cli("shuffle", "mul", "--left=-1", "--right", "1"))


@pytest.mark.parametrize("left", ["0,,1", "0,", ",0", ","])
def test_empty_word_index_is_input_error(left):
    """An empty index between, before or after commas is no letter."""
    r = run_cli("shuffle", "mul", "--left", left, "--right", "1")
    _assert_input_error(r)
    assert "input error: word index" in r.stderr


def test_empty_word_option_is_the_empty_word():
    r = run_cli("shuffle", "mul", "--left", "", "--right", "1")
    assert r.returncode == 0, r.stderr
    assert r.stdout == run_cli("shuffle", "mul", "--left", "1", "--right", "").stdout
    assert [t["word"] for t in json.loads(r.stdout)["terms"]] == [[1]]


def test_malformed_bialgebra_is_input_error(tmp_path):
    good = {"dim": 2, "basis": ["h", "e"],
            "bracket": [{"i": 0, "j": 1, "out": [{"k": 1, "c": "1"}]}],
            "cobracket": [{"i": 1, "out": [{"j": 0, "k": 1, "c": "1"},
                                           {"j": 1, "k": 0, "c": "-1"}]}]}
    no_bracket = {k: v for k, v in good.items() if k != "bracket"}
    wrong_type = dict(good, bracket=[{"i": 0, "j": 1, "out": 5}])
    not_cocycle = dict(good, cobracket=[{"i": 1, "out": [{"j": 0, "k": 1, "c": "1"}]}])
    # passes validate_bialgebra: e_2 has no bracket and no cobracket
    k_past_dim = {"dim": 2, "basis": ["x", "y"], "cobracket": [],
                  "bracket": [{"i": 0, "j": 1, "out": [{"k": 2, "c": "1"}]}]}
    short_basis = dict(good, basis=["h"])
    cob_past_dim = dict(good, cobracket=good["cobracket"] + [{"i": 2, "out": []}])
    for n, data in enumerate((no_bracket, wrong_type, not_cocycle, k_past_dim,
                              short_basis, cob_past_dim)):
        f = tmp_path / ("bia%d.json" % n)
        f.write_text(json.dumps(data))
        _assert_input_error(run_cli("shuffle", "mul", "--bialgebra", str(f)))
    f = tmp_path / "good.json"
    f.write_text(json.dumps(good))
    assert run_cli("shuffle", "mul", "--bialgebra", str(f)).returncode == 0


def test_malformed_bfamily_is_input_error(tmp_path):
    good = bfamily.bfamily_to_json(stored_family(3))
    b11 = next(e for e in good["entries"] if (e["p"], e["q"]) == (1, 1))
    gen5 = json.loads(json.dumps(b11))
    gen5["poly"]["terms"][0]["monomial"]["letters"] = [0, 5]
    cases = [dict(good, entries=[gen5]),
             dict(good, max_degree="3"),
             dict(good, entries=good["entries"] + [dict(b11, p=0, q=2)]),
             dict(good, entries=good["entries"] + [dict(b11, p=2, q=2)]),
             dict(good, entries=good["entries"] + [b11])]
    for n, data in enumerate(cases):
        f = tmp_path / ("b%d.json" % n)
        f.write_text(json.dumps(data))
        _assert_input_error(run_cli("bfamily", "check", "--bfamily", str(f)))
        _assert_input_error(run_cli("quantize", "--hbar-order", "1",
                                    "--bfamily", str(f)))


def test_degree_below_two_is_input_error():
    _assert_input_error(run_cli("bfamily", "solve", "--max-degree", "1"))
    _assert_input_error(run_cli("shuffle", "hopf-check", "--max-degree", "1"))


@pytest.mark.parametrize("argv", [
    ["shuffle", "mul", "--left", "0,1,0,1", "--right", "1,0,1"],
    ["shuffle", "hopf-check", "--max-degree", "7"],
    ["rmatrix", "--max-degree", "7"],
    ["qybe", "solve", "--max-degree", "6"],
    ["quantize", "--hbar-order", "6"]], ids=" ".join)
def test_family_past_the_stored_degree_is_input_error(argv):
    """Each of these reads the family to degree 7, one past the stored
    family: exit 2 with one line naming both degrees, before any work."""
    r = run_cli(*argv)
    _assert_input_error(r)
    assert r.stderr == ("input error: B-family: degree 7 is above 6, "
                        "the degree of the stored family\n")


def test_malformed_lam_is_input_error():
    # --gauge paper3 is the default, and it needs lam = 1/2
    for lam in ("abc", "1/0", "0"):
        r = run_cli("bfamily", "solve", "--lam", lam)
        _assert_input_error(r)
        assert r.stderr.count("\n") == 1, r.stderr


def test_out_of_range_flags_are_input_errors():
    _assert_input_error(run_cli("quantize", "--hbar-order", "-1"))
    _assert_input_error(run_cli("quantize", "--hbar-order", "0"))
    _assert_input_error(run_cli("shuffle", "mul", "--left", "0,1", "--right", "1",
                                "--hbar-order", "-2"))
    _assert_input_error(run_cli("shuffle", "hopf-check", "--hbar-order", "-1"))
    _assert_input_error(run_cli("cbh", "--max-degree", "0"))
    _assert_input_error(run_cli("rmatrix", "--max-degree", "-1"))
    _assert_input_error(run_cli("qybe", "solve", "--max-degree", "0"))
    _assert_input_error(run_cli("qybe", "cohomology", "--max-n", "0"))
    _assert_input_error(run_cli("qybe", "cohomology", "--max-n", "-2"))
    _assert_input_error(run_cli("cybe-props", "--trials", "0"))
    _assert_input_error(run_cli("cybe-props", "--trials", "-1"))


@pytest.mark.parametrize("bialgebra, order, golden", [
    pytest.param("borel2", 2, "quantize_borel2_h2.json", id="2"),
    pytest.param("borel2", 3, "quantize_borel2_h3.json", id="3"),
    pytest.param(str(DATA / "borel2_scaled.json"), 2, "quantize_borel2_scaled_h2.json",
                 id="scaled-2"),
    pytest.param(str(DATA / "sl2.json"), 2, "quantize_sl2_h2.json", id="sl2-2"),
    pytest.param("borel2", 4, "quantize_borel2_h4.json", id="4"),
    pytest.param(str(DATA / "sl2.json"), 3, "quantize_sl2_h3.json", id="sl2-3")])
def test_quantize_output_is_golden(bialgebra, order, golden):
    """stdout of quantize, byte for byte.  The stored rho to degree
    m = min(order + 1, 4) makes the relations exact to hbar^3 at orders 3
    and 4, over the stored family read to degree max(order, m) + 1.
    borel2_scaled is
    borel2 in the basis (2h, -e/2), so its structure constants are 2 and
    1/2 rather than 1.  sl2 ([e,f] = h, [e,h] = -2e, [f,h] = 2f, delta(e) =
    h^e, delta(f) = h^f) brackets every pair of its basis elements, so
    kappa's letter evaluation meets every structure constant."""
    r = run_cli("quantize", "--bialgebra", bialgebra, "--hbar-order", str(order))
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.encode() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("exc, message", [
    (Obstructed(5), "qybe solve: obstructed at degree 5"),
    (NonUnique(4), "qybe solve: solution not unique at degree 4"),
    (Obstructed(3, "image", (((((0, 0),),), (((0, 1),),), ()), Fraction(-2))),
     "qybe solve: obstructed at degree 3 (image: ((((0, 0),),), (((0, 1),),), ()) = -2)")])
def test_qybe_solve_reports_obstruction(monkeypatch, capsys, exc, message):
    def solve(bfam, n):
        raise exc
    monkeypatch.setattr(universal, "solve_varrho", solve)
    assert cli.main(["qybe", "solve", "--max-degree", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"


def test_bfamily_solve_reports_obstruction(monkeypatch, capsys):
    def solve(lam, n, gauge):
        raise Obstructed(4, "assoc", ((1, 1, 2, (0, 1, 2, 3)), Fraction(1)))
    monkeypatch.setattr(bfamily, "solve_bfamily", solve)
    assert cli.main(["bfamily", "solve", "--max-degree", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "bfamily solve: obstructed at degree 4 (assoc: (1, 1, 2, (0, 1, 2, 3)) = 1)\n")


# the options each leaf command reads besides --out: the CLI's spec,
# written out here rather than read from cli
OPTIONS_READ = {
    ("cbh",): ["--max-degree"],
    ("bfamily", "solve"): ["--max-degree", "--gauge", "--lam"],
    ("bfamily", "check"): ["--bfamily"],
    ("shuffle", "mul"): ["--hbar-order", "--bialgebra", "--left", "--right"],
    ("shuffle", "hopf-check"): ["--max-degree", "--hbar-order", "--bialgebra"],
    ("rmatrix",): ["--max-degree"],
    ("qybe", "solve"): ["--max-degree"],
    ("qybe", "cohomology"): ["--max-n"],
    ("quantize",): ["--hbar-order", "--bialgebra", "--bfamily"],
    ("cybe-props",): ["--algebra", "--trials", "--seed"],
}
VALUES = {"--out": "o.json", "--max-degree": "2", "--hbar-order": "1",
          "--gauge": "rref-zero", "--lam": "1/3", "--bfamily": "f.json",
          "--bialgebra": "abelian2", "--left": "0,1", "--right": "1",
          "--max-n": "2", "--algebra": "m3", "--trials": "2", "--seed": "11"}


@pytest.mark.parametrize("leaf", sorted(OPTIONS_READ), ids=" ".join)
def test_each_command_declares_exactly_the_options_it_reads(leaf, capsys):
    read = ["--out"] + OPTIONS_READ[leaf]
    argv = list(leaf) + [a for opt in read for a in (opt, VALUES[opt])]
    args = cli.parse_args(argv)
    given = {k: str(v) for k, v in vars(args).items()
             if k not in ("fn", "command", "action")}
    assert given == {opt[2:].replace("-", "_"): VALUES[opt] for opt in read}
    for opt in sorted(set(VALUES) - set(read)):
        with pytest.raises(SystemExit) as e:
            cli.main(list(leaf) + [opt, VALUES[opt]])
        assert e.value.code == 2
        assert "unrecognized arguments: " + opt in capsys.readouterr().err


@pytest.mark.parametrize("leaf", sorted(OPTIONS_READ), ids=" ".join)
def test_options_are_not_abbreviated(leaf, capsys):
    """Every prefix of a declared option (cbh --max, cybe-props --tri) is
    an unrecognized argument, not an abbreviation."""
    read = ["--out"] + OPTIONS_READ[leaf]
    for opt in read:
        for prefix in (opt[:n] for n in range(3, len(opt))):
            assert prefix not in read
            with pytest.raises(SystemExit) as e:
                cli.main(list(leaf) + [prefix, VALUES[opt]])
            assert e.value.code == 2
            assert "unrecognized arguments: " + prefix in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["qybe"], "the following arguments are required: action"),
    (["qybe", "nope"], "argument action: invalid choice: 'nope'"),
    (["qybe", "cohomology", "--max-n"], "argument --max-n: expected one argument"),
    (["qybe", "cohomology", "--max-n", "--out", "o.json"],
     "argument --max-n: expected one argument"),
    (["qybe", "cohomology", "--max-n", "x"], "argument --max-n: invalid int value: 'x'"),
    (["qybe", "cohomology", "--max-n=x"], "argument --max-n: invalid int value: 'x'"),
    (["bfamily", "solve", "--gauge", "x"], "argument --gauge: invalid choice: 'x'"),
    (["cbh", "foo", "--max-degree", "2"], "unrecognized arguments: foo"),
    (["nope"], "argument command: invalid choice: 'nope'"),
], ids=lambda v: " ".join(v) or "empty" if isinstance(v, list) else None)
def test_usage_errors_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("usage: liequant") and "error: " + message in err


def _parsed(monkeypatch, leaf, *argv):
    """The attributes, besides fn, that main hands the command LEAF."""
    seen = []
    monkeypatch.setitem(cli.COMMANDS, leaf, (seen.append, cli.COMMANDS[leaf][1]))
    cli.main(leaf.split() + list(argv))
    return {k: v for k, v in vars(seen.pop()).items() if k != "fn"}


def test_option_spellings_and_repeats_parse_alike(monkeypatch):
    def parsed(*argv):
        return _parsed(monkeypatch, "qybe cohomology", *argv)
    assert parsed("--max-n=2") == parsed("--max-n", "2") != parsed()
    assert parsed("--max-n", "1", "--max-n=2") == parsed("--max-n", "2")
    assert parsed("--out=a=b")["out"] == "a=b"
    # a value may start with one dash: the command, not the parser, rejects it
    assert _parsed(monkeypatch, "quantize", "--hbar-order", "-1")["hbar_order"] == -1


@pytest.mark.parametrize("leaf", [()] + sorted(OPTIONS_READ), ids=lambda v: " ".join(v) or "top")
def test_help_names_the_options_of_its_command(leaf, capsys):
    # after a leaf, -h is read wherever an option may stand
    argv = list(leaf) + (["--out", "o.json"] if leaf else [])
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as e:
            cli.main(argv + [flag])
        assert e.value.code == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: liequant")
        if leaf:
            named = set(re.findall(r"--[a-z][a-z-]*", out)) - {"--help"}
            assert named == {"--out", *OPTIONS_READ[leaf]}
        else:
            for name in {key[0] for key in OPTIONS_READ}:
                assert name in out


def test_parsing_imports_no_argparse():
    code = ("import sys; from liequant import cli; rc = cli.main(%r); "
            "print(rc, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
            % ["qybe", "cohomology", "--max-n", "1"])
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 []"


def test_unwritable_out_is_input_error(tmp_path):
    path = tmp_path / "missing" / "x.json"
    r = run_cli("cbh", "--max-degree", "2", "--out", str(path))
    _assert_input_error(r)
    assert r.stderr.count("\n") == 1 and "--out (%s): " % path in r.stderr
    assert not path.exists()


def test_closed_stdout_exits_without_traceback():
    p = subprocess.Popen([sys.executable, "-m", "liequant.cli", "cbh", "--max-degree", "3"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    p.stdout.close()     # before the command writes: every write fails
    _, err = p.communicate(timeout=60)
    assert p.returncode == cli.CLOSED_STDOUT
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert "B_CBH[1,1] = 1/2*[x1,x2]" in err


def test_seed_belongs_to_cybe_props():
    r = run_cli("--seed", "7", "cybe-props")
    assert r.returncode == 2 and "Traceback" not in r.stderr
    r1, r2 = (run_cli("cybe-props", "--trials", "3", "--seed", "7") for _ in range(2))
    assert r1.returncode == 0 and (r1.stdout, r1.stderr) == (r2.stdout, r2.stderr)


def test_cybe_props_runs_on_m3():
    r = run_cli("cybe-props", "--algebra", "m3", "--trials", "3", "--seed", "7")
    assert r.returncode == 0 and json.loads(r.stdout) == {
        "aryeh_failures": 0, "half_square_solves_order3": True, "trials": 3}


def test_bfamily_check_without_family_is_input_error():
    _assert_input_error(run_cli("bfamily", "check"))


def test_quantize_rejects_non_associative_family(tmp_path):
    data = bfamily.bfamily_to_json(stored_family(3))
    for e in data["entries"]:
        if (e["p"], e["q"]) == (2, 1):
            for t in e["poly"]["terms"]:
                t["coeff"] = "5"
    f = tmp_path / "b.json"
    f.write_text(json.dumps(data))
    r = run_cli("quantize", "--hbar-order", "1", "--bfamily", str(f))
    _assert_input_error(r)
    assert "not associative at (p, q, r) = (1, 1, 1)" in r.stderr


def test_quantize_rejects_too_short_family(tmp_path):
    """A family below the depth quantize reads, max(order, m) + 1 for rho
    to degree m = min(order + 1, 4), is an input error naming both
    degrees, not an obstruction of the universal system; one degree
    deeper runs."""
    def run(degree):
        f = tmp_path / ("b%d.json" % degree)
        f.write_text(json.dumps(bfamily.bfamily_to_json(stored_family(degree))))
        return run_cli("quantize", "--hbar-order", "2", "--bfamily", str(f))

    r = run(3)
    _assert_input_error(r)
    assert "max_degree 3 is below 4" in r.stderr and "obstructed" not in r.stderr
    assert run(4).returncode == 0


@pytest.mark.parametrize("exc, message", [
    (Obstructed(3), "quantize: obstructed at degree 3"),
    (NonUnique(2), "quantize: solution not unique at degree 2")])
def test_quantize_reports_obstruction(monkeypatch, capsys, tmp_path, exc, message):
    """Only a --bfamily family has its universal system solved; the
    stored family's rho is read."""
    f = tmp_path / "b3.json"
    f.write_text(json.dumps(bfamily.bfamily_to_json(stored_family(3))))

    def solve(bfam, n):
        raise exc
    monkeypatch.setattr(universal, "solve_varrho", solve)
    assert cli.main(["quantize", "--hbar-order", "1", "--bfamily", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"
