import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liequant import bfamily, cli, universal
from liequant.bfamily import Obstructed
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
                "--max-degree", "3", "--hbar-order", "2", "--out", str(out))
    assert r.returncode == 0
    data = json.loads(out.read_text())
    words = {tuple(t["word"]): t["coeff"] for t in data["terms"]}
    assert words[(0, 1)][0] == "1" and words[(1,)][0] == "1/2"


def test_shuffle_hopf_check():
    r = run_cli("shuffle", "hopf-check", "--max-degree", "2",
                "--hbar-order", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"] is True


def test_qybe_cohomology():
    r = run_cli("qybe", "cohomology", "--max-n", "2", "--max-degree", "2")
    assert r.returncode == 0
    table = {row["N"]: row for row in json.loads(r.stdout)["table"]}
    assert table[1]["dim_H2"] == 1 and table[2]["dim_H2"] == 0


def test_rmatrix_command():
    r = run_cli("rmatrix", "--max-degree", "2")
    assert r.returncode == 0
    assert "R_2" in r.stderr
    payload = json.loads(r.stdout)
    assert payload["ok"] is True and len(payload["terms"]) == 3


def _assert_input_error(r):
    assert r.returncode == 2, r.stderr
    assert "input error:" in r.stderr and "Traceback" not in r.stderr


def test_negative_letter_index_is_input_error():
    _assert_input_error(run_cli("shuffle", "mul", "--left=-1", "--right", "1"))


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
    good = bfamily.bfamily_to_json(bfamily.solve_bfamily(Fraction(1, 2), 3, "paper3"))
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
    _assert_input_error(run_cli("shuffle", "mul", "--max-degree", "1"))


def test_out_of_range_flags_are_input_errors():
    _assert_input_error(run_cli("quantize", "--hbar-order", "-1"))
    _assert_input_error(run_cli("quantize", "--hbar-order", "0"))
    _assert_input_error(run_cli("shuffle", "mul", "--left", "0,1", "--right", "1",
                                "--hbar-order", "-2"))
    _assert_input_error(run_cli("shuffle", "hopf-check", "--hbar-order", "-1"))
    _assert_input_error(run_cli("cbh", "--max-degree", "0"))
    _assert_input_error(run_cli("rmatrix", "--max-degree", "-1"))
    _assert_input_error(run_cli("qybe", "cohomology", "--max-n", "0"))
    _assert_input_error(run_cli("qybe", "cohomology", "--max-n", "-2"))
    _assert_input_error(run_cli("cybe-props", "--trials", "0"))
    _assert_input_error(run_cli("cybe-props", "--trials", "-1"))


@pytest.mark.parametrize("bialgebra, order, golden", [
    pytest.param("borel2", 2, "quantize_borel2_h2.json", id="2"),
    pytest.param("borel2", 3, "quantize_borel2_h3.json", id="3"),
    pytest.param(str(DATA / "borel2_scaled.json"), 2, "quantize_borel2_scaled_h2.json",
                 id="scaled-2")])
def test_quantize_output_is_golden(bialgebra, order, golden):
    """stdout of quantize, byte for byte.  At order 3 the relations stop
    at hbar^2, the order that rho to degree 3 supports.  borel2_scaled is
    borel2 in the basis (2h, -e/2), so its structure constants are 2 and
    1/2 rather than 1."""
    r = run_cli("quantize", "--bialgebra", bialgebra, "--hbar-order", str(order))
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.encode() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("exc, message", [
    (Obstructed(5), "qybe solve: obstructed at degree 5"),
    (NonUnique(4), "qybe solve: solution not unique at degree 4")])
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
    assert out == "" and err == "bfamily solve: obstructed at degree 4\n"
