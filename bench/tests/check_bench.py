"""Checks of the benchmark itself: tracer, input generator, output checks.

Not part of the library's test suite (the file name keeps pytest's
default collection away from it).  Run from the repository root:

    python3 -m pytest -q bench/tests/check_bench.py

The last check runs every workload once under the tracer (about half
a minute); deselect it with -k 'not every_entry'.
"""

import json
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from liequant import liealg  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def test_traced_stdout_is_byte_identical(workdir):
    argv = ["quantize", "--hbar-order", "1"]
    plain = run.Job(workdir, "--plain", argv)
    traced = run.Job(workdir, "--trace", argv)
    assert plain.rc == traced.rc == 0
    assert plain.stdout and traced.stdout == plain.stdout
    assert traced["trace"]["absent"] == []


def test_self_times_sum_to_at_most_main(workdir):
    job = run.Job(workdir, "--trace", ["quantize", "--hbar-order", "1"])
    rep = job["trace"]
    total_self = sum(s["self_s"] for s in rep["stats"].values())
    main = rep["metrics"]["cli.main.s"]
    assert 0 < total_self <= main
    spans = rep["spans"]
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    ids = {s["id"] for s in spans}
    assert all(s["parent"] in ids for s in spans[1:])


def test_install_patches_every_namespace_and_alias():
    import liequant.cli  # noqa: F401  loads every module
    from liequant import quantize, scalars, shuffle, unitensor, universal
    original = shuffle.sh_mul
    t = tracer.Tracer().install()
    try:
        # `from .shuffle import sh_mul` copies the name into quantize
        assert quantize.sh_mul is shuffle.sh_mul is not original
        assert universal.canonical is unitensor.canonical
        assert unitensor.canonical.__wrapped__ is not None
        h = scalars.HSeries
        assert h.__rmul__ is h.__mul__ and h.__radd__ is h.__add__
        assert h.__mul__.__wrapped__ is not None
        x = h([1, 2], 2)
        assert 3 * x == x * 3 and 1 + x == x + 1
    finally:
        t.uninstall()
    assert shuffle.sh_mul is original and quantize.sh_mul is original
    assert not hasattr(scalars.HSeries.__mul__, "__wrapped__")


def test_missing_entry_is_absent_not_an_error():
    entries = tracer.ENTRIES + [("shuffle", "no_such_function", "shuffle.gone", tracer.HOT, {}),
                                ("nosuchmodule", "f", "nosuch.f", tracer.HOT, {})]
    t = tracer.Tracer(entries).install()
    try:
        rep = t.report()
    finally:
        t.uninstall()
    assert rep["absent"] == ["shuffle.no_such_function", "nosuchmodule.f"]
    assert "cli.main.s" in rep["metrics"]


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(tracer.METRICS) | {"cli.cpu_s", "trace.overhead_ratio"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_metronome_scales_to_reference_speed(workdir):
    metronome = run.Metronome(workdir)
    time.sleep(1)
    units = metronome.stop()
    assert metronome.proc.returncode == 0 and len(units) > 3
    t0, t1 = units[0][0], units[-1][0]
    mean = sum(c for _, c in units) / len(units)
    # a CPU time of three units reads as three reference units
    assert run.at_reference_speed(3 * mean, t0, t1, units) == pytest.approx(3 * run.REF_UNIT_S)
    assert run.at_reference_speed(1.0, t1 + 1, t1 + 2, units) is None


def test_generator_seed0_and_validity():
    for kind in ("borel2", "sl2"):
        assert run.rescaled_json(kind, 0) == liealg.bialgebra_to_json(run.base_bialgebra(kind))
        seen = set()
        for seed in range(1, 30):
            d = run.rescaled_json(kind, seed)
            assert run.rescaled_json(kind, seed) == d
            assert liealg.validate_bialgebra(liealg.bialgebra_from_json(d)) == []
            seen.add(json.dumps(d, sort_keys=True))
        assert len(seen) > 5


def test_checks_reject_wrong_outputs(workdir):
    inp = run.write_bialgebra("borel2", 3, os.path.join(workdir, "b.json"))
    job = run.Job(workdir, "--plain", ["quantize", "--bialgebra",
                                       os.path.join(workdir, "b.json"), "--hbar-order", "1"])
    out = json.loads(job.stdout)
    assert run.check_quantize(out, inp) == []
    rel = out["relations"]["0,1"]
    rel["(1,)"] = ["7"] + rel["(1,)"][1:]
    assert run.check_quantize(out, inp)
    out["qybe_ok"] = False
    assert any("qybe_ok" in p for p in run.check_quantize(out, inp))

    assert run.check_cohomology({"table": [{"N": 1, "dim_H2": 1, "dim_H3": None}]}, None) == []
    assert run.check_cohomology({"table": [{"N": 1, "dim_H2": 0, "dim_H3": None}]}, None)
    assert run.h3_matches_paper({"table": [{"N": 2, "dim_H2": 0, "dim_H3": 2}]})
    assert not run.h3_matches_paper({"table": [{"N": 2, "dim_H2": 0, "dim_H3": 0}]})

    assert run.check_hopf({"ok": True, "failures": []}, None) == []
    assert run.check_hopf({"ok": False, "failures": [["associativity", "x"]]}, None)


# stat keys whose entry must be called on the workload named, following
# the layer table in bench/README.md
CALLED_ON = {
    "quantize-h2": [
        "scalars.HSeries", "scalars.HSeries.init", "shuffle.ShTensor.mul",
        "shuffle.sh_mul", "shuffle.word_mul", "shuffle.sh_comul",
        "unitensor.canonical", "unitensor.u_mul", "unitensor.instantiate_tensor",
        "universal.phi_N.N3", "universal.phi_N.N4", "universal.solve_varrho",
        "rmatrix.lambda_table", "rmatrix.LambdaTable.init",
        "liealg.build_double", "liealg.bialgebra_from_json",
        "quantize.Quantization.init", "quantize.check_qybe",
        "quantize.extract_relations", "quantize.ell", "quantize.semiclassical_check",
        "cli.main"],
    "hopf-sl2": [
        "scalars.HSeries", "scalars.HSeries.init", "shuffle.ShTensor.mul",
        "shuffle.sh_mul", "shuffle.word_mul", "shuffle.sh_antipode",
        "shuffle.sh_comul", "shuffle.hopf_report", "cli.main"],
    "cohomology-n3": [
        "unitensor.canonical", "universal.cohomology_dims", "universal.delta3",
        "universal.delta4", "universal.normal_order", "universal.basis_F",
        "universal.basis_F3lie", "linalg.rref", "linalg.nullspace",
        "freealg.lie_bracket", "freealg.substitute", "freealg.AssocPoly.mul",
        "bfamily.solve_bfamily", "bfamily.assoc_residual", "bfamily.BFamily.eval",
        "cli.main"],
}


@pytest.mark.parametrize("name", sorted(CALLED_ON))
def test_every_entry_called_on_its_workload(name, workdir):
    spec = run.WORKLOADS[name]
    argv = list(spec["argv"])
    if spec["input"]:
        path = os.path.join(workdir, "in.json")
        run.write_bialgebra(spec["input"], 1, path)
        argv = [path if a == "{input}" else a for a in argv]
    job = run.Job(workdir, "--trace", argv)
    assert job.rc == 0
    stats = job["trace"]["stats"]
    assert [k for k in CALLED_ON[name] if not stats[k]["calls"]] == []
    m = job["trace"]["metrics"]
    # the valuation skip of ROADMAP item 1 has work on quantize and none on hopf
    if name == "quantize-h2":
        assert m["shuffle.ShTensor.mul.past_order_ratio"] > 0.5
    if name == "hopf-sl2":
        assert m["shuffle.ShTensor.mul.past_order_ratio"] == 0
        assert m["scalars.mul.truncated_ratio"] == 0
