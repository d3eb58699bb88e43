"""liequant benchmark: CLI jobs in fresh single-threaded worker processes.

Usage (from the repository root):

    python3 bench/run.py --workload quantize-h2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 5

Each workload is one `liequant` CLI command.  A run spawns workers one
at a time, never in parallel: first a warm-up import, then jobs back
to back until --seconds have passed, with import-only workers (setup
time) in between.  The run is pinned to one CPU, which the workers
share with the metronome (bench/reference.py); each job's and spawn's
CPU time is reported at reference speed (see REF_UNIT_S).  With
--trace 1 an untraced and a traced job (bench/tracer.py) follow,
without the metronome; the traced one gives the per-layer metrics.
Every job's output is checked (see the check_* functions) and compared
byte for byte with the run's first output.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  The lines before it print the
metrics by name and unit, the fail ratio, the checks and a record of
the machine and run.  BENCHMARK.json documents workloads and metrics.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
BUILD = os.path.join(ROOT, ".bench_build", "liequant")

# import-only workers take about this share of the time spent in jobs
SETUP_SHARE = 0.25
# Times are reported at reference speed: a CPU time t measured while the
# metronome's units took u each on average is reported as t * REF_UNIT_S / u.
# REF_UNIT_S is roughly a unit's CPU time on a 2-vCPU Intel Xeon VM with
# Python 3.11; it only sets the scale and must never change.
REF_UNIT_S = 0.03
JOB_TIMEOUT_S = 150
# the scale factors a seed draws from for the diagonal basis rescaling
SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
          Fraction(1, 2), Fraction(-1, 2))


# ---------------------------------------------------------------------------
# seeded inputs: diagonal rescalings of the built-in bialgebras
# ---------------------------------------------------------------------------

def _liealg():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from liequant import liealg
    return liealg


def base_bialgebra(kind):
    """The built-in structure: borel2() or sl2() with zero cobracket."""
    liealg = _liealg()
    if kind == "borel2":
        return liealg.borel2()
    return liealg.LieBialgebra(liealg.sl2(), {})


def rescaled_json(kind, seed):
    """Bialgebra JSON of e'_i = s_i e_i, the scales s_i drawn from seed.

    [e'_i, e'_j] = sum (s_i s_j / s_k) c_ij^k e'_k and
    delta(e'_i) = sum (s_i / (s_j s_k)) c_i^jk e'_j x e'_k: an isomorphic
    bialgebra.  Seed 0 keeps every scale at 1.
    """
    base = _liealg().bialgebra_to_json(base_bialgebra(kind))
    rng = random.Random(seed)
    s = [Fraction(1) if seed == 0 else rng.choice(SCALES) for _ in range(base["dim"])]
    return {
        "dim": base["dim"],
        "basis": base["basis"],
        "bracket": [{"i": e["i"], "j": e["j"],
                     "out": [{"k": o["k"],
                              "c": str(Fraction(o["c"]) * s[e["i"]] * s[e["j"]] / s[o["k"]])}
                             for o in e["out"]]}
                    for e in base["bracket"]],
        "cobracket": [{"i": e["i"],
                       "out": [{"j": o["j"], "k": o["k"],
                                "c": str(Fraction(o["c"]) * s[e["i"]] / (s[o["j"]] * s[o["k"]]))}
                               for o in e["out"]]}
                      for e in base["cobracket"]],
    }


def write_bialgebra(kind, seed, path):
    """Generate, validate and write the input; the CLI's loader does not
    validate, so a broken input must be caught here."""
    liealg = _liealg()
    if rescaled_json(kind, 0) != liealg.bialgebra_to_json(base_bialgebra(kind)):
        raise RuntimeError("seed 0 must reproduce the built-in %s" % kind)
    d = rescaled_json(kind, seed)
    bad = liealg.validate_bialgebra(liealg.bialgebra_from_json(d))
    if bad:
        raise RuntimeError("generated %s (seed %d) is not a bialgebra: %s" % (kind, seed, bad))
    with open(path, "w") as fh:
        json.dump(d, fh)
    return d


# ---------------------------------------------------------------------------
# correctness checks, against values computed here from the inputs
# ---------------------------------------------------------------------------

def check_quantize(out, inp):
    """qybe_ok and semiclassical_ok, and every relation's hbar^0 part is
    e_j e_i - e_i e_j - [e_i, e_j] from the generated constants."""
    problems = []
    if out.get("qybe_ok") is not True:
        problems.append("qybe_ok is not true")
    if out.get("semiclassical_ok") is not True:
        problems.append("semiclassical_ok is not true")
    d = inp["dim"]
    bracket = {(e["i"], e["j"]): {o["k"]: Fraction(o["c"]) for o in e["out"]}
               for e in inp["bracket"]}
    rels = out.get("relations", {})
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            want = {(j, i): Fraction(1), (i, j): Fraction(-1)}
            br = dict(bracket.get((i, j), {}))
            for k, c in bracket.get((j, i), {}).items():
                br[k] = br.get(k, 0) - c
            for k, c in br.items():
                want[(k,)] = want.get((k,), 0) - c
            want = {w: c for w, c in want.items() if c}
            got = {}
            for w, coeffs in rels.get("%d,%d" % (i, j), {}).items():
                c0 = Fraction(coeffs[0])
                if c0:
                    got[ast.literal_eval(w)] = c0
            if got != want:
                problems.append("relation %d,%d at hbar^0: %s != %s" % (i, j, got, want))
    return problems


# H2 and H3 per N = 1..4 as in the paper (H3 starts at N = 2)
PAPER_H2 = (1, 0, 0, 0)
PAPER_H3 = (2, 0, 0)


def check_cohomology(out, inp):
    rows = out.get("table", [])
    h2 = tuple(r["dim_H2"] for r in rows)
    if h2 != PAPER_H2[:len(rows)] or not rows:
        return ["H2 = %s, expected %s" % (h2, PAPER_H2[:len(rows)])]
    return []


def h3_matches_paper(out):
    h3 = tuple(r["dim_H3"] for r in out["table"] if r["N"] >= 2)
    return h3 == PAPER_H3[:len(h3)]


def check_hopf(out, inp):
    if out.get("ok") is not True or out.get("failures"):
        return ["hopf-check failed: %s" % out.get("failures")]
    return []


WORKLOADS = {
    "quantize-h2": {
        "argv": ["quantize", "--bialgebra", "{input}", "--hbar-order", "2"],
        "input": "borel2", "check": check_quantize},
    "cohomology-n3": {
        "argv": ["qybe", "cohomology", "--max-n", "3"],
        "input": None, "check": check_cohomology,
        # recorded in every result, never counted as a failure
        "known_failure": h3_matches_paper},
    "hopf-sl2": {
        "argv": ["shuffle", "hopf-check", "--bialgebra", "{input}",
                 "--max-degree", "3", "--hbar-order", "3"],
        "input": "sl2", "check": check_hopf},
}


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

class Job:
    """One worker process: spawn, wait, read its measurements."""

    def __init__(self, workdir, mode, argv=()):
        result_path = os.path.join(workdir, "worker.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        # bytecode caching on, as for an installed CLI: the warm-up worker
        # writes the .pyc files that every later import reads
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        cmd = [sys.executable, WORKER, SRC, result_path, mode] + list(argv)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  timeout=JOB_TIMEOUT_S)
            self.rc, self.stdout, self.stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as e:
            self.rc, self.stdout, self.stderr = -1, e.stdout or b"", b"timeout"
        try:
            with open(result_path) as fh:
                self.result = json.load(fh)
        except (OSError, ValueError):
            self.result = {}

    def __getitem__(self, key):
        return self.result.get(key)


class Metronome:
    """The reference process (reference.py), on the same CPU as the workers."""

    def __init__(self, workdir):
        self.path = os.path.join(workdir, "metronome.json")
        self.proc = subprocess.Popen([sys.executable, REFERENCE, self.path], cwd=ROOT)

    def stop(self):
        """Stop it and wait for it; return its (end time, CPU time) per unit."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        with open(self.path) as fh:
            return json.load(fh)


def at_reference_speed(cpu_s, t0, t1, units):
    """cpu_s, measured from t0 to t1, scaled by the units that ended then."""
    u = [c for t, c in units if t0 <= t <= t1]
    return cpu_s * REF_UNIT_S * len(u) / sum(u) if u else None


def _median(xs):
    return statistics.median(xs) if xs else None


def high_percentile(xs):
    """(p, value): the highest percentile with >= 10 samples beyond it."""
    n = len(xs)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(xs)[n - 11]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    # this process, the workers and the metronome share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(BUILD, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (name, seed), dir=BUILD)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "cpu": _cpu_model(), "loadavg_start": os.getloadavg(),
              "cpu_pinned": max(os.sched_getaffinity(0)),
              "execution": "one job at a time, each in a fresh single-threaded worker, "
                           "on one CPU shared with the metronome (reference.py)"}
    try:
        inp = None
        argv = list(spec["argv"])
        if spec["input"]:
            path = os.path.join(workdir, "bialgebra.json")
            inp = write_bialgebra(spec["input"], seed, path)
            argv = [path if a == "{input}" else a for a in argv]
        else:
            record["seed_note"] = "no free input: the seed is recorded and ignored"

        Job(workdir, "--import-only")   # warm-up: byte-compiles the sources

        attempted = failed = 0
        problems = []
        first = None
        # (start, end, CPU seconds) of each checked job, and of each batch
        # of spawns between jobs with the CPU seconds of every spawn
        jobs, batches, rss, h3 = [], [], [], None

        def check(stdout):
            nonlocal h3
            try:
                out = json.loads(stdout)
            except ValueError as e:
                return ["stdout is not JSON: %s" % e]
            bad = spec["check"](out, inp)
            if "known_failure" in spec and not bad:
                h3 = spec["known_failure"](out)
            return bad

        def account(job, traced):
            """Count the job; False when it failed (exit code, check, output)."""
            nonlocal attempted, failed, first
            attempted += 1
            if job.rc != 0:
                bad = ["exit code %s: %s" % (job.rc, job.stderr.decode()[-500:])]
            elif first is None or job.stdout == first[0]:
                if first is None:
                    first = (job.stdout, check(job.stdout))
                bad = first[1]
            else:
                bad = ["%s stdout differs from the run's first output"
                       % ("traced" if traced else "untraced")]
            if bad:
                failed += 1
                problems.extend(p for p in bad if p not in problems)
            return not bad

        def clock():
            return time.clock_gettime(time.CLOCK_MONOTONIC)   # as in reference.py

        start = clock()
        metronome = Metronome(workdir)
        try:
            while True:
                t0 = clock()
                job = Job(workdir, "--plain", argv)
                t1 = clock()
                if account(job, False):
                    jobs.append((t0, t1, job["cpu_s"]))
                    rss.append(job["maxrss_kb"] / 1024)
                batch = []
                while len(batch) < 2 or clock() - t1 < SETUP_SHARE * (t1 - t0):
                    batch.append(Job(workdir, "--import-only")["setup_cpu_s"])
                batches.append((t1, clock(), batch))
                if job.rc == -1 or clock() - start >= seconds:
                    break
        finally:
            units = metronome.stop()
        scaled = [at_reference_speed(c, t0, t1, units) for t0, t1, c in jobs]
        setups = [at_reference_speed(c, t0, t1, units)
                  for t0, t1, batch in batches for c in batch if c is not None]
        scaled = [x for x in scaled if x is not None]
        setups = [x for x in setups if x is not None]
        layer = None
        if trace:
            # without the metronome: an untraced job, then the traced one
            plain = Job(workdir, "--plain", argv)
            job = Job(workdir, "--trace", argv)
            plain_ok = account(plain, False)
            if account(job, True) and plain_ok and job["trace"]:
                layer = dict(job["trace"]["metrics"])
                layer["cli.cpu_s"] = job["cpu_s"]
                layer["trace.overhead_ratio"] = layer["cli.main.s"] / plain["wall_s"]
                record["trace_absent"] = job["trace"]["absent"]
                # spans and raw stats of the traced job, kept after the run
                record["trace_file"] = os.path.relpath(
                    os.path.join(BUILD, "trace-%s-%d.json" % (name, seed)), ROOT)
                with open(os.path.join(ROOT, record["trace_file"]), "w") as fh:
                    json.dump(job["trace"], fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update({"loadavg_end": os.getloadavg(), "jobs": attempted,
                   "job_samples": len(scaled), "setup_samples": len(setups),
                   "reference_units": len(units)})
    if h3 is not None:
        record["h3_matches_paper"] = h3
    e2e = {}
    if scaled and setups:
        e2e["job_cpu_ref_s"] = (_median(scaled), "s", "median of %d jobs" % len(scaled))
        e2e["setup_s"] = (_median(setups), "s", "median of %d spawns" % len(setups))
        e2e["peak_rss_mb"] = (_median(rss), "MB", "median of %d jobs" % len(rss))
    return {"record": record, "e2e": e2e, "scaled": scaled, "layer": layer,
            "attempted": attempted, "failed": failed, "problems": problems}


def report(res, trace):
    rec = res["record"]
    print("workload %s  seed %d  %s" % (rec["workload"], rec["seed"], rec["execution"]))
    for metric, (value, unit, how) in res["e2e"].items():
        print("  %-14s %12.6f %-3s %s" % (metric, value, unit, how))
    hp = high_percentile(res["scaled"])
    if hp:
        print("  %-14s %12.6f %-3s 10 jobs beyond it"
              % ("job_cpu_ref_s p%d" % hp[0], hp[1], "s"))
    print("  fail_ratio   %d/%d = %.4f" % (res["failed"], res["attempted"],
                                          res["failed"] / max(res["attempted"], 1)))
    if "h3_matches_paper" in rec:
        print("  h3_matches_paper %s  (known failure, ROADMAP item 3; not counted as failed)"
              % str(rec["h3_matches_paper"]).lower())
    for p in res["problems"]:
        print("  FAILED CHECK: %s" % p)
    if trace and res["layer"]:
        for k, v in sorted(res["layer"].items()):
            print("  %-44s %.6g" % (k, v))
    print("record " + json.dumps(rec, sort_keys=True))
    if trace:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in sorted((res["layer"] or {}).items())}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in res["e2e"].items()}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a SIGTERM unwinds like an error, so the metronome is stopped and
    # waited for on every way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "liequant", "cli.py")):
        print("bench: no liequant sources under %s; run from the repository root"
              % SRC, file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = report(run_workload(name, args.seed, args.seconds, args.trace),
                               args.trace)
    last = results[names[0]] if args.workload != "all" else results
    print(json.dumps(last, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
