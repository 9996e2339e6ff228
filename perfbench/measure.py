"""One benchmark run: rounds of compare calls, output checks, metrics.

A round runs every family of the workload once (workloads.py).  Rounds
repeat within the run's seconds, with at least MIN_ROUNDS measured.  Every
round reuses the configs generated from the seed, so each round must write
a byte-identical moments.csv.

Untraced runs report the end-to-end metrics.  Traced runs alternate
untraced and traced rounds and report the per-layer metrics of tracing.py;
every moments.csv must match the first untraced round's byte for byte, and
the exact counts must repeat from one traced round to the next.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are information that is not gated.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import simplexdiff.cli as cli
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
MIN_ROUNDS = 2
#: means must sum to 1 and covariance rows to 0 within this
SUM_TOL = 1e-9
OUTPUTS = ("audit.json", "run_meta.json", "moments.csv", "compare.json")
END_TO_END_UNITS = {"wall_s": "s", "particle_steps_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# A fresh interpreter imports the package and writes the configs; its stamp
# of the system-wide monotonic clock marks when the first operation could
# start.
_SETUP_PROBE = """import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import simplexdiff.cli, workloads
workloads.write_configs({workload!r}, {seed}, {directory!r})
print(time.perf_counter())
"""


def setup_seconds(workload: str, seed: int, directory: str) -> float:
    code = _SETUP_PROBE.format(src=SRC, bench=BENCH, workload=workload,
                               seed=seed, directory=directory)
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1]) - t0


def blas_threads():
    """Threads OpenBLAS will use, asked of the library bundled with numpy."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    libs = glob.glob(os.path.join(libdir, "*openblas*"))
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')}-{blas.get('version')}",
            "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0))}


def src_lines() -> int:
    n = 0
    for d, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(d, name)) as f:
                    n += sum(1 for _ in f)
    return n


def check_outputs(outdir: str, code, err: str, n_rows: int):
    """Judge one operation from its files, not from its exit code.

    Returns (failure, invalid, verdicts_failed, digest): failure is None or
    the reason the operation failed; invalid marks a failure in which the
    program wrote wrong outputs.  A failed rate or stationary verdict in
    compare.json is counted in verdicts_failed, not as a failure.
    """
    def fail(reason, invalid=False):
        return reason, invalid, 0, None

    if code is None or code == 2:
        return fail(err.strip() or f"exit status {code}")
    missing = [f for f in OUTPUTS if not os.path.exists(os.path.join(outdir, f))]
    if "audit.json" not in missing:
        with open(os.path.join(outdir, "audit.json")) as f:
            audit = json.load(f)
        if not audit["overall_pass"]:
            return fail("boundary audit failed: " + ", ".join(
                c["constraint"] for c in audit["checks"] if not c["passed"]))
    if missing:
        return fail(err.strip() or f"missing {', '.join(missing)}")
    with open(os.path.join(outdir, "run_meta.json")) as f:
        violations = json.load(f)["violation_count"]
    if violations:
        return fail(f"{violations} realizability violations", True)
    path = os.path.join(outdir, "moments.csv")
    with open(path) as f:
        n = sum(c.startswith("mean_") for c in f.readline().strip().split(","))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    mean = data[:, 1:1 + n]
    cov = data[:, 1 + n:1 + n + n * n].reshape(-1, n, n)
    if data.shape[0] != n_rows:
        return fail(f"moments.csv has {data.shape[0]} rows, expected {n_rows}", True)
    # the integrator's own check passes NaN (NaN < 0 is false), so test here
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        return fail("non-finite mean or covariance in moments.csv", True)
    if np.max(np.abs(mean.sum(axis=1) - 1.0)) > SUM_TOL:
        return fail("means do not sum to 1", True)
    if np.max(np.abs(cov.sum(axis=2))) > SUM_TOL:
        return fail("covariance row sums are not 0", True)
    with open(os.path.join(outdir, "compare.json")) as f:
        result = json.load(f)
    stationary = result["stationary"]
    verdicts = (not result["rate_check"]["overall_pass"]) + (
        stationary["available"] and not stationary["overall_pass"])
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    return None, False, int(verdicts), digest


def run_round(workload: str, configs: dict, workdir: str, tracer=None) -> list:
    """One compare call per family; returns one record per operation."""
    ops = []
    for family, config in configs.items():
        outdir = os.path.join(workdir, family)
        shutil.rmtree(outdir, ignore_errors=True)
        argv = ["compare", "--config", config, "--outdir", outdir]
        err = io.StringIO()
        patch = tracer.patched() if tracer else contextlib.nullcontext()
        with patch, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # an operation that raises has failed
                code = None
                err.write(f"{type(exc).__name__}: {exc}")
            wall = time.perf_counter() - t0
        failure, invalid, verdicts, digest = check_outputs(
            outdir, code, err.getvalue(),
            workloads.expected_snapshots(workload, family))
        written = sum(os.path.getsize(os.path.join(outdir, f))
                      for f in os.listdir(outdir)) if os.path.isdir(outdir) else 0
        ops.append({"family": family, "wall": wall, "failure": failure,
                    "invalid": invalid, "verdicts": verdicts,
                    "digest": digest, "bytes": written})
    return ops


def family_walls(rounds) -> dict:
    """Wall times of each family's completed operations."""
    walls = {}
    for ops in rounds:
        for op in ops:
            if op["failure"] is None:
                walls.setdefault(op["family"], []).append(op["wall"])
    return walls


def end_to_end(rounds, setup, steps: dict) -> dict:
    """wall_s is the sum over families of the median time of their completed
    operations; failed operations are counted in failed, not timed."""
    walls = {}
    for family, w in family_walls(rounds).items():
        walls[family] = statistics.median(w)
        print(f"operation_s.{family} n={len(w)} median={walls[family]:.6g} "
              f"min={min(w):.6g} max={max(w):.6g}")
        rate = workloads.M * steps[family] / walls[family]
        print(f"particle_steps_per_s.{family} {rate:.6g} 1/s")
    wall_s = sum(walls.values())
    return {
        "wall_s": wall_s,
        "particle_steps_per_s": workloads.M * sum(steps[f] for f in walls) / wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracers, traced, untraced) -> tuple:
    """Median per-layer metrics over traced rounds, and whether counts repeat."""
    per_round = [tracing.layer_metrics(t.spans, sum(op["bytes"] for op in ops),
                                       sum(op["verdicts"] for op in ops))
                 for t, ops in zip(tracers, traced)]
    repeat = True
    for name in tracing.EXACT_COUNTS:
        seen = [m[name] for m in per_round]
        if len(set(seen)) != 1:
            repeat = False
            print(f"mismatch: {name} differs between traced rounds: {seen}")
    values = {name: statistics.median_low(m[name] for m in per_round)
              for name in per_round[0]}
    on, off = family_walls(traced), family_walls(untraced)
    values["trace.overhead_s"] = sum(statistics.median(on[f]) - statistics.median(off[f])
                                     for f in on if f in off)
    return values, repeat


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported simplexdiff from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        setup = [] if trace else [
            setup_seconds(workload, seed, os.path.join(WORK, f"setup{i}"))
            for i in range(SETUP_REPEATS)]
        configs = workloads.write_configs(workload, seed,
                                          os.path.join(WORK, "configs"))
        # Traced runs alternate untraced and traced rounds, so that both see
        # the same machine conditions when the overhead is taken.  Another
        # round starts only if one like the last would end by the deadline.
        deadline = time.perf_counter() + seconds
        untraced, traced, tracers = [], [], []
        last = 0.0
        while len(untraced) < MIN_ROUNDS or time.perf_counter() + last < deadline:
            start = time.perf_counter()
            untraced.append(run_round(workload, configs, WORK))
            if trace:
                tracers.append(tracing.Tracer())
                traced.append(run_round(workload, configs, WORK, tracers[-1]))
            last = time.perf_counter() - start
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    executed = untraced + traced
    all_ops = [op for ops in executed for op in ops]
    failed = [op for op in all_ops if op["failure"] is not None]
    correct = not any(op["invalid"] for op in all_ops)
    digests = {op["family"]: op["digest"] for op in untraced[0]}
    for op in all_ops:
        if op["failure"] is None and op["digest"] != digests[op["family"]]:
            correct = False
            print(f"mismatch: {op['family']} moments.csv differs between "
                  "rounds at one seed")

    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print(f"src_lines {src_lines()}")
    print(f"workload {workload} seed {seed} trace {int(trace)} "
          f"rounds {len(executed)} operations {len(all_ops)} failed {len(failed)}")
    print(f"failed_fraction {len(failed) / len(all_ops):.6g} ratio")
    for family, reason in sorted({(op["family"], op["failure"]) for op in failed}):
        print(f"failed_operation {family}: {reason}")
    if len(failed) == len(all_ops):
        print("error: every operation failed", file=sys.stderr)
        return 1

    if trace:
        values, repeat = per_layer(tracers, traced, untraced)
        correct = correct and repeat
        units = tracing.UNITS
    else:
        values = end_to_end(untraced, setup, workloads.WORKLOADS[workload]["steps"])
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(all_ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0
