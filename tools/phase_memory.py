"""Peak memory, wall time and page faults of one step, one snapshot and one
audit on every benchmark family, and the wall time and page faults of a
whole compare operation.

    python3 tools/phase_memory.py 1

For every family of every workload in perfbench/workloads.py, reads the
family's config at the given seed through ``cli.read_run`` as ``simulate``
reads it, with the random streams ``simulate`` uses.  It then prints the
peak that ``tracemalloc`` records during each phase, and beside it the
median wall time and the median minor page-fault count (``ru_minflt`` of
``resource.getrusage``, every thread of the process) of 20 untraced calls
of the phase:

- step:     one ``_advance`` from the state a first, untraced step made
            from the config's start ensemble, as every later step of a run
            is fed the one before it
- snapshot: the full states, ``batch_statistics`` and the merged moments,
            as ``simulate`` records a snapshot after that step
- audit:    one ``audit_boundary`` at the config's samples_per_face

Each phase runs once untraced first, so lazy set-up is not counted, and the
phase with the largest peak is named last on its family's line.  The timed
calls follow the traced one, so the step they repeat advances the random
stream, not the state the snapshot reads.  Beside the phases,
``operation`` is the median wall time and minor-fault count of three whole
``cli.main(["compare", ...])`` runs of the config the benchmark writes,
after one warm-up run, each into a new directory under a temporary one: a
repeated phase reuses the memory it freed, so its faults read near 0,
while an operation alternates phases and output and faults throughout.
The peaks count the arrays a phase allocates, not the state it is given,
so the line also prints ``state``: the bytes of the block that owns the
memory of the state a step returns, which the next step holds throughout.
Run as a script, it uses the sources under src/ of the checkout this file
is in; imported, it uses the importer's ``simplexdiff`` and leaves
``sys.path`` and ``sys.dont_write_bytecode`` as they were.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import os
import resource
import statistics as stats
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":  # an importer keeps its own path and settings
    sys.dont_write_bytecode = True  # leave perfbench/ as checked out
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
from simplexdiff import cli, integrator, statistics  # noqa: E402
from simplexdiff.core import component_major  # noqa: E402
from simplexdiff.realizability import audit_boundary  # noqa: E402


TIMED_CALLS = 20
OPERATIONS = 3


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(fn):
    """fn() once untraced, then the tracemalloc peak in bytes of a second call,
    the median wall time in seconds and the median minor-fault count of
    TIMED_CALLS untraced calls after it, and the traced call's result."""
    fn()
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak, *timed(fn, TIMED_CALLS), out)


def timed(fn, calls):
    """The median wall time in seconds and the median minor-fault count of
    calls untraced calls of fn."""
    times, faults = [], []
    for _ in range(calls):
        start, start_faults = time.perf_counter(), minor_faults()
        fn()
        times.append(time.perf_counter() - start)
        faults.append(minor_faults() - start_faults)
    return stats.median(times), stats.median(faults)


def operation_cost(config, workdir):
    """The median wall time and minor faults of OPERATIONS whole compare runs
    of the config file through cli.main, after one warm-up run, each into a
    new directory under workdir, with the console output discarded."""
    outdirs = (os.path.join(workdir, str(i)) for i in itertools.count())

    def compare():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(["compare", "--config", config, "--outdir", next(outdirs)])
    compare()
    return timed(compare, OPERATIONS)


def owner_bytes(a):
    """The bytes of the array that owns a's memory: a itself or its base."""
    return (a if a.base is None else a.base).nbytes


def phase_costs(run):
    """{phase: (peak bytes, median seconds, median minor faults)} of one
    step, one snapshot and one audit of a run, and the bytes of the block
    behind the state the step returns."""
    rng = integrator.RandomSource(run.seed, 0)
    first, _, _ = integrator._advance(
        run.proc, component_major(run.init.reduced), run.icfg, rng)
    *step, (after, _, _) = measure(
        lambda: integrator._advance(run.proc, first, run.icfg, rng))

    def snapshot():
        full = integrator._full_states(after)
        bm, _ = statistics.batch_statistics(full, run.proc)
        return statistics.estimate_moments(full, bm)
    audit_rng = integrator.RandomSource(run.seed, 1)
    return {"step": tuple(step), "snapshot": measure(snapshot)[:3],
            "audit": measure(lambda: audit_boundary(
                run.proc, run.samples, audit_rng, run.tol))[:3]}, owner_bytes(after)


def main(argv=None) -> int:
    import workloads  # perfbench/, put on sys.path when run as a script
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("seed", type=int)
    seed = parser.parse_args(argv).seed
    args = cli.make_parser().parse_args(["simulate", "--config", "-"])
    print(f"seed={seed}  tracemalloc peak in MB (10^6 bytes), then the median "
          f"untraced wall time in us and minor faults of {TIMED_CALLS} calls; "
          f"operation: the median of {OPERATIONS} compare runs in ms and faults")
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            configs = workloads.write_configs(workload, seed, workdir)
            for family, config in configs.items():
                cfg = workloads.family_config(workload, family, seed)
                costs, state = phase_costs(cli.read_run(cfg, args, "simulate"))
                op_wall, op_faults = operation_cost(
                    config, os.path.join(workdir, family))
                cells = "  ".join(
                    f"{phase} {peak / 1e6:6.2f} {wall * 1e6:7.0f}us {faults:6.0f}f"
                    for phase, (peak, wall, faults) in costs.items())
                print(f"{workload:15s} {family:14s} {cells}  state "
                      f"{state / 1e6:5.2f}  operation {op_wall * 1e3:5.0f}ms "
                      f"{op_faults:6.0f}f  peak: "
                      f"{max(costs, key=lambda phase: costs[phase][0])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
