"""Peak memory of one step, one snapshot and one audit on every benchmark family.

    python3 tools/phase_memory.py 1

For every family of every workload in perfbench/workloads.py, reads the
family's config at the given seed through ``cli.read_run`` as ``simulate``
reads it, with the random streams ``simulate`` uses.  It then prints the
peak that ``tracemalloc`` records during each phase:

- step:     one ``_advance`` from the state a first, untraced step made
            from the config's start ensemble, as every later step of a run
            is fed the one before it
- snapshot: the full states, ``batch_statistics`` and the merged moments,
            as ``simulate`` records a snapshot after that step
- audit:    one ``audit_boundary`` at the config's samples_per_face

Each phase runs once untraced first, so lazy set-up is not counted, and the
phase with the largest peak is named last on its family's line.  The peaks
count the arrays a phase allocates, not the state it is given, so the line
also prints ``state``: the bytes of the block that owns the memory of the
state a step returns, which the next step holds throughout.  Uses the
sources under src/ of the checkout this file is in.
"""

from __future__ import annotations

import argparse
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))
import workloads  # noqa: E402
from simplexdiff import cli, integrator, statistics  # noqa: E402
from simplexdiff.core import component_major  # noqa: E402
from simplexdiff.realizability import audit_boundary  # noqa: E402


def traced_peak(fn):
    """fn() once untraced, then the tracemalloc peak in bytes of a second call,
    and that call's result."""
    fn()
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def owner_bytes(a):
    """The bytes of the array that owns a's memory: a itself or its base."""
    return (a if a.base is None else a.base).nbytes


def phase_peaks(run):
    """{phase: peak bytes} of one step, one snapshot and one audit of a run,
    and the bytes of the block behind the state the step returns."""
    rng = integrator.RandomSource(run.seed, 0)
    first, _, _ = integrator._advance(
        run.proc, component_major(run.init.reduced), run.icfg, rng)
    step, (after, _, _) = traced_peak(
        lambda: integrator._advance(run.proc, first, run.icfg, rng))

    def snapshot():
        full = integrator._full_states(after)
        bm, _ = statistics.batch_statistics(full, run.proc)
        return statistics.estimate_moments(full, bm)
    audit_rng = integrator.RandomSource(run.seed, 1)
    return {"step": step, "snapshot": traced_peak(snapshot)[0],
            "audit": traced_peak(lambda: audit_boundary(
                run.proc, run.samples, audit_rng, run.tol))[0]}, owner_bytes(after)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("seed", type=int)
    seed = parser.parse_args(argv).seed
    args = cli.make_parser().parse_args(["simulate", "--config", "-"])
    print(f"seed={seed}  tracemalloc peak in MB (10^6 bytes)")
    for workload in workloads.WORKLOADS:
        for family in workloads.WORKLOADS[workload]["families"]:
            cfg = workloads.family_config(workload, family, seed)
            peaks, state = phase_peaks(cli.read_run(cfg, args, "simulate"))
            cells = "  ".join(f"{phase} {peak / 1e6:6.2f}"
                              for phase, peak in peaks.items())
            print(f"{workload:15s} {family:14s} {cells}  state {state / 1e6:5.2f}"
                  f"  peak: {max(peaks, key=peaks.get)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
