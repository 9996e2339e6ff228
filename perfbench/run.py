"""simplexdiff benchmark: closed-loop ``simplexdiff compare`` calls.

    python3 perfbench/run.py --workload stepping --seed 1 --seconds 30 --trace 0

Builds nothing: it imports simplexdiff from the src/ directory next to this
one and refuses to run without it.  See measure.py for what is measured and
workloads.py for the workloads.
"""

from __future__ import annotations

import argparse
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "simplexdiff", "cli.py")):
        print(f"error: no simplexdiff sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: the integrator is
    # single-threaded, and idle BLAS workers only add scheduling noise on a
    # small shared machine.  Setup probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import measure
    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
