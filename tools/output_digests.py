"""Digests of ``simplexdiff compare``'s outputs on every benchmark family.

    python3 tools/output_digests.py 1 301

For each seed, runs ``compare`` in a fresh interpreter on every family of
every workload in perfbench/workloads.py, using the sources under src/ of
the checkout this file is in.  Prints one line per operation: the exit
code, the first line of stderr, and the sha256 of audit.json, compare.json,
moments.csv and run_meta.json (the last without its timestamp; "-" for a
file that was not written).  Two checkouts give the same outputs when the
outputs of this script, run in each, have no diff.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

OUTPUTS = ("audit.json", "compare.json", "moments.csv", "run_meta.json")


def digest(path: str) -> str:
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as f:
        data = f.read()
    if os.path.basename(path) == "run_meta.json":
        meta = json.loads(data)
        meta.pop("timestamp", None)
        data = json.dumps(meta, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def compare_once(config: str, outdir: str):
    """compare in a fresh interpreter; returns (exit code, stderr's first line)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "simplexdiff.cli", "compare",
         "--config", config, "--outdir", outdir],
        capture_output=True, text=True, env=env)
    return proc.returncode, (proc.stderr.splitlines() or [""])[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in workloads.WORKLOADS:
                configs = workloads.write_configs(
                    workload, seed, os.path.join(tmp, f"{workload}-{seed}"))
                for family, config in configs.items():
                    outdir = os.path.join(tmp, f"{workload}-{seed}-{family}")
                    code, err = compare_once(config, outdir)
                    print(f"{workload} {family} seed={seed} exit={code} "
                          f"stderr={err!r}")
                    for name in OUTPUTS:
                        print(f"  {name} {digest(os.path.join(outdir, name))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
