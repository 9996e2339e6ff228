"""Digests of ``simplexdiff``'s outputs on every benchmark family.

    python3 tools/output_digests.py 1 301

For each seed, runs ``check``, ``simulate`` and ``compare`` in a fresh
interpreter on every family of every workload in perfbench/workloads.py,
using the sources under src/ of the checkout this file is in.  ``simulate``
dumps particles at the workload's dump_every, as its config says.  No
benchmark family clips, so each seed also runs ``simulate``, with dumps, on
CLIPPING, a Dirichlet config with an attainable boundary: once with the
default redraw budget, under which many steps redraw, and once with
``max_resample: 0``, under which they clip.  Prints
one block per command and operation: the exit code, the first line of
stderr, and the sha256 of stdout and of each output file the command
writes (run_meta.json without its timestamp; "-" for a file that was not
written).  Two checkouts give the same outputs when the outputs of this
script, run in each, have no diff.
"""

from __future__ import annotations

import argparse
import glob
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
import yaml  # noqa: E402

# the files each command writes; a pattern stands for every file it matches
OUTPUTS = {
    "check": ("audit.json",),
    "simulate": ("audit.json", "moments.csv", "run_meta.json", "ensemble_*.csv"),
    "compare": ("audit.json", "compare.json", "moments.csv", "run_meta.json"),
}

#: a Dirichlet run whose proposals leave the simplex often: b S / kappa < 1
#: makes zero-face-1 attainable
CLIPPING = {
    "schema_version": 1,
    "process": {"name": "dirichlet", "params": {
        "b": [0.5, 1.0], "S": [0.5, 0.3], "kappa": [1.0, 1.0]}},
    "integrator": {"dt": 4e-3, "t_end": 0.8, "record_every": 20},
    "ensemble": {"size": 5000,
                 "initial": {"kind": "delta", "point": [0.1, 0.1, 0.8]}},
    "output": {"dump_every": 50},
}


def digest(data: bytes, name: str = "") -> str:
    if name == "run_meta.json":
        meta = json.loads(data)
        meta.pop("timestamp", None)
        data = json.dumps(meta, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def file_digests(outdir: str, pattern: str):
    """(name, digest) of every file matching pattern; "-" if there is none."""
    paths = sorted(glob.glob(os.path.join(glob.escape(outdir), pattern)))
    if not paths:
        return [(pattern, "-")]
    out = []
    for path in paths:
        with open(path, "rb") as f:
            out.append((os.path.basename(path),
                        digest(f.read(), os.path.basename(path))))
    return out


def run_once(command: str, config: str, outdir: str):
    """command in a fresh interpreter: (exit code, stderr's first line, stdout)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "simplexdiff.cli", command,
         "--config", config, "--outdir", outdir],
        capture_output=True, env=env)
    err = proc.stderr.decode(errors="replace").splitlines() or [""]
    return proc.returncode, err[0], proc.stdout


def report(command: str, config: str, outdir: str, title: str):
    """Run command once and print its block: exit code, stderr and digests."""
    code, err, stdout = run_once(command, config, outdir)
    print(f"{command} {title} exit={code} stderr={err!r}")
    print(f"  stdout {digest(stdout)}")
    for pattern in OUTPUTS[command]:
        for name, value in file_digests(outdir, pattern):
            print(f"  {name} {value}")


def clipping_configs(seed: int, directory: str) -> dict:
    """Write CLIPPING at seed with each redraw budget; name -> config path."""
    paths = {}
    for name, budget in (("default", {}), ("max_resample_0", {"max_resample": 0})):
        cfg = dict(CLIPPING, seed=seed,
                   integrator=dict(CLIPPING["integrator"], **budget))
        paths[name] = os.path.join(directory, f"clipping-{name}-{seed}.yaml")
        with open(paths[name], "w") as f:
            yaml.safe_dump(cfg, f)
    return paths


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
                    for command in OUTPUTS:
                        outdir = os.path.join(
                            tmp, f"{command}-{workload}-{seed}-{family}")
                        report(command, config, outdir,
                               f"{workload} {family} seed={seed}")
            for name, config in clipping_configs(seed, tmp).items():
                report("simulate", config,
                       os.path.join(tmp, f"simulate-clipping-{name}-{seed}"),
                       f"clipping {name} seed={seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
