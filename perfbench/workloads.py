"""Benchmark workloads: which process families run, at what size, and why.

An operation is one ``simplexdiff compare`` call on one process family.  A
round runs every family of a workload once, in the order listed.  Every
operation uses M = 10^4 particles, dt = 1e-3 and the reject_resample
boundary policy; the workload seed becomes the config seed, so the same
seed gives the same configs and the same noise.
"""

from __future__ import annotations

import os

import yaml

M = 10_000
DT = 1e-3
AUDIT_SAMPLES = 1000

# Acceptance parameters and start points, as in tests/test_acceptance.py.
_DIR_BASE = {"b": [4.0, 4.0], "S": [0.5, 0.5], "kappa": [1.0, 1.0]}
_ACCEPTANCE = {
    "beta": ({"b": 2.0, "S": 0.5, "kappa": 1.0}, [0.9, 0.1]),
    "wright_fisher": ({"omega": [1.0, 1.0, 1.0]}, [1 / 3, 1 / 3, 1 / 3]),
    "dirichlet": (dict(_DIR_BASE, dirichlet_invariant=True), [0.3, 0.3, 0.4]),
    "gen_dirichlet": (dict(_DIR_BASE, c="reduction"), [0.3, 0.3, 0.4]),
}


def _wide(n: int):
    """N-component versions of the multivariate families, started at the centre."""
    k = n - 1
    base = {"b": [4.0] * k, "S": [0.5] * k, "kappa": [1.0] * k}
    centre = [1.0 / n] * n
    return {
        "wright_fisher": ({"omega": [1.0] * n}, centre),
        "dirichlet": (dict(base, dirichlet_invariant=True), centre),
        "gen_dirichlet": (dict(base, c="reduction"), centre),
    }


# "steps" maps each family to its step count; the families run in this order.
WORKLOADS = {
    # Integrator and process closures do ~95 % of the work: three snapshots
    # (the fewest cross-validation accepts) per 800 steps.
    "stepping": {"families": _ACCEPTANCE,
                 "steps": dict.fromkeys(_ACCEPTANCE, 800),
                 "record_every": 400, "dump_every": None},
    # Statistics do ~85 % of the work: a snapshot every 2 steps, each costing
    # ~10x a step.
    "snapshot-dense": {
        "families": {f: _ACCEPTANCE[f] for f in ("dirichlet", "wright_fisher")},
        "steps": {"dirichlet": 100, "wright_fisher": 100},
        "record_every": 2, "dump_every": 25},
    # Long trailing axis: O(K^2) Python loops in the Wright-Fisher factor and
    # the nested coupling, heavy resampling.  The nested run aborts at this
    # commit with DegenerateState after 70-250 steps, depending on the seed;
    # it gets 300 steps so that the abort shows, and stays in as a failed
    # operation.
    "wide-simplex": {"families": _wide(8),
                     "steps": {"wright_fisher": 100, "dirichlet": 100,
                               "gen_dirichlet": 300},
                     "record_every": 50, "dump_every": None},
}


def family_config(workload: str, family: str, seed: int) -> dict:
    spec = WORKLOADS[workload]
    params, point = spec["families"][family]
    steps = spec["steps"][family]
    cfg = {
        "schema_version": 1,
        "process": {"name": family, "params": params},
        "integrator": {"dt": DT, "t_end": steps * DT,
                       "record_every": spec["record_every"],
                       "boundary_policy": "reject_resample"},
        "ensemble": {"size": M, "initial": {"kind": "delta", "point": point}},
        "seed": seed,
        "audit": {"samples_per_face": AUDIT_SAMPLES},
    }
    if spec["dump_every"]:
        cfg["output"] = {"dump_every": spec["dump_every"]}
    return cfg


def expected_snapshots(workload: str, family: str) -> int:
    """Rows of moments.csv: t = 0, every record_every steps, and the last step."""
    spec = WORKLOADS[workload]
    steps, every = spec["steps"][family], spec["record_every"]
    return 1 + steps // every + (1 if steps % every else 0)


def write_configs(workload: str, seed: int, directory: str) -> dict:
    """Write one YAML config per family; returns family -> config path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for family in WORKLOADS[workload]["families"]:
        path = os.path.join(directory, f"{family}.yaml")
        with open(path, "w") as f:
            yaml.safe_dump(family_config(workload, family, seed), f)
        paths[family] = path
    return paths
