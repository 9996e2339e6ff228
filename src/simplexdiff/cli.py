"""Batch command-line front end.

Runs are described by a YAML configuration file (documented in the README,
versioned by its schema_version field).  Subcommands: check audits a
process against the boundary constraints, simulate advances an ensemble and
writes moment trajectories, compare validates recorded moments against
evolution rates and analytic stationary values, and sweep repeats compare
over a parameter grid.

Exit codes: 0 success, 1 check or validation failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time
import types

import numpy as np
import yaml

from . import __version__
from .core import TOL_SUM, Ensemble, check_count, check_positive, make_state
from .errors import (ConfigError, InsufficientSnapshots, InvalidParameter,
                     SimplexDiffError)
from .integrator import (SEED_RANGE, IntegratorConfig, RandomSource, simulate,
                         snapshot_steps)
from .processes import (beta_process, broken_process, dirichlet_process,
                        gen_dirichlet_process, wright_fisher_process)
from .realizability import (ToleranceSet, audit_boundary,
                            audit_covariance_structure, audit_moment_bounds)
from .statistics import (UnsupportedProcess, analytic_stationary,
                         batch_mean_se, cross_validate_rates, quantity_label)

SCHEMA_VERSION = 1
OUTDIR_ENV = "SIMPLEXDIFF_OUTDIR"

#: 17 significant digits round-trip IEEE doubles exactly
FMT = "%.17g"


def _yaml12_loader(base):
    """A safe loader on base, plus YAML 1.2's floats that safe_load reads as
    strings: an exponent with no dot or no sign (1e-3, 2e0, 1.0e5)."""
    class Loader(base):
        pass
    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return Loader


#: libyaml's parser where PyYAML was built with it, ~7x faster on a config
_Loader = _yaml12_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            cfg = yaml.load(f, Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} is not a mapping")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, "
                          f"got {cfg.get('schema_version')!r}")
    for key in ("process", "seed"):
        if key not in cfg:
            raise ConfigError(f"config is missing required key {key!r}")
    return cfg


PROCESSES = {"beta": beta_process, "wright_fisher": wright_fisher_process,
             "dirichlet": dirichlet_process, "gen_dirichlet": gen_dirichlet_process,
             "broken": broken_process}


def build_process(cfg: dict):
    spec = cfg["process"]
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("process section needs a name")
    name = spec["name"]
    if not isinstance(name, str) or name not in PROCESSES:
        raise ConfigError(f"unknown process {name!r}")
    try:
        return PROCESSES[name](**spec.get("params", {}))
    except (SimplexDiffError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid parameters for process {name!r}: {exc}") from exc


def _checked(name, value, kind=float, low=0, shape=(), high=np.inf):
    """value by the core rule for a count in [low + 1, high) (kind int; an
    integral float such as 10000.0 is one) or for numbers > low of the given
    shape, its InvalidParameter a ConfigError naming name."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        return (check_count(name, value, low + 1, high) if kind is int
                else check_positive(name, value, low=low, shape=shape))
    except InvalidParameter as exc:
        raise ConfigError(str(exc)) from exc


def setting(cfg: dict, section: str, key: str, default, kind=float, low=0):
    """cfg[section][key], or default, as _checked() reads it under the name
    section.key, converted to kind."""
    spec = cfg.get(section) or {}
    if not isinstance(spec, dict):
        raise ConfigError(f"config section {section!r} is not a mapping")
    return kind(_checked(f"{section}.{key}", spec.get(key, default), kind, low))


def run_seed(cfg: dict, args) -> int:
    """--seed, else the config seed: an integer in SEED_RANGE, not a bool."""
    return _checked("seed", cfg["seed"] if args.seed is None else args.seed,
                    int, SEED_RANGE[0] - 1, high=SEED_RANGE[1])


#: the keys each kind of ensemble.initial takes
INITIAL_KEYS = {"uniform": ("kind",), "delta": ("kind", "point"),
                "list": ("kind", "states")}


def build_ensemble(cfg: dict, n: int, gen: np.random.Generator) -> Ensemble:
    """The initial ensemble, checked against the process's n components."""
    m = setting(cfg, "ensemble", "size", 1000, int, low=1)
    init = (cfg.get("ensemble") or {}).get("initial", {"kind": "uniform"})
    if not isinstance(init, dict):
        raise ConfigError(f"ensemble.initial is not a mapping, got {init!r}")
    kind = init.get("kind")
    if not isinstance(kind, str) or kind not in INITIAL_KEYS:
        raise ConfigError(f"unknown initial condition kind {kind!r}")
    for key in init:
        if key not in INITIAL_KEYS[kind]:
            raise ConfigError(f"unknown config key 'ensemble.initial.{key}'")
    if kind == "uniform":
        return Ensemble.from_uniform(n, m, gen)
    key = "point" if kind == "delta" else "states"
    try:
        if kind == "delta":
            ens = Ensemble.from_delta(make_state(init[key]), m)
        else:
            ens = Ensemble.from_states([make_state(p) for p in init[key]])
    except (SimplexDiffError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid ensemble.initial.{key}: {exc}") from exc
    if ens.n != n:
        raise ConfigError(f"initial states have {ens.n} components, "
                          f"the process has {n}")
    if ens.size != m:
        raise ConfigError(f"ensemble size {m} does not match "
                          f"{ens.size} listed states")
    return ens


def build_integrator(cfg: dict) -> IntegratorConfig:
    dt = setting(cfg, "integrator", "dt", 1e-3)
    max_resample = setting(cfg, "integrator", "max_resample",
                           IntegratorConfig.max_resample, int, low=-1)
    policy = (cfg.get("integrator") or {}).get("boundary_policy",
                                                "reject_resample")
    # schema 1 spells a redraw budget of 0 as boundary_policy: clip_renormalize
    if policy not in ("reject_resample", "clip_renormalize"):
        raise ConfigError(f"unknown integrator.boundary_policy {policy!r}")
    return IntegratorConfig(dt, 0 if policy == "clip_renormalize" else max_resample)


def build_tolerances(cfg: dict) -> ToleranceSet:
    return ToleranceSet(**{f.name: setting(cfg, "audit", f.name, f.default)
                           for f in dataclasses.fields(ToleranceSet)})


def _merge(base, override):
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


#: schema 1's keys per config section ("" is the top level); read_run
#: refuses any other, so a misspelt key cannot fall back to its default
SCHEMA = {"": ("schema_version", "process", "seed", "outdir", "integrator",
               "ensemble", "audit", "output", "compare", "sweep"),
          "process": ("name", "params"),
          "integrator": ("dt", "t_end", "record_every", "max_resample",
                         "boundary_policy"),
          "ensemble": ("size", "initial"),
          "audit": ("samples_per_face", "diffusion_zero_tol", "drift_sign_tol"),
          "compare": ("stationary_window", "tol_multiplier", "stat_tol"),
          "output": ("dump_every",), "sweep": ("grid",)}


def read_run(cfg: dict, args, command: str) -> types.SimpleNamespace:
    """Every input that command uses, read and checked before anything is
    written.  sweep keeps each grid point's merged config, read as compare
    reads it, and reads it again when the point runs, so that no two points'
    ensembles are held at once."""
    for section, keys in SCHEMA.items():
        spec = cfg.get(section) if section else cfg
        for key in spec if isinstance(spec, dict) else ():
            if key not in keys:
                name = f"{section}.{key}" if section else key
                raise ConfigError(f"unknown config key {name!r}")
    if command == "sweep":
        spec = cfg.get("sweep") or {}
        grid = spec.get("grid") if isinstance(spec, dict) else None
        if not grid or not isinstance(grid, list):
            raise ConfigError("sweep requires a non-empty sweep.grid list")
        base = {k: v for k, v in cfg.items() if k != "sweep"}
        points = []
        for i, override in enumerate(grid):
            if not isinstance(override, dict):
                raise ConfigError(f"sweep grid entry {i} is not a mapping")
            points.append(_merge(base, override))
            read_run(points[-1], args, "compare")
        return types.SimpleNamespace(points=points, args=args)
    run = types.SimpleNamespace(
        cfg=cfg, proc=build_process(cfg), seed=run_seed(cfg, args),
        samples=setting(cfg, "audit", "samples_per_face", 1000, int),
        tol=build_tolerances(cfg), skip_audit=args.skip_audit)
    if command == "check":
        return run
    run.icfg = build_integrator(cfg)
    run.t_end = setting(cfg, "integrator", "t_end", 1.0)
    run.record_every = setting(cfg, "integrator", "record_every", 100, int)
    # the ensemble has its own stream, apart from the audit's and the run's
    run.init = build_ensemble(cfg, run.proc.dimension,
                              RandomSource(run.seed, 2).generator)
    if command == "simulate":
        run.dump_every = setting(cfg, "output", "dump_every", 0, int, low=-1) or None
        return run
    run.dump_every = None  # compare writes no particle dumps
    run.tol_multiplier = setting(cfg, "compare", "tol_multiplier", 3.0)
    run.stat_tol = setting(cfg, "compare", "stat_tol", 3.0)
    window = (cfg.get("compare") or {}).get("stationary_window")
    if window is not None:
        window = tuple(_checked("compare.stationary_window", window,
                               low=-np.inf, shape=(2,)).tolist())
        if window[0] > window[1]:
            raise ConfigError("compare.stationary_window must be lo <= hi, "
                              f"got {list(window)}")
    run.window = window
    times = [k * run.icfg.dt
             for k in snapshot_steps(run.t_end, run.icfg.dt, run.record_every)]
    if len(times) < 3:
        raise InsufficientSnapshots(f"need >= 3 snapshots, got {len(times)}")
    if window and not any(window[0] <= t <= window[1] for t in times):
        raise InsufficientSnapshots("no snapshots inside the stationary window "
                                    f"[{window[0]}, {window[1]}]")
    return run


def resolve_outdir(cfg: dict, args) -> str:
    outdir = (args.outdir or cfg.get("outdir")
              or os.environ.get(OUTDIR_ENV) or ".")
    os.makedirs(outdir, exist_ok=True)
    return outdir


def write_csv(path: str, cols, rows):
    """A header of cols, then one line per row of a 2-D array, at FMT."""
    np.savetxt(path, rows, fmt=FMT, delimiter=",", header=",".join(cols),
               comments="")


def write_moments_csv(path: str, traj, n: int):
    cols = ["t"]
    cols += [f"mean_{i + 1}" for i in range(n)]
    cols += [f"cov_{i + 1}_{j + 1}" for i in range(n) for j in range(n)]
    for stem in ("third", "fourth", "skew", "kurt"):
        cols += [f"{stem}_{i + 1}" for i in range(n)]
    m = traj.moments
    write_csv(path, cols, np.column_stack([
        traj.t, m.mean, m.covariance.reshape(traj.t.size, -1), m.third,
        m.fourth, m.skewness, m.kurtosis]))


def write_ensemble_csv(path: str, t: float, states: np.ndarray):
    m, n = states.shape
    write_csv(path, ["t", "particle_id"] + [f"y_{i + 1}" for i in range(n)],
              np.column_stack([np.full(m, t), np.arange(m), states]))


def write_run_meta(path: str, cfg: dict, seed: int, extra: dict):
    meta = {"config": cfg, "seed": seed, "code_version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    meta.update(extra)
    with open(path, "w") as f:
        json.dump(meta, f, indent=2, default=str)
        f.write("\n")


def _run_audit(run, outdir: str, quiet=False):
    report = audit_boundary(run.proc, run.samples, RandomSource(run.seed, 1),
                            run.tol)
    with open(os.path.join(outdir, "audit.json"), "w") as f:
        json.dump(report.to_dict(), f, indent=2)
        f.write("\n")
    if not quiet:
        print(report.table())
    return report


def cmd_check(run, outdir: str) -> int:
    return 0 if _run_audit(run, outdir).overall_pass else 1


def _simulate(run, outdir: str):
    """simulate and compare's audit, run and records; None if the audit failed."""
    if not run.skip_audit and not _run_audit(run, outdir, quiet=True).overall_pass:
        print("boundary audit failed; rerun with --skip-audit to force",
              file=sys.stderr)
        return None
    traj = simulate(run.proc, run.init, run.icfg, run.t_end, run.record_every,
                    RandomSource(run.seed, 0), dump_every=run.dump_every)
    write_moments_csv(os.path.join(outdir, "moments.csv"), traj, run.proc.dimension)
    for t, states in traj.dumps.items():
        write_ensemble_csv(os.path.join(outdir, f"ensemble_{t:g}.csv"), t, states)
    write_run_meta(os.path.join(outdir, "run_meta.json"), run.cfg, run.seed,
                   {"violation_count": traj.violation_count,
                    "particle_steps": traj.particle_steps,
                    "modified_steps": traj.modified_steps,
                    "clipped_steps": traj.clipped_steps})
    if traj.violation_count:
        print(f"{traj.violation_count} realizability violations recorded",
              file=sys.stderr)
    return traj


def cmd_simulate(run, outdir: str) -> int:
    traj = _simulate(run, outdir)
    if traj is None or traj.violation_count:
        return 1
    print(f"simulate: {traj.t.size} snapshots, "
          f"{traj.particle_steps} particle-steps, 0 violations")
    return 0


def stationary_checks(traj, oracle, window, stat_tol: float):
    """Time-averaged means/covariances vs the analytic stationary values.

    Standard errors come from per-particle-batch time averages over the
    window, so slow decorrelation across snapshots is accounted for by the
    spread across independent particle batches.  Every component is
    judged, the remainder as estimated from the states.
    """
    lo, hi = window
    inside = (lo <= traj.t) & (traj.t <= hi)
    # np.stack keeps the column-major layout of the batch means, and numpy
    # sums in an order set by the layout: a C-ordered copy averages snapshot
    # by snapshot, the order test_compare_outputs_pinned pins to the ulp
    mean_b, cov_b = (np.ascontiguousarray(traj.batch_moments[key][inside])
                     .mean(axis=0) for key in ("mean", "cov"))
    checks = []

    def judge(name, batch_vals, oracle_vals):
        est, se = batch_mean_se(batch_vals)
        thresh = np.maximum(stat_tol * se, TOL_SUM)
        res = np.abs(est - oracle_vals)
        for pos in np.ndindex(est.shape):
            checks.append({"quantity": quantity_label(name, pos),
                           "value": float(est[pos]),
                           "oracle": float(oracle_vals[pos]),
                           "residual": float(res[pos]),
                           "threshold": float(thresh[pos]),
                           "passed": bool(res[pos] <= thresh[pos])})

    judge("mean", mean_b, oracle.mean)
    judge("cov", cov_b, oracle.covariance)
    return checks


def moment_audit(traj) -> dict:
    """The moment-bound and covariance-structure audits of every snapshot.

    Per constraint: the worst violation over all snapshots, the time of its
    first occurrence, and whether every snapshot passed.  One pass judges
    the moments of all snapshots stacked.
    """
    checks = []
    for report in (audit_moment_bounds(traj.moments),
                   audit_covariance_structure(traj.moments)):
        for c in report.checks:
            i = int(np.argmax(c.violation))
            checks.append({"constraint": c.constraint,
                           "violation": float(c.violation[i]),
                           "t": float(traj.t[i]),
                           "passed": bool(np.all(c.passed))})
    return {"overall_pass": all(c["passed"] for c in checks), "checks": checks}


def run_compare(run, outdir: str):
    """compare: (exit code, compare.json's contents or None if the audit failed)."""
    traj = _simulate(run, outdir)
    if traj is None:
        return 1, None
    rate_check = cross_validate_rates(traj, run.tol_multiplier)
    result = {"rate_check": rate_check}
    passed = rate_check["overall_pass"]
    try:
        oracle = analytic_stationary(run.proc)
    except UnsupportedProcess as exc:
        result["stationary"] = {"available": False, "reason": str(exc)}
    else:
        lo, hi = run.window or (float(traj.t[-1]) / 2.0, float(traj.t[-1]))
        checks = stationary_checks(traj, oracle, (lo, hi), run.stat_tol)
        stat_pass = all(c["passed"] for c in checks)
        result["stationary"] = {"available": True, "window": [lo, hi],
                                "checks": checks, "overall_pass": stat_pass}
        passed = passed and stat_pass
    audit = result["moment_audit"] = moment_audit(traj)
    passed = passed and audit["overall_pass"] and not traj.violation_count
    result["overall_pass"] = passed
    with open(os.path.join(outdir, "compare.json"), "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"compare: rate check {'pass' if rate_check['overall_pass'] else 'FAIL'};"
          f" moment audit {'pass' if audit['overall_pass'] else 'FAIL'};"
          f" overall {'pass' if passed else 'FAIL'}")
    return (0 if passed else 1), result


def cmd_compare(run, outdir: str) -> int:
    return run_compare(run, outdir)[0]


def cmd_sweep(run, outdir: str) -> int:
    rows = []
    any_failed = False
    for i, point in enumerate(run.points):
        point_dir = os.path.join(outdir, f"point_{i:03d}")
        os.makedirs(point_dir, exist_ok=True)
        t0 = time.perf_counter()
        point_run = read_run(point, run.args, "compare")
        code, result = run_compare(point_run, point_dir)
        runtime = time.perf_counter() - t0
        # a point whose boundary audit failed has no result: NaN residuals
        stat_checks = (result or {}).get("stationary", {}).get("checks", [])
        max_res = max((c["residual"] for c in stat_checks), default=float("nan"))
        var = next((c for c in stat_checks if c["quantity"] == "cov[1,1]"), {})
        rows.append((i, point_run.icfg.dt, 1 - code, max_res,
                     var.get("residual", float("nan")),
                     var.get("threshold", float("nan")), runtime))
        any_failed |= code != 0
    write_csv(os.path.join(outdir, "sweep.csv"),
              ["point", "dt", "passed", "max_stationary_residual",
               "var1_residual", "var1_threshold", "runtime_s"],
              np.array(rows, dtype=float))
    return 1 if any_failed else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexdiff",
        description="Simulate and audit diffusion processes on the unit simplex.")
    parser.add_argument("command", choices=["check", "simulate", "compare", "sweep"])
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--outdir", default=None,
                        help=f"output directory (default: config, then ${OUTDIR_ENV})")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--skip-audit", action="store_true",
                        help="run simulate/compare even if the boundary audit fails")
    parser.add_argument("--threads", type=int, default=1,
                        help="has no effect; results are identical for any value")
    return parser


_COMMANDS = {"check": cmd_check, "simulate": cmd_simulate,
             "compare": cmd_compare, "sweep": cmd_sweep}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        run = read_run(cfg, args, args.command)
        return _COMMANDS[args.command](run, resolve_outdir(cfg, args))
    except (ConfigError, InsufficientSnapshots) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimplexDiffError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
