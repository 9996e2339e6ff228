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
import ctypes
import json
import os
import sys
import time

import numpy as np
import yaml

from . import __version__
from .core import Ensemble, make_state
from .errors import (ConfigError, InsufficientSnapshots, SimplexDiffError)
from .integrator import IntegratorConfig, RandomSource, simulate
from .processes import (BetaParams, DirichletParams, GenDirichletParams,
                        WrightFisherParams, beta_process, broken_process,
                        dirichlet_process, gen_dirichlet_process,
                        wright_fisher_process)
from .realizability import ToleranceSet, audit_boundary
from .statistics import (UnsupportedProcess, analytic_stationary,
                         batch_mean_se, cross_validate_rates)

SCHEMA_VERSION = 1
OUTDIR_ENV = "SIMPLEXDIFF_OUTDIR"

#: 17 significant digits round-trip IEEE doubles exactly
FMT = "%.17g"


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            cfg = yaml.safe_load(f)
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


def build_process(cfg: dict):
    spec = cfg["process"]
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("process section needs a name")
    name = spec["name"]
    params = spec.get("params", {})
    try:
        if name == "beta":
            return beta_process(BetaParams(**params))
        if name == "wright_fisher":
            return wright_fisher_process(WrightFisherParams(**params))
        if name == "dirichlet":
            return dirichlet_process(DirichletParams(**params))
        if name == "gen_dirichlet":
            params = dict(params)
            c = params.pop("c", None)
            if c == "reduction":
                base = DirichletParams(b=params["b"], S=params["S"],
                                       kappa=params["kappa"],
                                       dirichlet_invariant=True)
                return gen_dirichlet_process(GenDirichletParams.reduction_of(base))
            return gen_dirichlet_process(GenDirichletParams(c=c, **params))
        if name == "broken":
            return broken_process(**params)
    except (SimplexDiffError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid parameters for process {name!r}: {exc}") from exc
    raise ConfigError(f"unknown process {name!r}")


def build_ensemble(cfg: dict, n: int, gen: np.random.Generator) -> Ensemble:
    spec = cfg.get("ensemble", {})
    m = int(spec.get("size", 1000))
    if m < 2:
        raise ConfigError(f"ensemble size must be >= 2, got {m}")
    init = spec.get("initial", {"kind": "uniform"})
    kind = init.get("kind")
    try:
        if kind == "delta":
            return Ensemble.from_delta(make_state(init["point"]), m)
        if kind == "uniform":
            return Ensemble.from_uniform(n, m, gen)
        if kind == "list":
            states = [make_state(p) for p in init["states"]]
            ens = Ensemble.from_states(states)
            if ens.size != m:
                raise ConfigError(f"ensemble size {m} does not match "
                                  f"{ens.size} listed states")
            return ens
    except (SimplexDiffError, KeyError) as exc:
        raise ConfigError(f"invalid ensemble spec: {exc}") from exc
    raise ConfigError(f"unknown initial condition kind {kind!r}")


def build_integrator(cfg: dict) -> IntegratorConfig:
    spec = cfg.get("integrator", {})
    try:
        return IntegratorConfig(
            dt=float(spec.get("dt", 1e-3)),
            boundary_policy=spec.get("boundary_policy", "reject_resample"),
            max_resample=int(spec.get("max_resample", 100)))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid integrator settings: {exc}") from exc


def build_tolerances(cfg: dict) -> ToleranceSet:
    spec = cfg.get("audit", {})
    try:
        return ToleranceSet(
            diffusion_zero_tol=float(spec.get("diffusion_zero_tol", 1e-10)),
            drift_sign_tol=float(spec.get("drift_sign_tol", 1e-10)),
            moment_stat_tol=float(spec.get("moment_stat_tol", 3.0)))
    except ValueError as exc:
        raise ConfigError(f"invalid audit tolerances: {exc}") from exc


def resolve_outdir(cfg: dict, args) -> str:
    outdir = (args.outdir or cfg.get("outdir")
              or os.environ.get(OUTDIR_ENV) or ".")
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _csv_row(values) -> str:
    return ",".join(FMT % v for v in values)


def write_moments_csv(path: str, traj, n: int):
    cols = ["t"]
    cols += [f"mean_{i + 1}" for i in range(n)]
    cols += [f"cov_{i + 1}_{j + 1}" for i in range(n) for j in range(n)]
    for stem in ("third", "fourth", "skew", "kurt"):
        cols += [f"{stem}_{i + 1}" for i in range(n)]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for snap in traj.snapshots:
            m = snap.moments
            row = np.concatenate([[snap.t], m.mean, m.covariance.ravel(),
                                  m.third, m.fourth, m.skewness, m.kurtosis])
            f.write(_csv_row(row) + "\n")


def write_ensemble_csv(path: str, t: float, states: np.ndarray):
    n = states.shape[1]
    with open(path, "w") as f:
        f.write("t,particle_id,"
                + ",".join(f"y_{i + 1}" for i in range(n)) + "\n")
        for pid, row in enumerate(states):
            f.write(_csv_row(np.concatenate([[t, pid], row])) + "\n")


def write_run_meta(path: str, cfg: dict, seed: int, extra: dict):
    meta = {"config": cfg, "seed": seed, "code_version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    meta.update(extra)
    with open(path, "w") as f:
        json.dump(meta, f, indent=2, default=str)
        f.write("\n")


def _run_audit(proc, cfg, seed, outdir, quiet=False):
    spec = cfg.get("audit", {})
    samples = int(spec.get("samples_per_face", 1000))
    tol = build_tolerances(cfg)
    report = audit_boundary(proc, samples, RandomSource(seed, 1), tol)
    with open(os.path.join(outdir, "audit.json"), "w") as f:
        json.dump(report.to_dict(), f, indent=2)
        f.write("\n")
    if not quiet:
        print(report.table())
    return report


def cmd_check(cfg: dict, args) -> int:
    outdir = resolve_outdir(cfg, args)
    proc = build_process(cfg)
    seed = int(args.seed if args.seed is not None else cfg["seed"])
    report = _run_audit(proc, cfg, seed, outdir)
    return 0 if report.overall_pass else 1


def _trajectory_counters(traj) -> dict:
    """The trajectory's counters, as written to run_meta.json."""
    return {"violation_count": traj.violation_count,
            "particle_steps": traj.particle_steps,
            "modified_steps": traj.modified_steps,
            "clipped_steps": traj.clipped_steps}


def _run_simulation(cfg: dict, args, outdir: str, dump_every=None):
    """Shared setup + integration for simulate/compare; returns (proc, traj)."""
    proc = build_process(cfg)
    seed = int(args.seed if args.seed is not None else cfg["seed"])
    # validated before the audit writes; the ensemble has its own stream
    icfg = build_integrator(cfg)
    init = build_ensemble(cfg, proc.dimension, RandomSource(seed, 2).generator)
    if not args.skip_audit:
        report = _run_audit(proc, cfg, seed, outdir, quiet=True)
        if not report.overall_pass:
            print("boundary audit failed; rerun with --skip-audit to force",
                  file=sys.stderr)
            return proc, None, seed
    ispec = cfg.get("integrator", {})
    t_end = float(ispec.get("t_end", 1.0))
    record_every = int(ispec.get("record_every", 100))
    traj = simulate(proc, init, icfg, t_end, record_every, RandomSource(seed, 0),
                    dump_every=dump_every)
    return proc, traj, seed


def cmd_simulate(cfg: dict, args) -> int:
    outdir = resolve_outdir(cfg, args)
    dump_every = cfg.get("output", {}).get("dump_every")
    proc, traj, seed = _run_simulation(cfg, args, outdir,
                                       int(dump_every) if dump_every else None)
    if traj is None:
        return 1
    write_moments_csv(os.path.join(outdir, "moments.csv"), traj, proc.dimension)
    for t, states in traj.dumps.items():
        write_ensemble_csv(os.path.join(outdir, f"ensemble_{t:g}.csv"), t, states)
    write_run_meta(os.path.join(outdir, "run_meta.json"), cfg, seed,
                   _trajectory_counters(traj))
    if traj.violation_count:
        print(f"{traj.violation_count} realizability violations recorded",
              file=sys.stderr)
        return 1
    print(f"simulate: {len(traj.snapshots)} snapshots, "
          f"{traj.particle_steps} particle-steps, 0 violations")
    return 0


def _batch_full_moments(bm: dict):
    """Per-batch reduced moments -> per-batch full mean vector and covariance.

    The remainder's moments follow from the sample-wise identities: its mean
    completes the unit sum and its covariances complete the zero row-sums.
    """
    rmean = bm["mean"]                       # (nb, K)
    rcov = bm["cov"]                         # (nb, K, K)
    nb, k = rmean.shape
    mean = np.concatenate([rmean, 1.0 - rmean.sum(axis=1, keepdims=True)], axis=1)
    cov = np.zeros((nb, k + 1, k + 1))
    cov[:, :k, :k] = rcov
    cov[:, :k, k] = -rcov.sum(axis=2)
    cov[:, k, :k] = -rcov.sum(axis=1)
    cov[:, k, k] = rcov.sum(axis=(1, 2))
    return mean, cov


def stationary_checks(traj, oracle, window, stat_tol: float):
    """Time-averaged means/covariances vs the analytic stationary values.

    Standard errors come from per-particle-batch time averages over the
    window, so slow decorrelation across snapshots is accounted for by the
    spread across independent particle batches.
    """
    lo, hi = window
    idx = [i for i, s in enumerate(traj.snapshots) if lo <= s.t <= hi]
    if not idx:
        raise InsufficientSnapshots(
            f"no snapshots inside the stationary window [{lo}, {hi}]")
    means, covs = [], []
    for i in idx:
        m, c = _batch_full_moments(traj.snapshots[i].batch_moments)
        means.append(m)
        covs.append(c)
    mean_b = np.mean(means, axis=0)          # (nb, N) per-batch time average
    cov_b = np.mean(covs, axis=0)            # (nb, N, N)
    checks = []

    def judge(name, batch_vals, oracle_vals):
        est, se = batch_mean_se(batch_vals)
        thresh = np.maximum(stat_tol * se, 1e-12)
        res = np.abs(est - oracle_vals)
        for pos in np.ndindex(est.shape):
            label = name + "[" + ",".join(str(p + 1) for p in pos) + "]"
            checks.append({"quantity": label, "value": float(est[pos]),
                           "oracle": float(oracle_vals[pos]),
                           "residual": float(res[pos]),
                           "threshold": float(thresh[pos]),
                           "passed": bool(res[pos] <= thresh[pos])})

    judge("mean", mean_b, oracle.mean)
    judge("cov", cov_b, oracle.covariance)
    return checks


def cmd_compare(cfg: dict, args) -> int:
    outdir = resolve_outdir(cfg, args)
    proc, traj, seed = _run_simulation(cfg, args, outdir)
    if traj is None:
        return 1
    cspec = cfg.get("compare", {})
    tol_multiplier = float(cspec.get("tol_multiplier", 3.0))
    rate_report = cross_validate_rates(traj, proc, tol_multiplier)
    result = {"rate_check": rate_report.to_dict()}
    passed = rate_report.overall_pass
    try:
        oracle = analytic_stationary(proc)
    except UnsupportedProcess as exc:
        result["stationary"] = {"available": False, "reason": str(exc)}
    else:
        window = cspec.get("stationary_window")
        if window is None:
            t_end = traj.times[-1]
            window = [t_end / 2.0, t_end]
        checks = stationary_checks(traj, oracle, window,
                                   float(cspec.get("stat_tol", 3.0)))
        stat_pass = all(c["passed"] for c in checks)
        result["stationary"] = {"available": True, "window": list(window),
                                "checks": checks, "overall_pass": stat_pass}
        passed = passed and stat_pass
    result["overall_pass"] = passed
    with open(os.path.join(outdir, "compare.json"), "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    write_moments_csv(os.path.join(outdir, "moments.csv"), traj, proc.dimension)
    write_run_meta(os.path.join(outdir, "run_meta.json"), cfg, seed,
                   _trajectory_counters(traj))
    print(f"compare: rate check {'pass' if rate_report.overall_pass else 'FAIL'}"
          f" (third form: {rate_report.matching_third_form},"
          f" fourth form: {rate_report.matching_fourth_form});"
          f" overall {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def _merge(base, override):
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def cmd_sweep(cfg: dict, args) -> int:
    outdir = resolve_outdir(cfg, args)
    grid = cfg.get("sweep", {}).get("grid")
    if not grid:
        raise ConfigError("sweep requires a non-empty sweep.grid list")
    rows = []
    any_failed = False
    for i, override in enumerate(grid):
        if not isinstance(override, dict):
            raise ConfigError(f"sweep grid entry {i} is not a mapping")
        point_cfg = _merge(cfg, override)
        point_cfg.pop("sweep", None)
        point_dir = os.path.join(outdir, f"point_{i:03d}")
        os.makedirs(point_dir, exist_ok=True)
        point_args = argparse.Namespace(outdir=point_dir, seed=args.seed,
                                        skip_audit=args.skip_audit)
        t0 = time.perf_counter()
        code = cmd_compare(point_cfg, point_args)
        runtime = time.perf_counter() - t0
        with open(os.path.join(point_dir, "compare.json")) as f:
            result = json.load(f)
        stat = result.get("stationary", {})
        stat_checks = stat.get("checks", [])
        max_res = max((c["residual"] for c in stat_checks), default=float("nan"))
        var_checks = [c for c in stat_checks
                      if c["quantity"].startswith("cov[1,1]")]
        var_res = var_checks[0]["residual"] if var_checks else float("nan")
        var_thr = var_checks[0]["threshold"] if var_checks else float("nan")
        rows.append((i, point_cfg.get("integrator", {}).get("dt", float("nan")),
                     1 - code, max_res, var_res, var_thr, runtime))
        any_failed |= code != 0
    with open(os.path.join(outdir, "sweep.csv"), "w") as f:
        f.write("point,dt,passed,max_stationary_residual,"
                "var1_residual,var1_threshold,runtime_s\n")
        for row in rows:
            f.write(_csv_row(row) + "\n")
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
                        help="worker hint; results are identical for any value")
    return parser


_COMMANDS = {"check": cmd_check, "simulate": cmd_simulate,
             "compare": cmd_compare, "sweep": cmd_sweep}


def keep_heap_resident():
    """Set glibc's mmap and trim thresholds so that each step's freed
    temporaries stay in the heap instead of faulting in again next step.
    Does nothing where the libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: above every per-step temporary
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: no trim of the working heap


def main(argv=None) -> int:
    keep_heap_resident()
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, InsufficientSnapshots) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimplexDiffError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
