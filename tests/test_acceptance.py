"""End-to-end acceptance checks at full desk scale.

Each criterion prints a single pass/fail line with the smallest margin of
its checks and the check it came from.  The long simulations
(10^4 particles, dt = 1e-3, t_end = 10) are shared across criteria through
module-scoped fixtures.  The nested process under its reduction coupling
is checked against the plain process twice: statistically, by stationary
moments, and deterministically, by the zero-flux stationary condition of
their shared Dirichlet invariant law at random interior states.
"""

import numpy as np
import pytest

from simplexdiff import (Ensemble, IntegratorConfig, RandomSource,
                         ToleranceSet, analytic_stationary,
                         audit_boundary,
                         audit_moment_bounds, beta_process, broken_process,
                         cross_validate_rates, dirichlet_moments,
                         dirichlet_process, estimate_moments,
                         gen_dirichlet_process, make_state, simulate,
                         wright_fisher_process)
from simplexdiff.cli import main
from simplexdiff.statistics import quantity_label

M = 10_000
DT = 1e-3
T_END = 10.0
RECORD_EVERY = 250
WINDOW = (5.0, 10.0)


def margin(residual, threshold, at_least=False):
    """(threshold - residual) / threshold: the share of a check's threshold
    left unused, negative when it fails.  A two-sided check passes |residual|.
    A check that the residual must exceed (a control that must be flagged)
    gives (residual - threshold) / threshold."""
    gap = residual - threshold if at_least else threshold - residual
    return gap / threshold


def entry_margins(name, residual, threshold):
    """{quantity label: margin} for each entry of a (...,) array check."""
    return {quantity_label(name, i): float(margin(residual[i], threshold[i]))
            for i in np.ndindex(residual.shape)}


def announce(num, desc, ok, margins=None):
    """Print the criterion's line: PASS/FAIL, the smallest of its checks'
    margins (check name -> margin) and the check it came from.  A criterion
    of exact checks (counts, bytes) has no margin."""
    if margins:
        worst = min(margins, key=margins.get)
        desc += f" [smallest margin {margins[worst]:.3f}: {worst}]"
    else:
        desc += " [exact checks, no margin]"
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def run(proc, point, seed):
    ens = Ensemble.from_delta(make_state(point), M)
    return simulate(proc, ens, IntegratorConfig(dt=DT), t_end=T_END,
                    record_every=RECORD_EVERY, rng=RandomSource(seed, 0))


@pytest.fixture(scope="module")
def beta_proc():
    return beta_process(b=2.0, S=0.5, kappa=1.0)


@pytest.fixture(scope="module")
def wf_proc():
    return wright_fisher_process(np.ones(3))


# The invariant law of these parameters is Dirichlet(2, 2, 2), whose density
# vanishes cubically at each face.  That keeps the nested process's drift
# (which carries an inverse nesting-remainder factor) light-tailed under the
# stationary law, so the rate cross-validation is statistically well posed.
_DIR_BASE = dict(b=np.array([4.0, 4.0]), S=np.array([0.5, 0.5]),
                 kappa=np.array([1.0, 1.0]))


@pytest.fixture(scope="module")
def dir_proc():
    return dirichlet_process(dirichlet_invariant=True, **_DIR_BASE)


@pytest.fixture(scope="module")
def gendir_proc():
    return gen_dirichlet_process(c="reduction", **_DIR_BASE)


@pytest.fixture(scope="module")
def beta_run(beta_proc):
    return run(beta_proc, [0.9, 0.1], 7)


@pytest.fixture(scope="module")
def wf_run(wf_proc):
    return run(wf_proc, [1 / 3, 1 / 3, 1 / 3], 11)


@pytest.fixture(scope="module")
def dir_run(dir_proc):
    return run(dir_proc, [0.3, 0.3, 0.4], 13)


@pytest.fixture(scope="module")
def gendir_run(gendir_proc):
    return run(gendir_proc, [0.3, 0.3, 0.4], 17)


@pytest.fixture(scope="module")
def all_runs(beta_run, wf_run, dir_run, gendir_run):
    return {"beta": beta_run, "wright_fisher": wf_run,
            "dirichlet": dir_run, "gen_dirichlet": gendir_run}


def stationary_batches(traj, window=WINDOW):
    """Per-particle-batch time averages of full mean and covariance."""
    inside = (window[0] <= traj.t) & (traj.t <= window[1])
    return (traj.batch_moments["mean"][inside].mean(axis=0),
            traj.batch_moments["cov"][inside].mean(axis=0))


def batch_se(values):
    return values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])


def test_criterion_01_realizability(all_runs):
    ok = True
    for name, traj in all_runs.items():
        ok &= traj.particle_steps >= 10 ** 7
        ok &= traj.violation_count == 0
    assert announce(1, "zero realizability violations over >= 1e7 "
                       "particle-steps per process", ok)


def audit_tol(check, tol=ToleranceSet()):
    if "drift" in check.constraint:
        return tol.drift_sign_tol
    return tol.diffusion_zero_tol


def test_criterion_02_boundary_audit(beta_proc, wf_proc, dir_proc, gendir_proc):
    ok = True
    margins = {}
    for proc in (beta_proc, wf_proc, dir_proc, gendir_proc):
        for seed in range(5):
            report = audit_boundary(proc, 1000, RandomSource(seed, 1))
            ok &= report.overall_pass
            for c in report.checks:
                margins[f"{proc.name} seed {seed} {c.constraint}"] = margin(
                    c.violation, audit_tol(c))
    for style in ("constant_diffusion", "outward_drift"):
        report = audit_boundary(broken_process(style), 1000, RandomSource(0, 1))
        ok &= not report.overall_pass
        margins[f"{style} control flagged"] = max(
            margin(c.violation, audit_tol(c), at_least=True)
            for c in report.checks)
        if style == "constant_diffusion":
            worst = max(c.violation for c in report.checks)
            ok &= worst >= 0.09
            margins[f"{style} control violation >= 0.09"] = margin(
                worst, 0.09, at_least=True)
    assert announce(2, "boundary audit passes all four processes (5 seeds) "
                       "and flags both broken controls", ok, margins)


def test_criterion_03_mean_relaxation(beta_run):
    ok = True
    worst = 0.0
    margins = {}
    for i, t in enumerate(beta_run.t):
        analytic = 0.5 + 0.4 * np.exp(-t)
        est = beta_run.moments.mean[i, 0]
        se = batch_se(beta_run.batch_moments["mean"][i, :, 0])
        err = abs(est - analytic)
        if t > 0.0:
            worst = max(worst, err / (3.0 * se))
            ok &= err <= 3.0 * se
            margins[f"mean[1] t={t:g}"] = margin(err, 3.0 * se)
        else:
            ok &= err <= 1e-12
            margins[f"mean[1] t={t:g}"] = margin(err, 1e-12)
    assert announce(3, "mean relaxation matches S + (Y0-S)exp(-bt/2) within "
                       f"3 SE at every snapshot (worst ratio {worst:.2f})", ok,
                    margins)


def test_criterion_04_stationary_variance(beta_run):
    mean_b, cov_b = stationary_batches(beta_run)
    var_b = cov_b[:, 0, 0]
    err = abs(var_b.mean() - 1.0 / 12.0)
    se = batch_se(var_b)
    ok = err <= 3.0 * se
    assert announce(4, "stationary variance within 3 SE of 1/12 "
                       f"(err {err:.2e}, SE {se:.2e})", ok,
                    {"cov[1,1]": margin(err, 3.0 * se)})


def test_criterion_05_covariance_structure(all_runs):
    """The remainder is estimated from the states, in the full-ensemble and
    in every per-batch moment, so none of these sums holds by construction."""
    worst = 0.0
    margins = {}
    for name, traj in all_runs.items():
        bm = traj.batch_moments
        sums = {"covariance row sums": traj.moments.covariance_row_sums(),
                "weak-constraint residual":
                    traj.moments.weak_constraint_residual(),
                "batch mean sums - 1": bm["mean"].sum(axis=2) - 1.0,
                "batch covariance row sums": bm["cov"].sum(axis=3)}
        for what, values in sums.items():
            residual = np.max(np.abs(values))
            worst = max(worst, residual)
            margins[f"{name} {what}"] = margin(residual, 1e-12)
    ok = worst <= 1e-12
    assert announce(5, "covariance row-sums, weak-constraint residual, "
                       "per-batch mean sums - 1 and per-batch covariance "
                       f"row-sums <= 1e-12 on every snapshot (worst {worst:.2e})",
                    ok, margins)


def test_criterion_06_moment_bounds(all_runs):
    ok = True
    margins = {}
    for name, traj in all_runs.items():
        # stacked: passes when every snapshot does (see test_realizability)
        report = audit_moment_bounds(traj.moments)
        ok &= report.overall_pass
        for c in report.checks:
            margins[f"{name} {c.constraint}"] = margin(np.max(c.violation),
                                                       1e-12)
    bad = estimate_moments(np.tile([0.2, 0.3, 0.5], (10, 1)))
    bad.mean = np.array([1.2, 0.3, -0.5])
    report = audit_moment_bounds(bad)
    ok &= not report.overall_pass
    margins["out-of-range control flagged"] = max(
        margin(c.violation, 1e-12, at_least=True) for c in report.checks)
    assert announce(6, "all recorded moment sets pass the bound audit; "
                       "a synthetic out-of-range set fails", ok, margins)


def test_criterion_07_wf_stationary(wf_run):
    # oracle independently verified by direct Dirichlet sampling
    oracle = dirichlet_moments(np.ones(3))
    draws = np.random.default_rng(23).dirichlet(np.ones(3), size=500_000)
    emp = estimate_moments(draws)
    assert np.max(np.abs(emp.mean - oracle.mean)) < 2e-3
    assert np.max(np.abs(emp.covariance - oracle.covariance)) < 1e-3
    assert oracle.mean[0] == pytest.approx(1 / 3)
    assert oracle.covariance[0, 0] == pytest.approx(1 / 18)
    assert oracle.covariance[0, 1] == pytest.approx(-1 / 36)

    mean_b, cov_b = stationary_batches(wf_run)
    ok = np.all(np.abs(mean_b.mean(axis=0) - oracle.mean)
                <= 3.0 * batch_se(mean_b) + 1e-12)
    ok &= np.all(np.abs(cov_b.mean(axis=0) - oracle.covariance)
                 <= 3.0 * batch_se(cov_b) + 1e-12)
    margins = {
        **entry_margins("mean", np.abs(mean_b.mean(axis=0) - oracle.mean),
                        3.0 * batch_se(mean_b) + 1e-12),
        **entry_margins("cov", np.abs(cov_b.mean(axis=0) - oracle.covariance),
                        3.0 * batch_se(cov_b) + 1e-12)}
    assert announce(7, "symmetric three-component stationary moments match "
                       "the Dirichlet oracle within 3 SE", bool(ok), margins)


def test_criterion_08_reduction_stationary(dir_run, gendir_run):
    m1, c1 = stationary_batches(dir_run)
    m2, c2 = stationary_batches(gendir_run)
    se_m = np.sqrt(batch_se(m1) ** 2 + batch_se(m2) ** 2)
    se_c = np.sqrt(batch_se(c1) ** 2 + batch_se(c2) ** 2)
    ok = np.all(np.abs(m1.mean(axis=0) - m2.mean(axis=0)) <= 3.0 * se_m)
    ok &= np.all(np.abs(c1.mean(axis=0) - c2.mean(axis=0)) <= 3.0 * se_c)
    margins = {
        **entry_margins("mean", np.abs(m1.mean(axis=0) - m2.mean(axis=0)),
                        3.0 * se_m),
        **entry_margins("cov", np.abs(c1.mean(axis=0) - c2.mean(axis=0)),
                        3.0 * se_c)}
    assert announce(8, "nested process under the reduction condition matches "
                       "the plain process in stationary moments (3 SE)",
                    bool(ok), margins)


def interior_states(k):
    return np.random.default_rng(29).dirichlet(np.ones(k + 1), size=1000)[:, :k]


def dirichlet_concentrations(proc):
    """Concentrations of the Dirichlet law whose moments analytic_stationary gives."""
    m = analytic_stationary(proc)
    total = m.mean[0] * (1.0 - m.mean[0]) / m.covariance[0, 0] - 1.0
    return total * m.mean


def zero_flux_residual(proc, omega, y):
    """Worst relative residual of the zero-flux condition at the states y.

    For a diagonal diffusion the stationary density p carries no
    probability flux when 2 A_a = B_aa d_a log(B_aa p) for every reduced
    component a.  p is the Dirichlet(omega) density, whose log-derivative
    is closed-form; d_a log B_aa is a five-point central difference with a
    step of 1e-3 times the state's smallest component, so every stencil
    point stays interior.  The residual is |lhs - rhs| / (|lhs| + |rhs|).
    """
    k = y.shape[1]
    y_last = 1.0 - y.sum(axis=1)
    h = 1e-3 * np.minimum(y.min(axis=1), y_last)
    lhs = 2.0 * proc.drift(y.T).T
    diag = proc.diffusion_diag(y.T).T
    worst = 0.0
    for a in range(k):
        def log_b(steps):
            shifted = y.copy()
            shifted[:, a] += steps * h
            return np.log(proc.diffusion_diag(shifted.T)[a])
        dlog_b = (-log_b(2) + 8.0 * log_b(1) - 8.0 * log_b(-1)
                  + log_b(-2)) / (12.0 * h)
        dlog_p = (omega[a] - 1.0) / y[:, a] - (omega[-1] - 1.0) / y_last
        rhs = diag[:, a] * (dlog_b + dlog_p)
        gap = np.abs(lhs[:, a] - rhs) / (np.abs(lhs[:, a]) + np.abs(rhs))
        worst = max(worst, float(np.max(gap)))
    return worst


def test_criterion_08_reduction_pointwise(dir_proc, gendir_proc):
    """Both generators carry no stationary flux under the shared invariant law.

    The nested generator differs from the plain one function-by-function
    through its nesting prefactor; what the reduction coupling promises is
    the same Dirichlet invariant law.  At 1,000 random interior states the
    zero-flux condition must hold for the plain process and for the nested
    process under the reduction coupling, for the acceptance parameters
    (K = 2, equal kappa) and for K = 3 with unequal kappa, where the
    coupling must be c[a, beta] = kappa[a].  The uncoupled nested process
    (c = 0) must violate it.
    """
    uneven = dict(b=np.array([2.0, 4.0, 6.0]), S=np.full(3, 0.5),
                  kappa=np.array([1.0, 2.0, 3.0]))
    cases = [(dir_proc, gendir_proc),
             (dirichlet_process(dirichlet_invariant=True, **uneven),
              gen_dirichlet_process(c="reduction", **uneven))]
    worst = 0.0
    for plain, nested in cases:
        y = interior_states(plain.k)
        omega = dirichlet_concentrations(plain)
        worst = max(worst, zero_flux_residual(plain, omega, y),
                    zero_flux_residual(nested, omega, y))
    uncoupled = gen_dirichlet_process(c=np.zeros((1, 1)), **_DIR_BASE)
    control = zero_flux_residual(uncoupled, dirichlet_concentrations(dir_proc),
                                 interior_states(2))
    ok = worst <= 1e-6 and control > 1e-6
    announce(8, "zero stationary flux of the shared Dirichlet law for the "
                f"plain and the reduced nested process (worst residual "
                f"{worst:.2e}; uncoupled control {control:.2e})", ok,
             {"zero-flux residual": margin(worst, 1e-6),
              "uncoupled control": margin(control, 1e-6, at_least=True)})
    assert ok, ("zero-flux condition of the shared invariant law: worst "
                f"residual {worst:.3e} (tolerance 1e-6), uncoupled control "
                f"{control:.3e} (must exceed 1e-6)")


def rate_margins(name, traj, forms, tol_multiplier=3.0, probe=1e-9):
    """Margins of the rate checks of the given forms at tol_multiplier.

    cross_validate_rates reports a check's fd, rate and threshold only when
    it fails; at tol_multiplier probe every check fails whose |fd - rate|
    exceeds probe times its allowance, so those are all that could come
    near failing at tol_multiplier."""
    scale = tol_multiplier / probe
    return {f"{name} {f['quantity']} t={f['t']:g}":
            margin(abs(f["fd"] - f["rate"]), scale * f["threshold"])
            for f in cross_validate_rates(traj, probe)["failures"]
            if f["quantity"].split("[")[0] in forms}


def test_criterion_09_rate_cross_validation(all_runs):
    ok = True
    reports = {}
    margins = {}
    for name, traj in all_runs.items():
        rep = cross_validate_rates(traj, tol_multiplier=3.0)
        reports[name] = rep
        ok &= rep["form_pass"]["mean"] and rep["form_pass"]["cov"]
        forms = (("mean", "cov", "third", "fourth") if name == "wright_fisher"
                 else ("mean", "cov"))
        margins.update(rate_margins(name, traj, forms))
    wf_rep = reports["wright_fisher"]
    ok &= wf_rep["form_pass"]["third"] and wf_rep["form_pass"]["fourth"]
    assert announce(9, "finite differences match mean/covariance rates on all "
                       "four processes and the third/fourth rates on "
                       "Wright-Fisher", ok, margins)


def test_criterion_10_threads_determinism(tmp_path):
    import yaml
    cfg = {"schema_version": 1,
           "process": {"name": "beta",
                       "params": {"b": 2.0, "S": 0.5, "kappa": 1.0}},
           "integrator": {"dt": 1e-3, "t_end": 1.0, "record_every": 100},
           "ensemble": {"size": 1000,
                        "initial": {"kind": "delta", "point": [0.9, 0.1]}},
           "seed": 7, "audit": {"samples_per_face": 100}}
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    blobs = []
    for i, threads in enumerate(("1", "4")):
        out = tmp_path / f"out{i}"
        assert main(["simulate", "--config", str(cfg_path), "--outdir",
                     str(out), "--threads", threads]) == 0
        blobs.append((out / "moments.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    assert announce(10, "identical seed with different --threads gives "
                        "byte-identical moments.csv", ok)


def test_criterion_11_dt_refinement(beta_proc, beta_run):
    errors, ses = [], []
    for dt in (4e-3, 2e-3, 1e-3):
        if dt == 1e-3:
            traj = beta_run
        else:
            ens = Ensemble.from_delta(make_state([0.9, 0.1]), M)
            traj = simulate(beta_proc, ens, IntegratorConfig(dt=dt),
                            t_end=T_END, record_every=RECORD_EVERY,
                            rng=RandomSource(7, 0))
        mean_b, cov_b = stationary_batches(traj)
        var_b = cov_b[:, 0, 0]
        errors.append(abs(var_b.mean() - 1.0 / 12.0))
        ses.append(batch_se(var_b))
    ok = True
    margins = {}
    dts = (4e-3, 2e-3, 1e-3)
    for i in range(len(errors) - 1):
        slack = 2.0 * np.sqrt(ses[i] ** 2 + ses[i + 1] ** 2)
        ok &= errors[i + 1] <= errors[i] + slack
        # one-sided: the error may fall by any amount
        margins[f"dt {dts[i]:g} -> {dts[i + 1]:g}"] = margin(
            errors[i + 1] - errors[i], slack)
    assert announce(11, "stationary-variance error non-increasing over "
                        f"dt 4e-3 -> 1e-3 within 2 SE (errors "
                        f"{', '.join('%.2e' % e for e in errors)})", ok,
                    margins)
