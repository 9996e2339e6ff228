import dataclasses
import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from simplexdiff import (Ensemble, InsufficientSnapshots, IntegratorConfig,
                         InvalidParameter, RandomSource, Trajectory,
                         UnsupportedProcess, analytic_stationary,
                         beta_process, broken_process,
                         dirichlet_moments, dirichlet_process,
                         estimate_moments, estimate_rates,
                         gen_dirichlet_process, make_state, simulate,
                         wright_fisher_process)
from simplexdiff import statistics
from simplexdiff.realizability import diffusion_matrices
from simplexdiff.statistics import (batch_slices, batch_statistics,
                                    cross_validate_rates, judged_snapshots)


def test_degenerate_ensemble_moments():
    states = np.tile([0.2, 0.3, 0.5], (10, 1))
    m = estimate_moments(states)
    npt.assert_allclose(m.mean, [0.2, 0.3, 0.5], atol=1e-16)
    npt.assert_array_equal(m.covariance, np.zeros((3, 3)))
    npt.assert_array_equal(m.third, np.zeros(3))
    assert np.all(np.isnan(m.skewness))
    assert np.all(np.isnan(m.kurtosis))


def test_two_point_ensemble_moments():
    states = np.array([[1.0, 0.0], [0.0, 1.0]])
    m = estimate_moments(states)
    npt.assert_allclose(m.mean, [0.5, 0.5])
    npt.assert_allclose(np.diagonal(m.covariance), [0.25, 0.25])
    npt.assert_allclose(m.skewness, [0.0, 0.0], atol=1e-15)
    npt.assert_allclose(m.kurtosis, [1.0, 1.0])
    # skewness and kurtosis follow a replaced covariance
    skewed = dataclasses.replace(m, third=np.array([0.1, -0.1]))
    npt.assert_allclose(skewed.skewness, [0.8, -0.8])
    wide = dataclasses.replace(skewed, covariance=4.0 * m.covariance)
    npt.assert_allclose(wide.skewness, [0.1, -0.1])
    npt.assert_allclose(wide.kurtosis, [1.0 / 16.0, 1.0 / 16.0])


def _batch_moments(states, edges):
    """Batch moments of states[edges[i]:edges[i+1]], each estimated alone."""
    parts = [estimate_moments(states[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    return {"count": np.diff(edges), "mean": np.stack([p.mean for p in parts]),
            "cov": np.stack([p.covariance for p in parts]),
            "third": np.stack([p.third for p in parts]),
            "fourth": np.stack([p.fourth for p in parts])}


def test_moments_match_exact_two_pass_sums():
    """Every particle-axis sum is pairwise: 1e6 draws agree with math.fsum,
    estimated in one batch and merged from 20 uneven batches."""
    draws = np.random.default_rng(41).dirichlet([2.0, 3.0, 5.0], size=10 ** 6)
    edges = np.concatenate([[0], np.sort(np.random.default_rng(42).choice(
        np.arange(1, draws.shape[0]), 19, replace=False)), [draws.shape[0]]])
    assert len(set(np.diff(edges))) == 20
    whole = estimate_moments(draws)
    merged = estimate_moments(draws, _batch_moments(draws, edges))
    for i in range(3):
        x = draws[:, i]
        mean = math.fsum(x.tolist()) / x.size
        c = x - mean
        c2 = c * c
        ref = {"mean": mean, "var": math.fsum(c2.tolist()) / x.size,
               "third": math.fsum((c2 * c).tolist()) / x.size,
               "fourth": math.fsum((c2 * c2).tolist()) / x.size}
        for m in (whole, merged):
            got = {"mean": m.mean[i], "var": m.covariance[i, i],
                   "third": m.third[i], "fourth": m.fourth[i]}
            for key, value in ref.items():
                assert abs(got[key] - value) <= 1e-14 * abs(value), (i, key)


def test_merge_needs_every_particle():
    states = np.random.default_rng(43).dirichlet(np.ones(3), size=100)
    with pytest.raises(ValueError, match="batches hold 60"):
        estimate_moments(states, _batch_moments(states[:60], [0, 30, 60]))


def test_moments_too_small():
    with pytest.raises(InvalidParameter, match="^states: need M >= 2"):
        estimate_moments(np.array([[1.0, 0.0]]))


def test_covariance_row_sums_vanish():
    rng = np.random.default_rng(11)
    states = rng.dirichlet([0.5, 1.0, 2.0], size=5000)
    m = estimate_moments(states)
    npt.assert_allclose(m.covariance_row_sums(), 0.0, atol=1e-12)
    assert abs(m.weak_constraint_residual()) <= 1e-12
    npt.assert_allclose(m.mean.sum(), 1.0, atol=1e-12)


def test_n2_variance_identity():
    rng = np.random.default_rng(12)
    states = rng.dirichlet([2.0, 3.0], size=2000)
    m = estimate_moments(states)
    npt.assert_allclose(m.covariance[0, 0], m.covariance[1, 1], atol=1e-15)
    npt.assert_allclose(m.covariance[0, 1], -m.covariance[0, 0], atol=1e-15)


def test_beta_mean_rate_affine_identity():
    p = beta_process(b=2.0, S=0.5, kappa=1.0)
    rng = np.random.default_rng(13)
    states = rng.dirichlet([1.0, 1.0], size=1000)
    r = estimate_rates(states, p)
    mean = states[:, 0].mean()
    npt.assert_allclose(r["mean"][0], 1.0 * (0.5 - mean), rtol=1e-12)


def test_beta_cov_rate_identity():
    """C = -b<y^2> + kappa(<Y> - <Y^2>) for the scalar process."""
    b, S, kappa = 2.0, 0.5, 1.0
    p = beta_process(b=b, S=S, kappa=kappa)
    rng = np.random.default_rng(14)
    states = rng.dirichlet([1.0, 1.0], size=1000)
    r = estimate_rates(states, p)
    y1 = states[:, 0]
    expected = -b * y1.var() + kappa * (y1.mean() - np.mean(y1 ** 2))
    npt.assert_allclose(r["cov"][0, 0], expected, rtol=1e-10)


def test_degenerate_cov_rate_equals_diffusion():
    p = dirichlet_process(b=np.array([2.0, 2.0]),
                          S=np.array([0.5, 0.5]),
                          kappa=np.array([1.0, 1.0]))
    states = np.tile([0.25, 0.25, 0.5], (10, 1))
    r = estimate_rates(states, p)
    npt.assert_allclose(r["cov"], np.diag([0.125, 0.125]), atol=1e-15)


def test_cov_rate_symmetry():
    p = wright_fisher_process(np.array([1.0, 2.0, 3.0]))
    rng = np.random.default_rng(15)
    states = rng.dirichlet([1.0, 1.0, 1.0], size=500)
    r = estimate_rates(states, p)
    npt.assert_array_equal(r["cov"], r["cov"].T)


def _static_process(n=3):
    k = n - 1

    def drift(y):
        return np.zeros_like(y)

    def diffusion(y):
        return np.zeros((k,) + y.shape)

    from simplexdiff import ProcessDefinition
    return ProcessDefinition(dimension=n, drift=drift, diffusion=diffusion,
                             name="static")


def test_cross_validation_static_process():
    p = _static_process()
    ens = Ensemble.from_uniform(3, 400, np.random.default_rng(17))
    traj = simulate(p, ens, IntegratorConfig(dt=1e-2), t_end=0.3,
                    record_every=5, rng=RandomSource(18, 0))
    rep = cross_validate_rates(traj)
    assert rep["overall_pass"]
    assert rep["form_pass"] == dict.fromkeys(("mean", "cov", "third", "fourth"),
                                             True)
    # every check made is counted: 5 interior snapshots x 10 entries at
    # K = 2 (mean 2, cov 4, third 2, fourth 2)
    assert rep["n_checks"] == 5 * 10
    assert rep["failures"] == []


def test_cross_validation_needs_three_snapshots():
    """A central difference needs an interior snapshot: a run that records
    only t = 0 and its last step is refused."""
    ens = Ensemble.from_uniform(3, 50, np.random.default_rng(17))
    traj = simulate(_static_process(), ens, IntegratorConfig(dt=1e-2),
                    t_end=0.05, record_every=5, rng=RandomSource(18, 0))
    assert traj.t.size == 2
    with pytest.raises(InsufficientSnapshots, match="need >= 3 snapshots, got 2"):
        cross_validate_rates(traj)


def _exact_trajectory(times, dt=1e-3):
    """A two-component Trajectory of 20 identical batches whose every
    moment entry is m = t^2 and every rate entry its derivative 2t."""
    t = np.array(times)

    def entries(value, shape):
        column = value.reshape((-1, 1) + (1,) * len(shape))
        return np.broadcast_to(column, (t.size, 20) + shape).copy()

    shapes = {"mean": (2,), "cov": (2, 2), "third": (2,), "fourth": (2,)}
    return Trajectory(
        t, None, {key: entries(t ** 2, s) for key, s in shapes.items()},
        {key: entries(2.0 * t, tuple(1 for _ in s)) for key, s in shapes.items()},
        IntegratorConfig(dt=dt), 0, 0, 0, 0, {})


def test_cross_validation_judges_evenly_spaced_snapshots():
    """Only an interior snapshot whose two intervals hold the same number of
    steps is judged.  On exact data, steps (0, 400, 500) failed every form
    (fd 0.5 against rate 0.8, threshold 0.0024) and are refused now; steps
    (0, 400, 800, 900) judged t = 0.8 against a curvature of -60, which
    lifted its threshold to 1.88, and now judge t = 0.4 alone."""
    with pytest.raises(InsufficientSnapshots,
                       match=r"^no interior snapshot has two intervals of "
                             r"equal steps, snapshot steps \[0, 400, 500\]$"):
        cross_validate_rates(_exact_trajectory([0.0, 0.4, 0.5]))
    npt.assert_array_equal(judged_snapshots([0, 400, 800, 900]), [1])
    npt.assert_array_equal(judged_snapshots([0, 2, 4, 6, 7]), [1, 2])
    traj = _exact_trajectory([0.0, 0.4, 0.8, 0.9])
    rep = cross_validate_rates(traj)
    assert rep["overall_pass"] and rep["n_checks"] == 4 and not rep["failures"]
    # an fd error of 0.0125 at t = 0.4 fails against 3 dt |rate| = 0.0024
    traj.batch_moments["mean"][2] += 0.01
    (failure,) = cross_validate_rates(traj)["failures"]
    assert failure["quantity"] == "mean[1]" and failure["t"] == 0.4
    assert failure["fd"] == pytest.approx(0.8125)
    assert failure["threshold"] == pytest.approx(0.0024)


def _reference_cross_validate(traj, tol_multiplier):
    """The per-snapshot loop that cross_validate_rates replaced, as its dict
    without n_checks; it recorded failed checks only."""
    times = traj.t
    dt = traj.config.dt
    n_rates = traj.batch_rates["mean"].shape[2]
    failures, form_pass = [], {}
    for key in ("mean", "cov", "third", "fourth"):
        # the batch moments cover all N components, the rates the K reduced
        bmom = traj.batch_moments[key][..., :n_rates]
        if key == "cov":
            bmom = bmom[..., :n_rates, :]
        brate = traj.batch_rates[key]
        rate_overall = brate.mean(axis=1)
        ok = True
        for k in range(1, times.size - 1):
            h = times[k + 1] - times[k - 1]
            fd_b = (bmom[k + 1] - bmom[k - 1]) / h
            diff_b = fd_b - brate[k]
            nb = diff_b.shape[0]
            mean_diff = diff_b.mean(axis=0)
            se = diff_b.std(axis=0, ddof=1) / np.sqrt(nb)
            if times.size >= 4:
                rdd = (rate_overall[k + 1] - 2.0 * rate_overall[k]
                       + rate_overall[k - 1]) / ((times[k + 1] - times[k]) ** 2)
            else:
                rdd = np.zeros_like(mean_diff)
            trunc = (h / 2.0) ** 2 / 6.0 * np.abs(rdd)
            em = dt * np.abs(rate_overall[k])
            threshold = tol_multiplier * (se + trunc + em)
            bad = np.abs(mean_diff) > threshold
            for idx in np.argwhere(bad):
                ok = False
                tup = tuple(int(i) for i in idx)
                failures.append({
                    "quantity": key + "[" + ",".join(str(i + 1) for i in tup)
                    + "]",
                    "t": float(times[k]), "fd": float(fd_b.mean(axis=0)[tup]),
                    "rate": float(brate[k].mean(axis=0)[tup]),
                    "threshold": float(threshold[tup]), "passed": False})
        form_pass[key] = ok
    return {"overall_pass": all(form_pass.values()), "form_pass": form_pass,
            "failures": failures}


@pytest.mark.parametrize("record_every", [10, 4])
def test_cross_validation_matches_per_snapshot_loop(record_every):
    """All interior snapshots judged at once give the per-snapshot loop's
    verdicts, failures and numbers exactly, with 3 and with 6 snapshots."""
    p = dirichlet_process(b=np.array([4.0, 4.0]),
                          S=np.array([0.5, 0.5]),
                          kappa=np.array([1.0, 1.0]))
    ens = Ensemble.from_delta(make_state([0.3, 0.3, 0.4]), 2000)
    traj = simulate(p, ens, IntegratorConfig(dt=1e-2), t_end=0.2,
                    record_every=record_every, rng=RandomSource(31, 0))
    interior = traj.t.size - 2
    assert interior == {10: 1, 4: 4}[record_every]
    # at 2.0 only a third or fourth rate check fails, which fails the run
    for tol in (3.0, 2.0, 1.0):
        got = cross_validate_rates(traj, tol)
        assert got.pop("n_checks") == interior * 10
        ref = _reference_cross_validate(traj, tol)
        # a passing and a failing verdict: the failure records are compared
        assert bool(ref["failures"]) == (tol < 3.0)
        assert got == ref


def test_dirichlet_moments_against_sampling():
    """Analytic Dirichlet moments vs direct numpy sampling."""
    flat = dirichlet_moments(np.ones(3))
    # each component is Beta(1, 2): both central moments are 1/135 exactly
    npt.assert_array_equal(flat.third, np.full(3, 1.0 / 135.0))
    npt.assert_array_equal(flat.fourth, np.full(3, 1.0 / 135.0))
    alpha = np.array([1.0, 2.0, 3.0])
    m = dirichlet_moments(alpha)
    rng = np.random.default_rng(19)
    draws = rng.dirichlet(alpha, size=400000)
    emp = estimate_moments(draws)
    npt.assert_allclose(m.mean, emp.mean, atol=3e-3)
    npt.assert_allclose(m.covariance, emp.covariance, atol=1e-3)
    npt.assert_allclose(m.third, emp.third, atol=5e-4)
    npt.assert_allclose(m.fourth, emp.fourth, atol=5e-4)


def test_stationary_beta_oracle_vs_sampling():
    p = beta_process(b=2.0, S=0.5, kappa=1.0)
    m = analytic_stationary(p)
    npt.assert_allclose(m.mean, [0.5, 0.5])
    npt.assert_allclose(m.covariance[0, 0], 1.0 / 12.0)
    rng = np.random.default_rng(20)
    draws = rng.beta(1.0, 1.0, size=200000)
    assert abs(draws.var() - m.covariance[0, 0]) < 2e-3


def test_stationary_wf_oracle():
    """The oracle comes with the process, so a renamed copy keeps it."""
    p = wright_fisher_process(np.ones(3))
    for proc in (p, dataclasses.replace(p, name="custom")):
        m = analytic_stationary(proc)
        npt.assert_allclose(m.mean, 1.0 / 3.0)
        npt.assert_allclose(np.diagonal(m.covariance), 1.0 / 18.0)
        npt.assert_allclose(m.covariance[0, 1], -1.0 / 36.0)


def test_stationary_dirichlet_oracle():
    p = dirichlet_process(b=np.array([2.0, 2.0]),
                          S=np.array([0.5, 0.5]),
                          kappa=np.array([1.0, 1.0]),
                          dirichlet_invariant=True)
    m = analytic_stationary(p)
    npt.assert_allclose(m.mean, dirichlet_moments(np.ones(3)).mean)


def test_stationary_unsupported():
    p = gen_dirichlet_process(
        b=np.array([2.0, 2.0]), S=np.array([0.5, 0.5]),
        kappa=np.array([1.0, 1.0]), c=np.array([[1.0]]))
    p2 = dirichlet_process(b=np.array([2.0, 2.0]),
                           S=np.array([0.5, 0.4]),
                           kappa=np.array([1.0, 1.0]))
    for proc in (p, p2, broken_process("constant_diffusion"),
                 broken_process("outward_drift")):
        assert proc.invariant_dirichlet is None
        with pytest.raises(UnsupportedProcess,
                           match=f"no analytic stationary moments for '{proc.name}'"):
            analytic_stationary(proc)


@pytest.mark.parametrize("S", [0.0, 1.0])
def test_stationary_beta_oracle_at_absorbing_target(S):
    """With S at a face the invariant law is the point mass there: the
    Dirichlet moments give its mean and zero covariance bit for bit."""
    m = analytic_stationary(beta_process(b=2.0, S=S, kappa=1.0))
    assert m.mean.tobytes() == np.array([S, 1.0 - S]).tobytes()
    assert m.covariance.tobytes() == np.zeros((2, 2)).tobytes()


def _dirichlet_rule(alpha, n_nodes=6):
    """Nodes (K, Q) and weights (Q,) integrating polynomials against the
    Dirichlet(alpha) law, alpha integral: a collapsed Gauss-Legendre product
    rule, y_i = u_i prod_{j<i} (1 - u_j), exact to degree 2 n_nodes - 2."""
    k = len(alpha) - 1
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    grid = [g.ravel() for g in np.meshgrid(*[(x + 1.0) / 2.0] * k, indexing="ij")]
    wt = np.prod(np.meshgrid(*[w / 2.0] * k, indexing="ij"), axis=0).ravel()
    y, rest = np.empty((k, grid[0].size)), np.ones(grid[0].size)
    for i, u in enumerate(grid):
        y[i] = rest * u
        wt = wt * rest  # the Jacobian is prod_i prod_{j<i} (1 - u_j)
        rest = rest * (1.0 - u)
    full = np.vstack([y, rest])
    wt = wt * np.prod(full ** (np.asarray(alpha)[:, None] - 1.0), axis=0)
    return y, wt / wt.sum()


def _invariant_rates(proc):
    """Moment rates at the process's invariant law, exact on _dirichlet_rule:
    the Ito forms batch_statistics computes, and the printed forms (raw
    drift, diffusion trace) that they replaced."""
    y, w = _dirichlet_rule(proc.invariant_dirichlet)

    def expect(v):
        return v @ w
    a, B = proc.drift(y), diffusion_matrices(proc)(y)
    d = np.einsum("iiq->iq", B)
    trace = d.sum(axis=0)
    c, ac = y - expect(y)[:, None], a - expect(a)[:, None]
    return y, w, {
        "mean": expect(a), "cov": (c * w) @ a.T + (a * w) @ c.T + expect(B),
        "third": 3.0 * expect(c ** 2 * ac) + 3.0 * expect(c * d),
        "fourth": 4.0 * expect(c ** 3 * ac) + 6.0 * expect(c ** 2 * d),
        "third_printed": 3.0 * expect(c ** 2 * a) + 3.0 * expect(c * trace),
        "fourth_printed": (4.0 * expect(c ** 3 * a)
                           + 6.0 * expect(c ** 2 * trace))}


@pytest.mark.parametrize("name,printed", [
    ("beta", None),
    ("wright_fisher", (-1.0 / 60.0, 2.0 / 45.0)),
    ("dirichlet", (-1.0 / 42.0, 1.0 / 63.0))])
def test_ito_rates_vanish_at_the_invariant_law(name, printed):
    """Every Ito moment rate is 0 at the invariant law, integrated exactly
    with the process closures; the printed third and fourth rates are not
    (with K = 1, beta's printed forms are the Ito forms)."""
    proc = {"beta": beta_process(b=2.0, S=0.5, kappa=1.0),
            "wright_fisher": wright_fisher_process(np.ones(3)),
            "dirichlet": dirichlet_process(
                b=np.array([4.0, 4.0]), S=np.array([0.5, 0.5]),
                kappa=np.array([1.0, 1.0]), dirichlet_invariant=True)}[name]
    y, w, rates = _invariant_rates(proc)
    # the rule reproduces the exact moments of the invariant law
    exact = analytic_stationary(proc)
    c = y - exact.mean[:-1, None]
    npt.assert_allclose(y @ w, exact.mean[:-1], rtol=0, atol=1e-15)
    npt.assert_allclose((c * w) @ c.T, exact.covariance[:-1, :-1], rtol=0,
                        atol=1e-15)
    npt.assert_allclose((c ** 3) @ w, exact.third[:-1], rtol=0, atol=1e-15)
    npt.assert_allclose((c ** 4) @ w, exact.fourth[:-1], rtol=0, atol=1e-15)
    for key in ("mean", "cov", "third", "fourth"):
        assert np.max(np.abs(rates[key])) <= 1e-14, key
    if printed is None:
        npt.assert_allclose(rates["third_printed"], rates["third"], atol=1e-15)
        npt.assert_allclose(rates["fourth_printed"], rates["fourth"], atol=1e-15)
    else:
        npt.assert_allclose(rates["third_printed"], printed[0], rtol=1e-13)
        npt.assert_allclose(rates["fourth_printed"], printed[1], rtol=1e-13)


def _reference_batch_statistics(states, proc, n_batches=20):
    """A particle-major per-batch loop: moments of all N components, the
    remainder read from the states, and rates of the K reduced ones."""
    def central_moments(x):
        mean = x.mean(axis=0)
        mean = mean + (x - mean).mean(axis=0)
        y = x - mean
        return (mean, y.T @ y / x.shape[0], np.mean(y ** 3, axis=0),
                np.mean(y ** 4, axis=0))

    def rates(y, a, B):
        m = y.shape[0]
        mean_rate = a.mean(axis=0)
        diag = np.diagonal(B, axis1=-2, axis2=-1)
        ac = a - mean_rate
        return {"mean": mean_rate,
                "cov": (y.T @ a + a.T @ y) / m + B.mean(axis=0),
                "third": (3.0 * np.mean(y ** 2 * ac, axis=0)
                          + 3.0 * np.mean(y * diag, axis=0)),
                "fourth": (4.0 * np.mean(y ** 3 * ac, axis=0)
                           + 6.0 * np.mean(y ** 2 * diag, axis=0))}

    reduced = states[:, :-1]
    a = proc.drift(reduced.T.copy()).T
    B = np.moveaxis(diffusion_matrices(proc)(reduced.T.copy()), -1, 0)
    bm, br = {}, {}
    for sl in batch_slices(states.shape[0], n_batches):
        mean, cov, third, fourth = central_moments(states[sl])
        for key, value in zip(("count", "mean", "cov", "third", "fourth"),
                              (sl.stop - sl.start, mean, cov, third, fourth)):
            bm.setdefault(key, []).append(value)
        for key, value in rates(reduced[sl] - mean[:-1], a[sl], B[sl]).items():
            br.setdefault(key, []).append(value)
    return ({k: np.stack(v) for k, v in bm.items()},
            {k: np.stack(v) for k, v in br.items()})


def _statistics_processes():
    """Each family at N = 2, 3 and 8, and a user process with only diffusion."""
    procs = {"beta": beta_process(b=2.0, S=0.4, kappa=1.5)}
    for n in (3, 8):
        k = n - 1
        base = dict(b=np.linspace(2.0, 4.0, k), S=np.full(k, 0.4),
                    kappa=np.linspace(1.0, 2.0, k))
        procs[f"dirichlet-{n}"] = dirichlet_process(**base)
        procs[f"wright_fisher-{n}"] = wright_fisher_process(np.linspace(0.5, 3.0, n))
        procs[f"nested-{n}"] = gen_dirichlet_process(
            c=np.triu(np.ones((k - 1, k - 1))), **base)
    procs["user-3"] = dataclasses.replace(
        procs["dirichlet-3"], diffusion=diffusion_matrices(procs["dirichlet-3"]),
        diffusion_diag=None, name="user")
    return procs


def _assert_scaled_close(got, ref, what):
    assert got.shape == ref.shape, what
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), what


@pytest.mark.parametrize("m", [10 ** 4, 1003, 7])
@pytest.mark.parametrize("name", list(_statistics_processes()))
def test_batch_statistics_match_per_batch_loop(name, m):
    """Segment sums over the batches agree with a loop over batch slices."""
    proc = _statistics_processes()[name]
    states = np.random.default_rng(23).dirichlet(np.full(proc.dimension, 1.5),
                                                 size=m)
    got = batch_statistics(states, proc)
    ref = _reference_batch_statistics(states, proc)
    assert got[0]["mean"].shape[0] == min(m, 20)
    for g, r in zip(got, ref):
        assert g.keys() == r.keys()
        for key in r:
            _assert_scaled_close(g[key], r[key], key)
    rates = estimate_rates(states, proc)
    _, whole = _reference_batch_statistics(states, proc, n_batches=1)
    assert rates.keys() == whole.keys()
    for key, value in rates.items():
        _assert_scaled_close(value, whole[key][0], key)


@pytest.mark.parametrize("m", [10 ** 4, 1003])
@pytest.mark.parametrize("name", ["wright_fisher-8", "dirichlet-8", "nested-8"])
def test_batch_statistics_chunks_are_local(name, m):
    """At N = 8 the pass walks the batches in several chunks; every batch's
    row is still the one-batch pass over that batch's particles alone, to
    the byte."""
    proc = _statistics_processes()[name]
    states = np.random.default_rng(31).dirichlet(np.full(proc.dimension, 1.5),
                                                 size=m)
    got = batch_statistics(states, proc)
    for b, sl in enumerate(batch_slices(m, 20)):
        alone = batch_statistics(states[sl], proc, 1)
        for g, a in zip(got, alone):
            assert g.keys() == a.keys()
            for key in a:
                assert np.array_equal(g[key][b], a[key][0]), (b, key)


def _statistics_digest(stats):
    """sha256 of every key, shape and byte of batch_statistics' two dicts."""
    h = hashlib.sha256()
    for part in stats:
        for key, value in part.items():
            h.update(f"{key}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


BATCH_STATISTICS_SHA256 = {
    ("beta", 10000): "579be130333ca0c0db1ccc05ef774d9c83afab841cd037b154289738e736596d",
    ("beta", 10001): "01e6de38b8718d8f7024361bdd547f110e7101231fe0bb10288d37934a30318d",
    ("beta", 1003): "6bfe44762d71251c959d5dc27642746b217488424e8baea162dfec3c99708ef1",
    ("dirichlet-3", 10000): "e83ae84187a49b16b849aed952e49742c3ff59fbc4e243f985ce88ccbb79fa07",
    ("dirichlet-3", 10001): "5d4ddde3298b90d3628b1ce1c7621bb76d597c348b7550aaf1b0e70c97e4a1c5",
    ("dirichlet-3", 1003): "5cabd195c3469604a94f95b0fa7c5036b07661575402b3c2b9c1d05448ebada7",
    ("wright_fisher-3", 10000): "7292a5f6c3f2b19f3463b140b3d6faa4fd471d7bb69d216a9f275180813d3698",
    ("wright_fisher-3", 10001): "1b90e397ff564e5d4d003b769f99ccebf12d4b26f80d33fb77bee297755ef104",
    ("wright_fisher-3", 1003): "1418dcd9d12a88f146f24c12c5ddaa2737d6cb182924a483e508ad16cea511e2",
    ("nested-3", 10000): "55551877c3e91ad5088ea6c55ca0b4cf0021b7e3f2dceed0aa6d6670dc89ff83",
    ("nested-3", 10001): "383dc1697112db1460ecf60c9e306f0396284d53623ac3c3ee96fddd3c6a2721",
    ("nested-3", 1003): "3bde3dac08fe7b05381c00f4d732500df9ad28cbd00641decdc732f076157c63",
    ("dirichlet-8", 10000): "c84d63f980be2135d1d190d6beef71470497c6718400803fcb51f0a43843f0e4",
    ("dirichlet-8", 10001): "49db33a5ce8c9c3ccb8582349a91f79e45c032b2f41c5eaf8acd64d3e6c55ae2",
    ("dirichlet-8", 1003): "cb3423447edff5efcb772ebb3d10aba1734be4212c94273a39a46a69b86c6775",
    ("wright_fisher-8", 10000): "1a26e96cde7031b92063b6703b1a3f6f0b7783adcec87c028a3ad540e1071d20",
    ("wright_fisher-8", 10001): "e5cc9000a2d66bf316e6273073595a347625df83f18a3c9cfd78406c69147491",
    ("wright_fisher-8", 1003): "64f1745aee6c877a72462f07f58138d5e920cf5ccecdccec64165a524f8be8cd",
    ("nested-8", 10000): "02e9b4c0960c4eb56ededabde262a5aee91638287da2720d7586723c149b68bd",
    ("nested-8", 10001): "536b58adc2dabeed5b3535c6537ec1353965b9cd58a977ab366977a737df0961",
    ("nested-8", 1003): "951a4bcb1aa7684261ff877bf804b8eacb7945fc293086fcea24e0dd3e105c39",
    ("user-3", 10000): "e83ae84187a49b16b849aed952e49742c3ff59fbc4e243f985ce88ccbb79fa07",
    ("user-3", 10001): "5d4ddde3298b90d3628b1ce1c7621bb76d597c348b7550aaf1b0e70c97e4a1c5",
    ("user-3", 1003): "5cabd195c3469604a94f95b0fa7c5036b07661575402b3c2b9c1d05448ebada7",
}


@pytest.mark.parametrize("name, m", sorted(BATCH_STATISTICS_SHA256))
def test_batch_statistics_pinned(name, m):
    """A guard against any change in the bits of a snapshot's statistics:
    M = 10^4 tiles 20 equal batches, M = 10,001 and 1003 mix two batch
    sizes, and at N = 8 the pass walks several chunks."""
    proc = _statistics_processes()[name]
    states = np.random.default_rng(43).dirichlet(np.full(proc.dimension, 1.5),
                                                 size=m)
    got = _statistics_digest(batch_statistics(states, proc))
    assert got == BATCH_STATISTICS_SHA256[name, m]


@pytest.mark.parametrize("name", ["wright_fisher-8", "dirichlet-8", "nested-8"])
def test_batch_statistics_peak_memory(name):
    """One snapshot pass at N = 8, M = 10^4 allocates at most 4 MB at peak.

    The bound comes from the (K, K, M) diffusion block: 3.9 MB at K = 7,
    which a whole-ensemble pass holds beside the centred powers (4.9 MB
    Dirichlet to 8.2 MB Wright-Fisher at peak).  A pass in chunks of at
    most CHUNK_BYTES (2 MiB) of work buffer, drift and block peaks at
    1.7-2.6 MB, the 0.64 MB of component-major states included; 4 MB lies
    below the whole block alone.
    """
    import tracemalloc
    proc = _statistics_processes()[name]
    states = np.random.default_rng(37).dirichlet(np.full(proc.dimension, 1.5),
                                                 size=10 ** 4)
    batch_statistics(states, proc)
    tracemalloc.start()
    try:
        batch_statistics(states, proc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, f"{peak / 1e6:.2f} MB"


def test_batch_slices_cover_in_non_empty_batches():
    """Segment sums need every batch non-empty: reduceat gives the next
    element, not 0, for an empty segment."""
    for m in range(1, 2100):
        for n_batches in (1, 7, 20):
            slices = batch_slices(m, n_batches)
            assert len(slices) == min(m, n_batches)
            assert slices[0].start == 0 and slices[-1].stop == m
            assert all(s.stop > s.start for s in slices)
            assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))


def _counting(proc, calls):
    """A copy of proc whose closures count their calls."""
    def wrap(name, fn):
        def call(y):
            calls[name] += 1
            return fn(y)
        return call
    names = [n for n in ("drift", "diffusion", "diffusion_diag",
                         "diffusion_factor") if getattr(proc, n) is not None]
    return dataclasses.replace(proc, **{n: wrap(n, getattr(proc, n))
                                        for n in names})


@pytest.mark.parametrize("name", ["beta", "dirichlet-3", "wright_fisher-3",
                                  "nested-3", "user-3"])
def test_snapshot_evaluates_each_closure_once(name, monkeypatch):
    """simulate computes the statistics once per snapshot, in one pass over
    the particles, and batch_statistics evaluates drift and one diffusion
    closure once."""
    proc = _statistics_processes()[name]
    counts = dict.fromkeys(("estimate_moments", "batch_statistics",
                            "_chunk_statistics"), 0)
    for fname in counts:
        fn = getattr(statistics, fname)

        def counted(*args, _fn=fn, _name=fname, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(statistics, fname, counted)
    ens = Ensemble.from_uniform(proc.dimension, 200, np.random.default_rng(5))
    traj = simulate(proc, ens, IntegratorConfig(dt=1e-2), t_end=0.1,
                    record_every=3, rng=RandomSource(6, 0))
    assert traj.t.size == 5
    # 200 particles make one chunk: one chunk pass per snapshot
    assert counts == {"estimate_moments": 5, "batch_statistics": 5,
                      "_chunk_statistics": 5}

    calls = dict.fromkeys(("drift", "diffusion", "diffusion_diag",
                           "diffusion_factor"), 0)
    states = np.random.default_rng(7).dirichlet(np.ones(proc.dimension),
                                                size=300)
    batch_statistics(states, _counting(proc, calls))
    diffusion = ("diffusion_diag" if proc.diffusion_diag is not None
                 else "diffusion")
    assert calls == {"drift": 1, "diffusion": 0, "diffusion_diag": 0,
                     "diffusion_factor": 0, diffusion: 1}


@pytest.mark.parametrize("m", [10 ** 4, 1003])
@pytest.mark.parametrize("name", ["beta", "dirichlet-3", "wright_fisher-3",
                                  "nested-3"])
def test_snapshot_moments_merge_to_one_batch_estimate(name, m):
    """A snapshot's MomentSet, merged from its 20 batches, is the one-batch
    estimate of its full states to roundoff.  A central moment of order p
    is scaled by the largest variance to the power p/2, the size of its
    roundoff: from the symmetric uniform start beta's third moment is near
    1e-4 of that, so its own magnitude would measure cancellation."""
    proc = _statistics_processes()[name]
    ens = Ensemble.from_uniform(proc.dimension, m, np.random.default_rng(8))
    traj = simulate(proc, ens, IntegratorConfig(dt=1e-2), t_end=0.06,
                    record_every=3, rng=RandomSource(9, 0), dump_every=3)
    assert traj.t.size == len(traj.dumps) == 3
    for i, t in enumerate(traj.t):
        ref = estimate_moments(traj.dumps[float(t)])
        assert traj.batch_moments["mean"][i].shape == (20, proc.dimension)
        var = np.max(np.diagonal(ref.covariance))
        for key, scale in (("mean", np.max(ref.mean)), ("covariance", var),
                           ("third", var ** 1.5), ("fourth", var ** 2)):
            got, want = getattr(traj.moments, key)[i], getattr(ref, key)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, key
