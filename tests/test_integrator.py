import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from simplexdiff import (BetaParams, DegenerateState, DirichletParams, Ensemble,
                         GenDirichletParams, IntegratorConfig,
                         NotPositiveSemiDefinite, ProcessDefinition,
                         RandomSource, WrightFisherParams, beta_process,
                         broken_process, dirichlet_process,
                         gen_dirichlet_process, make_state, simulate, step,
                         wright_fisher_process)
from simplexdiff.core import BoundaryFace, ReducedState, face_points
from simplexdiff.integrator import _advance, _columns, _noise
from simplexdiff.processes import _running


def constant_process(a, n=3):
    """Zero-diffusion process with constant drift a, for exactness checks."""
    k = n - 1
    a = np.asarray(a, dtype=float)

    def drift(y, t):
        return np.broadcast_to(a.reshape((k,) + (1,) * (y.ndim - 1)), y.shape).copy()

    def diffusion(y, t):
        return np.zeros((k,) + y.shape)

    return ProcessDefinition(dimension=n, drift=drift, diffusion=diffusion,
                             name="constant")


def test_step_zero_diffusion_is_euler():
    p = constant_process([0.05, -0.02])
    cfg = IntegratorConfig(dt=1e-2)
    res = step(ReducedState(np.array([0.3, 0.4])), p, 0.0, cfg,
               RandomSource(1, 0))
    npt.assert_allclose(res.state.fractions, [0.3 + 0.05e-2, 0.4 - 0.02e-2],
                        rtol=1e-15)
    assert not res.modified and not res.clipped


def test_step_reenters_from_boundary():
    p = beta_process(BetaParams(b=2.0, S=0.5, kappa=1.0))
    cfg = IntegratorConfig(dt=1e-3)
    res = step(ReducedState(np.array([0.0])), p, 0.0, cfg, RandomSource(2, 0))
    npt.assert_allclose(res.state.fractions, [0.5e-3], rtol=1e-15)


def test_clipped_fraction_regression_pin():
    """Under 1% of particle-steps need the clipping fallback for this setup."""
    p = beta_process(BetaParams(b=2.0, S=0.5, kappa=1.0))
    ens = Ensemble.from_delta(make_state([0.9, 0.1]), 1000)
    traj = simulate(p, ens, IntegratorConfig(dt=1e-3), t_end=1.0,
                    record_every=1000, rng=RandomSource(42, 0))
    assert traj.particle_steps == 10 ** 6
    assert traj.clipped_steps / traj.particle_steps < 0.01
    assert traj.violation_count == 0


def test_simulate_constant_ensemble_fixed_point():
    p = constant_process([0.0, 0.0])
    ens = Ensemble.from_delta(make_state([0.2, 0.3, 0.5]), 50)
    traj = simulate(p, ens, IntegratorConfig(dt=1e-2), t_end=0.5,
                    record_every=10, rng=RandomSource(0, 0))
    first = traj.snapshots[0].moments
    for snap in traj.snapshots[1:]:
        npt.assert_array_equal(snap.moments.mean, first.mean)
        npt.assert_array_equal(snap.moments.covariance, first.covariance)


def test_simulate_mean_decays_toward_target():
    p = beta_process(BetaParams(b=2.0, S=0.5, kappa=1.0))
    ens = Ensemble.from_delta(make_state([0.9, 0.1]), 2000)
    traj = simulate(p, ens, IntegratorConfig(dt=1e-3), t_end=3.0,
                    record_every=500, rng=RandomSource(7, 0))
    means = np.array([s.moments.mean[0] for s in traj.snapshots])
    assert means[0] == pytest.approx(0.9, abs=1e-12)
    # relaxation toward S = 0.5: strictly decreasing at this resolution
    assert np.all(np.diff(means) < 0.0)
    # analytic residual 0.4 exp(-3) plus Monte-Carlo noise
    assert abs(means[-1] - 0.5) < 0.03


def test_simulate_determinism():
    p = wright_fisher_process(WrightFisherParams(np.ones(3)))
    ens = Ensemble.from_delta(make_state([1 / 3, 1 / 3, 1 / 3]), 200)
    runs = []
    for _ in range(2):
        traj = simulate(p, ens, IntegratorConfig(dt=1e-3), t_end=0.2,
                        record_every=50, rng=RandomSource(9, 0))
        runs.append(np.array([s.moments.mean for s in traj.snapshots]))
    npt.assert_array_equal(runs[0], runs[1])


def test_random_source_streams():
    a = RandomSource(5, 0).normals(4)
    b = RandomSource(5, 0).normals(4)
    c = RandomSource(5, 1).normals(4)
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_clip_renormalize_policy():
    p = beta_process(BetaParams(b=2.0, S=0.5, kappa=1.0))
    ens = Ensemble.from_delta(make_state([0.99, 0.01]), 500)
    cfg = IntegratorConfig(dt=1e-3, boundary_policy="clip_renormalize")
    traj = simulate(p, ens, cfg, t_end=0.5, record_every=100,
                    rng=RandomSource(3, 0))
    assert traj.violation_count == 0


def test_simulate_rejects_single_particle():
    """One particle has no moments, so simulate refuses it before stepping."""
    ens = Ensemble.from_delta(make_state([0.2, 0.3, 0.5]), 1)
    with pytest.raises(ValueError, match=">= 2 particles"):
        simulate(constant_process([0.0, 0.0]), ens, IntegratorConfig(dt=1e-2),
                 t_end=0.1, record_every=1, rng=RandomSource(0, 0))


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-3, boundary_policy="bounce")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_drift_raises_with_step_and_particle(bad):
    """A non-finite proposal stops the run instead of passing the checks."""
    def drift(y, t):
        a = np.zeros_like(y)
        if t > 0.0:  # the second step poisons particle 3
            a[1, 3] = bad
        return a

    p = ProcessDefinition(dimension=3, drift=drift, name="poisoned",
                          diffusion=lambda y, t: np.zeros((2,) + y.shape),
                          diffusion_diag=lambda y, t: np.zeros(y.shape))
    ens = Ensemble.from_delta(make_state([0.2, 0.3, 0.5]), 10)
    for policy in ("reject_resample", "clip_renormalize"):
        with pytest.raises(DegenerateState, match=r"step 2 .*particle 3\b"):
            simulate(p, ens, IntegratorConfig(dt=1e-2, boundary_policy=policy),
                     t_end=0.05, record_every=100, rng=RandomSource(4, 0))


@pytest.mark.parametrize("path", ["diffusion_diag", "eigh"])
def test_indefinite_diffusion_raises(path):
    """Both noise-factor paths refuse a diffusion with a negative direction."""
    d = np.array([0.1, -0.1])

    def diffusion_diag(y, t):
        return np.broadcast_to(d[:, np.newaxis], y.shape)

    def diffusion(y, t):
        return np.broadcast_to(np.diag(d)[..., np.newaxis], (2,) + y.shape)

    p = ProcessDefinition(
        dimension=3, drift=lambda y, t: np.zeros_like(y), diffusion=diffusion,
        name="indefinite",
        diffusion_diag=diffusion_diag if path == "diffusion_diag" else None)
    with pytest.raises(NotPositiveSemiDefinite):
        step(ReducedState(np.array([0.3, 0.4])), p, 0.0,
             IntegratorConfig(dt=1e-3), RandomSource(6, 0))


def _factor_forms(n=3):
    """One process per noise-factor form: diagonal, explicit factor, eigh,
    and the nested process, each with n components."""
    k = n - 1
    wf = wright_fisher_process(WrightFisherParams(np.ones(n)))
    base = DirichletParams(b=np.full(k, 4.0), S=np.full(k, 0.5),
                           kappa=np.ones(k), dirichlet_invariant=True)
    return {"diagonal": dirichlet_process(base),
            "factor": wf,
            "eigh": dataclasses.replace(wf, diffusion_factor=None),
            "nested": gen_dirichlet_process(GenDirichletParams.reduction_of(base))}


def _uniform_states(n, m, seed):
    """m uniform reduced states, component-major (n-1, m)."""
    return Ensemble.from_uniform(n, m, np.random.default_rng(seed)).reduced.T.copy()


def _noise_factor_name(proc):
    if proc.diffusion_factor is not None:
        return "diffusion_factor"
    return "diffusion_diag" if proc.diffusion_diag is not None else "diffusion"


def _counted(proc, calls):
    """A copy of proc whose drift and noise-factor closure count their calls."""
    def wrap(name):
        fn = getattr(proc, name)

        def call(y, t):
            calls[name] += 1
            return fn(y, t)
        return call
    names = ("drift", _noise_factor_name(proc))
    return dataclasses.replace(proc, **{n: wrap(n) for n in names})


class CountingSource(RandomSource):
    def __init__(self, seed, calls):
        super().__init__(seed, 0)
        self.calls = calls

    def normals(self, shape):
        self.calls["normals"] += 1
        return super().normals(shape)


@pytest.mark.parametrize("form", ["diagonal", "factor", "eigh"])
def test_advance_evaluates_each_closure_once(form):
    """Resample rounds redraw normals without re-evaluating the process."""
    calls = {"drift": 0, "diffusion_factor": 0, "diffusion_diag": 0,
             "diffusion": 0, "normals": 0}
    proc = _factor_forms()[form]
    ys = _uniform_states(3, 400, 11)
    _advance(_counted(proc, calls), ys, 0.0, IntegratorConfig(dt=0.05),
             CountingSource(12, calls))
    assert calls["normals"] > 1  # at least one resample round ran
    assert calls["drift"] == 1
    assert calls[_noise_factor_name(proc)] == 1


def test_step_evaluates_each_closure_once():
    """An always-rejected step: every round redraws, then the state is clipped."""
    calls = {"drift": 0, "diffusion_diag": 0, "normals": 0}
    proc = _counted(broken_process("outward_drift"), calls)
    res = step(ReducedState(np.array([0.3, 0.4])), proc, 0.0,
               IntegratorConfig(dt=1.0, max_resample=5), CountingSource(13, calls))
    assert res.clipped
    assert calls == {"drift": 1, "diffusion_diag": 1, "normals": 6}


def _invalid_rows(ys):
    return ~(np.all(ys >= 0.0, axis=-1) & (np.sum(ys, axis=-1) <= 1.0))


def _clip_rows(ys):
    ys = np.maximum(ys, 0.0)
    s = np.sum(ys, axis=-1)
    over = s > 1.0
    if np.any(over):
        ys[over] /= s[over, np.newaxis]
    return ys


def _dense_wf_factor(y):
    """The dense (K, K, M) Wright-Fisher factor, as it was built before the
    structured (d, u, v) form: the reference the structured noise must
    reproduce bit for bit."""
    k = y.shape[0]
    q = 1.0 - _running(np.add, y)
    q_prev = np.concatenate([np.ones((1,) + y.shape[1:]), q[:-1]], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = y * q / q_prev
        col = y / (q * q_prev)
    diag = np.sqrt(np.maximum(np.nan_to_num(diag, nan=0.0), 0.0))
    col = np.sqrt(np.maximum(np.nan_to_num(col, nan=0.0, posinf=0.0), 0.0))
    L = np.zeros((k, k) + y.shape[1:])
    for i in range(k):
        L[i, i] = diag[i]
        L[i, :i] = -y[i] * col[:i]
    return L


def _dense_noise(L, xi):
    """(K, K, M) factors times (K, M) normals, even and odd columns summed
    apart as einsum("...ij,...j->...i") does."""
    half = np.zeros((2,) + xi.shape)
    for j in range(xi.shape[0]):
        half[j % 2] += L[:, j] * xi[j]
    return half[0] + half[1]


def wf_edge_states(n, rng):
    """Component-major reduced states: interior, every zero face, the
    unit-sum face, every vertex, remainders one ulp above zero, and a zero
    remainder under a positive component, where the dense factor's column
    quotient y / (q q_prev) is inf."""
    k = n - 1
    faces = [face_points(BoundaryFace("zero", a), k, 20, rng) for a in range(k)]
    faces.append(face_points(BoundaryFace("unitsum"), k, 20, rng))
    ulp = np.zeros((2, k))
    ulp[:, 0] = 1.0 - 2.0 ** -53
    ulp[0, 1], ulp[1, -1] = 2.0 ** -60, 2.0 ** -54
    inf_quotient = np.zeros((1, k))
    inf_quotient[0, :2] = 0.5
    parts = [rng.dirichlet(np.ones(n), size=200)[:, :k], *faces,
             np.eye(k), np.zeros((1, k)), ulp, inf_quotient]
    return np.ascontiguousarray(np.concatenate(parts).T)


@pytest.mark.parametrize("n", [3, 8, 12])
def test_structured_wf_noise_matches_dense_factor(n):
    """The (d, u, v) Wright-Fisher factor maps normals to the bits of the
    dense factor, on whole batches and on gathered resample columns."""
    rng = np.random.default_rng(n)
    y = wf_edge_states(n, rng)
    proc = wright_fisher_process(WrightFisherParams(np.ones(n)))
    factor = proc.diffusion_factor(y, 0.0)
    assert [a.shape for a in factor] == [y.shape] * 3
    dense = _dense_wf_factor(y)
    xi = rng.standard_normal(y.shape)
    assert _noise(factor, xi).tobytes() == _dense_noise(dense, xi).tobytes()
    idx = np.flatnonzero(rng.random(y.shape[1]) < 0.3)
    assert (_noise(_columns(factor, idx), xi[:, idx]).tobytes()
            == _dense_noise(dense[..., idx], xi[:, idx]).tobytes())


def _reference_advance(proc, ys, t, cfg, rng):
    """A particle-major step on (M, K) states that re-evaluates drift and
    noise factor at rejected rows; closures are called through transposes.
    Wright-Fisher, the one process with an explicit factor, steps with the
    dense factor."""
    def propose(ys, xi):
        y = ys.T
        a = proc.drift(y, t).T
        if proc.diffusion_factor is not None:
            L = np.ascontiguousarray(np.moveaxis(_dense_wf_factor(y), -1, 0))
            noise = np.einsum("...ij,...j->...i", L, xi)
        elif proc.diffusion_diag is not None:
            noise = np.sqrt(np.maximum(proc.diffusion_diag(y, t).T, 0.0)) * xi
        else:
            w, V = np.linalg.eigh(np.moveaxis(proc.diffusion(y, t), -1, 0))
            L = V * np.sqrt(np.maximum(w, 0.0))[..., np.newaxis, :]
            noise = np.einsum("...ij,...j->...i", L, xi)
        return ys + a * cfg.dt + noise * np.sqrt(cfg.dt)

    prop = propose(ys, rng.normals(ys.shape))
    bad = _invalid_rows(prop)
    modified = bad.copy()
    for _ in range(cfg.max_resample):
        idx = np.flatnonzero(bad)
        if idx.size == 0:
            break
        prop[idx] = propose(ys[idx], rng.normals((idx.size, ys.shape[1])))
        bad[idx] = _invalid_rows(prop[idx])
    if np.any(bad):
        prop[bad] = _clip_rows(prop[bad])
    return prop, modified, bad


@pytest.mark.parametrize("form,n", [
    pytest.param(form, n, id=form if n == 3 else f"{form}-{n}")
    for n, forms in ((3, ("diagonal", "factor", "eigh", "nested")),
                     (8, ("diagonal", "factor", "eigh")))
    for form in forms])
def test_advance_matches_re_evaluating_reference(form, n):
    """The component-major step with reused drift and factor changes no bit
    of the particle-major, re-evaluating step."""
    proc = _factor_forms(n)[form]
    cfg = IntegratorConfig(dt=0.02, max_resample=1)
    ys = _uniform_states(n, 200, 21)
    rng, ref_rng = RandomSource(22, 0), RandomSource(22, 0)
    modified = clipped = 0
    for k in range(300):
        out, mod, clip = _advance(proc, ys, k * cfg.dt, cfg, rng)
        ref, ref_mod, ref_clip = _reference_advance(proc, ys.T.copy(),
                                                    k * cfg.dt, cfg, ref_rng)
        assert out.T.tobytes() == ref.tobytes(), f"step {k}"
        npt.assert_array_equal(mod, ref_mod)
        npt.assert_array_equal(clip, ref_clip)
        modified += np.count_nonzero(mod)
        clipped += np.count_nonzero(clip)
        ys = out
    assert modified > 100 and clipped > 0  # rejections were forced


class ReplaySource:
    """Serves prepared normals in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def normals(self, shape):
        xi = self.draws.pop(0)
        assert xi.shape == tuple(shape)
        return xi


@pytest.mark.parametrize("form", ["diagonal", "factor", "eigh", "nested"])
@pytest.mark.parametrize("n", [3, 8])
def test_step_matches_batched_column(form, n):
    """A single (K,) state steps exactly as its column of a batch does."""
    proc = _factor_forms(n)[form]
    cfg = IntegratorConfig(dt=1e-6)
    ys = _uniform_states(n, 50, 31)
    xi = RandomSource(32, 0).normals((50, n - 1))
    out, modified, _ = _advance(proc, ys, 0.0, cfg, ReplaySource(xi))
    assert not np.any(modified)
    for j in range(50):
        res = step(ReducedState(ys[:, j].copy()), proc, 0.0, cfg,
                   ReplaySource(xi[j:j + 1]))
        assert res.state.fractions.tobytes() == out[:, j].tobytes(), f"particle {j}"
