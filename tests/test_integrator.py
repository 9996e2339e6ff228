import numpy as np
import numpy.testing as npt
import pytest

from simplexdiff import (BetaParams, DegenerateState, Ensemble,
                         IntegratorConfig, NotPositiveSemiDefinite,
                         ProcessDefinition, RandomSource, WrightFisherParams,
                         beta_process, make_state, simulate, step,
                         wright_fisher_process)
from simplexdiff.core import ReducedState


def constant_process(a, n=3):
    """Zero-diffusion process with constant drift a, for exactness checks."""
    k = n - 1
    a = np.asarray(a, dtype=float)

    def drift(y, t):
        return np.broadcast_to(a, y.shape).copy()

    def diffusion(y, t):
        return np.zeros(y.shape + (k,))

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
            a[3, 1] = bad
        return a

    p = ProcessDefinition(dimension=3, drift=drift, name="poisoned",
                          diffusion=lambda y, t: np.zeros(y.shape + (2,)),
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
        return np.broadcast_to(d, y.shape)

    def diffusion(y, t):
        return np.broadcast_to(np.diag(d), y.shape + (2,))

    p = ProcessDefinition(
        dimension=3, drift=lambda y, t: np.zeros_like(y), diffusion=diffusion,
        name="indefinite",
        diffusion_diag=diffusion_diag if path == "diffusion_diag" else None)
    with pytest.raises(NotPositiveSemiDefinite):
        step(ReducedState(np.array([0.3, 0.4])), p, 0.0,
             IntegratorConfig(dt=1e-3), RandomSource(6, 0))
