import numpy as np
import numpy.testing as npt
import pytest

from simplexdiff import (BetaParams, DirichletParams, Ensemble,
                         EnsembleTooSmall, IntegratorConfig, RandomSource,
                         UnsupportedProcess, WrightFisherParams,
                         analytic_stationary, beta_process, dirichlet_moments,
                         dirichlet_process, estimate_moments, estimate_rates,
                         gen_dirichlet_process, make_state, simulate,
                         wright_fisher_process)
from simplexdiff.processes import GenDirichletParams
from simplexdiff.statistics import cross_validate_rates


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


def test_moments_too_small():
    with pytest.raises(EnsembleTooSmall):
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
    p = beta_process(BetaParams(b=2.0, S=0.5, kappa=1.0))
    rng = np.random.default_rng(13)
    states = rng.dirichlet([1.0, 1.0], size=1000)
    r = estimate_rates(states, p, 0.0)
    mean = states[:, 0].mean()
    npt.assert_allclose(r.mean_rate[0], 1.0 * (0.5 - mean), rtol=1e-12)


def test_beta_cov_rate_identity():
    """C = -b<y^2> + kappa(<Y> - <Y^2>) for the scalar process."""
    b, S, kappa = 2.0, 0.5, 1.0
    p = beta_process(BetaParams(b=b, S=S, kappa=kappa))
    rng = np.random.default_rng(14)
    states = rng.dirichlet([1.0, 1.0], size=1000)
    r = estimate_rates(states, p, 0.0)
    y1 = states[:, 0]
    expected = -b * y1.var() + kappa * (y1.mean() - np.mean(y1 ** 2))
    npt.assert_allclose(r.cov_rate[0, 0], expected, rtol=1e-10)


def test_degenerate_cov_rate_equals_diffusion():
    p = dirichlet_process(DirichletParams(b=np.array([2.0, 2.0]),
                                          S=np.array([0.5, 0.5]),
                                          kappa=np.array([1.0, 1.0])))
    states = np.tile([0.25, 0.25, 0.5], (10, 1))
    r = estimate_rates(states, p, 0.0)
    npt.assert_allclose(r.cov_rate, np.diag([0.125, 0.125]), atol=1e-15)


def test_cov_rate_symmetry():
    p = wright_fisher_process(WrightFisherParams(np.array([1.0, 2.0, 3.0])))
    rng = np.random.default_rng(15)
    states = rng.dirichlet([1.0, 1.0, 1.0], size=500)
    r = estimate_rates(states, p, 0.0)
    npt.assert_array_equal(r.cov_rate, r.cov_rate.T)


def test_rate_forms_differ_by_drift_centering_for_n2():
    p = beta_process(BetaParams(b=2.0, S=0.4, kappa=1.0))
    rng = np.random.default_rng(16)
    states = rng.dirichlet([2.0, 2.0], size=1000)
    r = estimate_rates(states, p, 0.0)
    # with a single reduced component the printed diffusion sum is the
    # own-diagonal term; the forms differ only by the drift centering
    var = np.var(states[:, 0])
    npt.assert_allclose(r.third_rate_variant - r.third_rate,
                        3.0 * var * r.mean_rate, atol=1e-14)


def _static_process(n=3):
    k = n - 1

    def drift(y, t):
        return np.zeros_like(y)

    def diffusion(y, t):
        return np.zeros((k,) + y.shape)

    from simplexdiff import ProcessDefinition
    return ProcessDefinition(dimension=n, drift=drift, diffusion=diffusion,
                             name="static")


def test_cross_validation_static_process():
    p = _static_process()
    ens = Ensemble.from_uniform(3, 400, np.random.default_rng(17))
    traj = simulate(p, ens, IntegratorConfig(dt=1e-2), t_end=0.3,
                    record_every=5, rng=RandomSource(18, 0))
    rep = cross_validate_rates(traj, p)
    assert rep.overall_pass
    assert rep.matching_third_form == "both"
    assert rep.matching_fourth_form == "both"


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
    p = beta_process(BetaParams(b=2.0, S=0.5, kappa=1.0))
    m = analytic_stationary(p)
    npt.assert_allclose(m.mean, [0.5, 0.5])
    npt.assert_allclose(m.covariance[0, 0], 1.0 / 12.0)
    rng = np.random.default_rng(20)
    draws = rng.beta(1.0, 1.0, size=200000)
    assert abs(draws.var() - m.covariance[0, 0]) < 2e-3


def test_stationary_wf_oracle():
    p = wright_fisher_process(WrightFisherParams(np.ones(3)))
    m = analytic_stationary(p)
    npt.assert_allclose(m.mean, 1.0 / 3.0)
    npt.assert_allclose(np.diagonal(m.covariance), 1.0 / 18.0)
    npt.assert_allclose(m.covariance[0, 1], -1.0 / 36.0)


def test_stationary_dirichlet_oracle():
    p = dirichlet_process(DirichletParams(b=np.array([2.0, 2.0]),
                                          S=np.array([0.5, 0.5]),
                                          kappa=np.array([1.0, 1.0]),
                                          dirichlet_invariant=True))
    m = analytic_stationary(p)
    npt.assert_allclose(m.mean, dirichlet_moments(np.ones(3)).mean)


def test_stationary_unsupported():
    p = gen_dirichlet_process(GenDirichletParams(
        b=np.array([2.0, 2.0]), S=np.array([0.5, 0.5]),
        kappa=np.array([1.0, 1.0]), c=np.array([[1.0]])))
    with pytest.raises(UnsupportedProcess):
        analytic_stationary(p)
    p2 = dirichlet_process(DirichletParams(b=np.array([2.0, 2.0]),
                                           S=np.array([0.5, 0.4]),
                                           kappa=np.array([1.0, 1.0])))
    with pytest.raises(UnsupportedProcess):
        analytic_stationary(p2)
