"""Ensemble moment estimation, moment evolution rates, and analytic oracles.

Moments are always computed over the full N components (the remainder is
reconstructed before estimation), so the zero-row-sum structure of the
covariance matrix is checkable on the complete matrix.  Rates are defined
over the N-1 independent components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProcessDefinition, component_major, particle_major
from .errors import (EnsembleTooSmall, InsufficientSnapshots,
                     UnsupportedProcess)
from .processes import invariant_ratio

#: variances below this leave skewness/kurtosis undefined (NaN)
VAR_GUARD = 1e-14


@dataclass
class MomentSet:
    """Mean and central moments up to order four of an N-component ensemble."""

    mean: np.ndarray          # (N,)
    covariance: np.ndarray    # (N, N) central second moments
    third: np.ndarray         # (N,) central third moments
    fourth: np.ndarray        # (N,) central fourth moments
    skewness: np.ndarray      # (N,), NaN where variance is below guard
    kurtosis: np.ndarray      # (N,), NaN where variance is below guard
    ensemble_size: int

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    def covariance_row_sums(self) -> np.ndarray:
        return self.covariance.sum(axis=1)

    def weak_constraint_residual(self) -> float:
        """Sum of the reduced-block covariances minus the remainder variance."""
        return float(self.covariance[:-1, :-1].sum() - self.covariance[-1, -1])


@dataclass
class MomentRates:
    """Evolution rates of the first four moments over the reduced components.

    The third/fourth rates come in two algebraic forms: the "ito" form
    obtained by direct expansion of the centered powers (centered drift,
    own diagonal diffusion entry), and a "printed" variant with the raw
    drift and a diffusion contribution summed over every diagonal entry.
    """

    mean_rate: np.ndarray        # (K,)
    cov_rate: np.ndarray         # (K, K)
    third_rate: np.ndarray       # (K,) ito form
    fourth_rate: np.ndarray      # (K,) ito form
    third_rate_variant: np.ndarray   # (K,) printed form
    fourth_rate_variant: np.ndarray  # (K,) printed form


def _central_moments(states: np.ndarray):
    mean = states.mean(axis=0)
    # one compensation pass removes the strided-reduction roundoff
    mean = mean + (states - mean).mean(axis=0)
    y = states - mean
    m = states.shape[0]
    cov = y.T @ y / m
    third = np.mean(y ** 3, axis=0)
    fourth = np.mean(y ** 4, axis=0)
    return mean, cov, third, fourth


def _guarded_shape_stats(cov, third, fourth):
    var = np.diagonal(cov)
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.where(var >= VAR_GUARD, third / var ** 1.5, np.nan)
        kurt = np.where(var >= VAR_GUARD, fourth / var ** 2, np.nan)
    return skew, kurt


def estimate_moments(states: np.ndarray) -> MomentSet:
    """Plain Monte-Carlo moments of an (M, N) array of full states.

    Central moments use the two-pass form (mean first, then centered
    powers); numpy's pairwise summation keeps the reductions deterministic
    and accurate.
    """
    states = np.asarray(states, dtype=float)
    if states.shape[0] < 2:
        raise EnsembleTooSmall(f"need M >= 2 particles, got {states.shape[0]}")
    mean, cov, third, fourth = _central_moments(states)
    skew, kurt = _guarded_shape_stats(cov, third, fourth)
    return MomentSet(mean=mean, covariance=cov, third=third, fourth=fourth,
                     skewness=skew, kurtosis=kurt,
                     ensemble_size=states.shape[0])


def drift_and_diffusion(proc: ProcessDefinition, reduced: np.ndarray, t: float):
    """Drift as a particle-major (M, K) array and the (K, K, M) diffusion.

    The closures get a contiguous component-major copy of the (M, K)
    states, which is freed on return.
    """
    y = component_major(reduced)
    return particle_major(proc.drift(y, t)), proc.diffusion(y, t)


def _rates_from_arrays(y, a, B):
    """Moment rates from centered reduced states, drifts, and diffusions."""
    m = y.shape[0]
    mean_rate = a.mean(axis=0)
    cov_rate = (y.T @ a + a.T @ y) / m + B.mean(axis=0)
    diag = np.diagonal(B, axis1=-2, axis2=-1)       # (M, K)
    ac = a - mean_rate                               # drift fluctuation
    third = 3.0 * np.mean(y ** 2 * ac, axis=0) + 3.0 * np.mean(y * diag, axis=0)
    third_var = (3.0 * np.mean(y ** 2 * a, axis=0)
                 + 3.0 * np.mean(y * diag.sum(axis=1, keepdims=True), axis=0))
    fourth = 4.0 * np.mean(y ** 3 * ac, axis=0) + 6.0 * np.mean(y ** 2 * diag, axis=0)
    fourth_var = (4.0 * np.mean(y ** 3 * a, axis=0)
                  + 6.0 * np.mean(y ** 2 * diag.sum(axis=1, keepdims=True), axis=0))
    return MomentRates(mean_rate=mean_rate, cov_rate=cov_rate,
                       third_rate=third, fourth_rate=fourth,
                       third_rate_variant=third_var,
                       fourth_rate_variant=fourth_var)


def estimate_rates(states: np.ndarray, proc: ProcessDefinition,
                   t: float) -> MomentRates:
    """Evaluate the moment evolution rates on an ensemble at fixed time."""
    states = np.asarray(states, dtype=float)
    if states.shape[0] < 2:
        raise EnsembleTooSmall(f"need M >= 2 particles, got {states.shape[0]}")
    reduced = states[:, :-1]
    y = reduced - reduced.mean(axis=0)
    a, B = drift_and_diffusion(proc, reduced, t)
    return _rates_from_arrays(y, a, particle_major(B))


def batch_slices(m: int, n_batches: int):
    """Contiguous near-equal particle batches in fixed order."""
    n_batches = min(n_batches, m)
    edges = np.linspace(0, m, n_batches + 1).astype(int)
    return [slice(edges[i], edges[i + 1]) for i in range(n_batches)]


def batch_statistics(states: np.ndarray, proc: ProcessDefinition, t: float,
                     n_batches: int = 20):
    """Per-batch reduced moments and rates for standard-error estimation.

    Returns (batch_moments, batch_rates) dicts of stacked arrays whose
    leading axis indexes the batch.  The (K, K, M) diffusion is made
    particle-major one batch at a time.
    """
    states = np.asarray(states, dtype=float)
    reduced = states[:, :-1]
    a, B = drift_and_diffusion(proc, reduced, t)
    bm = {"mean": [], "cov": [], "third": [], "fourth": []}
    br = {"mean": [], "cov": [], "third_ito": [], "third_printed": [],
          "fourth_ito": [], "fourth_printed": []}
    for sl in batch_slices(states.shape[0], n_batches):
        yb = reduced[sl]
        mean, cov, third, fourth = _central_moments(yb)
        bm["mean"].append(mean)
        bm["cov"].append(cov)
        bm["third"].append(third)
        bm["fourth"].append(fourth)
        rates = _rates_from_arrays(yb - mean, a[sl], particle_major(B[..., sl]))
        br["mean"].append(rates.mean_rate)
        br["cov"].append(rates.cov_rate)
        br["third_ito"].append(rates.third_rate)
        br["third_printed"].append(rates.third_rate_variant)
        br["fourth_ito"].append(rates.fourth_rate)
        br["fourth_printed"].append(rates.fourth_rate_variant)
    return ({k: np.stack(v) for k, v in bm.items()},
            {k: np.stack(v) for k, v in br.items()})


@dataclass
class RateCheck:
    quantity: str        # e.g. "mean[1]", "cov[1,2]"
    form: str            # "mean", "cov", "third_ito", ...
    t: float
    fd: float
    rate: float
    threshold: float
    passed: bool


@dataclass
class CrossValidationReport:
    """Finite-difference moment derivatives versus recorded evolution rates."""

    checks: list
    form_pass: dict          # form name -> bool (all its checks passed)
    matching_third_form: str     # "ito" | "printed" | "both" | "neither"
    matching_fourth_form: str

    @property
    def overall_pass(self) -> bool:
        """Means and covariances validated, and some third/fourth form matched."""
        return (self.form_pass["mean"] and self.form_pass["cov"]
                and self.matching_third_form != "neither"
                and self.matching_fourth_form != "neither")

    def to_dict(self) -> dict:
        return {
            "overall_pass": self.overall_pass,
            "form_pass": self.form_pass,
            "matching_third_form": self.matching_third_form,
            "matching_fourth_form": self.matching_fourth_form,
            "n_checks": len(self.checks),
            "failures": [vars(c) for c in self.checks if not c.passed],
        }


_MOMENT_TO_RATE = {"mean": ["mean"], "cov": ["cov"],
                   "third": ["third_ito", "third_printed"],
                   "fourth": ["fourth_ito", "fourth_printed"]}


def cross_validate_rates(traj, proc: ProcessDefinition,
                         tol_multiplier: float = 3.0) -> CrossValidationReport:
    """Compare central finite differences of recorded moments with rates.

    For each interior snapshot, the difference FD - rate is formed per
    particle batch and judged against tol_multiplier * (batch standard
    error + a finite-difference truncation allowance + an Euler step-bias
    allowance).  Third/fourth moments are checked against both rate forms
    and the report states which one matches.
    """
    snaps = traj.snapshots
    if len(snaps) < 3:
        raise InsufficientSnapshots(f"need >= 3 snapshots, got {len(snaps)}")
    times = np.array([s.t for s in snaps])
    dt = traj.config.dt
    checks = []
    form_pass = {}
    for mkey, rkeys in _MOMENT_TO_RATE.items():
        bmom = np.stack([s.batch_moments[mkey] for s in snaps])  # (T, nb, ...)
        for rkey in rkeys:
            brate = np.stack([s.batch_rates[rkey] for s in snaps])
            rate_overall = brate.mean(axis=1)
            ok = True
            for k in range(1, len(snaps) - 1):
                h = times[k + 1] - times[k - 1]
                fd_b = (bmom[k + 1] - bmom[k - 1]) / h
                diff_b = fd_b - brate[k]
                nb = diff_b.shape[0]
                mean_diff = diff_b.mean(axis=0)
                se = diff_b.std(axis=0, ddof=1) / np.sqrt(nb)
                # truncation allowance from the curvature of the rate series
                if len(snaps) >= 4:
                    rdd = (rate_overall[k + 1] - 2.0 * rate_overall[k]
                           + rate_overall[k - 1]) / ((times[k + 1] - times[k]) ** 2)
                else:
                    rdd = np.zeros_like(mean_diff)
                trunc = (h / 2.0) ** 2 / 6.0 * np.abs(rdd)
                em = dt * np.abs(rate_overall[k])
                threshold = tol_multiplier * (se + trunc + em)
                bad = np.abs(mean_diff) > threshold
                if np.any(bad):
                    ok = False
                    for idx in np.argwhere(bad):
                        tup = tuple(int(i) + 1 for i in idx)
                        checks.append(RateCheck(
                            quantity=f"{mkey}{list(tup)}", form=rkey,
                            t=float(times[k]), fd=float(fd_b.mean(axis=0)[tuple(idx)]),
                            rate=float(brate[k].mean(axis=0)[tuple(idx)]),
                            threshold=float(threshold[tuple(idx)]), passed=False))
            form_pass[rkey] = ok
    def adjudicate(ito, printed):
        if ito and printed:
            return "both"
        if ito:
            return "ito"
        if printed:
            return "printed"
        return "neither"
    return CrossValidationReport(
        checks=checks, form_pass=form_pass,
        matching_third_form=adjudicate(form_pass["third_ito"],
                                       form_pass["third_printed"]),
        matching_fourth_form=adjudicate(form_pass["fourth_ito"],
                                        form_pass["fourth_printed"]))


def dirichlet_moments(alpha: np.ndarray) -> MomentSet:
    """Exact mean/central moments of a Dirichlet law with concentration alpha.

    Component i is Beta(a, b) distributed with a = alpha_i and b the sum of
    the other concentrations; with s = a + b its central moments are
    mu_3 = 2ab(b - a) / (s^3 (s+1)(s+2)) and
    mu_4 = 3ab(ab(s+2) + 2(a-b)^2) / (s^4 (s+1)(s+2)(s+3)).
    """
    alpha = np.asarray(alpha, dtype=float)
    a0 = alpha.sum()
    mean = alpha / a0
    cov = (np.diag(mean) - np.outer(mean, mean)) / (a0 + 1.0)
    # summing the others, not a0 - alpha, keeps b - a free of cancellation
    a, b, s = alpha, alpha @ (1.0 - np.eye(alpha.shape[0])), a0
    third = 2.0 * a * b * (b - a) / (s ** 3 * (s + 1.0) * (s + 2.0))
    fourth = (3.0 * a * b * (a * b * (s + 2.0) + 2.0 * (a - b) ** 2)
              / (s ** 4 * (s + 1.0) * (s + 2.0) * (s + 3.0)))
    skew, kurt = _guarded_shape_stats(cov, third, fourth)
    return MomentSet(mean=mean, covariance=cov, third=third, fourth=fourth,
                     skewness=skew, kurtosis=kurt, ensemble_size=0)


def _degenerate_moments(point: np.ndarray) -> MomentSet:
    n = point.shape[0]
    z = np.zeros(n)
    nan = np.full(n, np.nan)
    return MomentSet(mean=point, covariance=np.zeros((n, n)), third=z.copy(),
                     fourth=z.copy(), skewness=nan.copy(), kurtosis=nan.copy(),
                     ensemble_size=0)


def analytic_stationary(proc: ProcessDefinition) -> MomentSet:
    """Stationary moments of the invariant law of a named process.

    Supported: the scalar process (invariant Beta), the full-coupling
    multivariate process (invariant Dirichlet in its selection parameters),
    and the diagonal-diffusion process when its parameters keep the
    invariant Dirichlet.  The parameter maps were obtained by solving the
    zero-flux stationary condition and are independently verified against
    direct sampling in the test suite.
    """
    p = proc.parameters
    if proc.name == "beta":
        b, S, kappa = p["b"], p["S"], p["kappa"]
        if S in (0.0, 1.0):
            return _degenerate_moments(np.array([S, 1.0 - S]))
        return dirichlet_moments(np.array([b * S / kappa,
                                           b * (1.0 - S) / kappa]))
    if proc.name == "wright_fisher":
        return dirichlet_moments(np.asarray(p["omega"], dtype=float))
    if proc.name == "dirichlet":
        b = np.asarray(p["b"], dtype=float)
        S = np.asarray(p["S"], dtype=float)
        kappa = np.asarray(p["kappa"], dtype=float)
        ratio, constant = invariant_ratio(b, S, kappa)
        if not constant:
            raise UnsupportedProcess(
                "stationary law is not Dirichlet: (1-S) b / kappa varies "
                f"across components: {ratio}")
        return dirichlet_moments(np.concatenate([b * S / kappa, [ratio[0]]]))
    raise UnsupportedProcess(f"no analytic stationary moments for {proc.name!r}")
