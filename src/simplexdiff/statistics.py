"""Ensemble moment estimation, moment evolution rates, and analytic oracles.

Moments cover all N components, the remainder estimated from the states like
any other, so unit mean sums and zero covariance row sums are checked, not
built in; rates cover the N-1 independent components.  A snapshot makes one
component-major pass, batch_statistics: it walks whole particle batches in
chunks of at most about 1 MiB (CHUNK_BYTES) of diffusion block, takes
per-batch segment sums along the particle axis, and evaluates drift and one
diffusion closure, functions of the state alone, exactly once per particle.
estimate_moments merges its per-batch moments exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProcessDefinition, check_count, check_positive, component_major
from .errors import (EnsembleTooSmall, InsufficientSnapshots,
                     UnsupportedProcess)

#: variances below this leave skewness/kurtosis undefined (NaN)
VAR_GUARD = 1e-14

#: batch_statistics walks whole batches in chunks whose (K, K, m) diffusion
#: block stays within this many bytes, so a snapshot's peak memory does not
#: grow with M
CHUNK_BYTES = 1 << 20


@dataclass
class MomentSet:
    """Mean and central moments up to order four of an N-component ensemble.

    Stacked over snapshots (see stack), every array gains a leading axis.
    Skewness and kurtosis are derived from the central moments on access.
    """

    mean: np.ndarray          # (N,)
    covariance: np.ndarray    # (N, N) central second moments
    third: np.ndarray         # (N,) central third moments
    fourth: np.ndarray        # (N,) central fourth moments
    ensemble_size: int

    @classmethod
    def stack(cls, sets) -> "MomentSet":
        """Moment sets of one ensemble size, stacked along a leading axis."""
        return cls(*(np.stack([getattr(m, name) for m in sets])
                     for name in ("mean", "covariance", "third", "fourth")),
                   sets[0].ensemble_size)

    def _standardized(self, moment, power):
        """moment / variance^power; NaN where the variance is below VAR_GUARD."""
        var = np.diagonal(self.covariance, axis1=-2, axis2=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(var >= VAR_GUARD, moment / var ** power, np.nan)

    @property
    def skewness(self) -> np.ndarray:
        return self._standardized(self.third, 1.5)

    @property
    def kurtosis(self) -> np.ndarray:
        return self._standardized(self.fourth, 2)

    def covariance_row_sums(self) -> np.ndarray:
        return self.covariance.sum(axis=-1)

    def weak_constraint_residual(self):
        """Sum of the reduced-block covariances minus the remainder variance."""
        cov = self.covariance
        return cov[..., :-1, :-1].sum(axis=(-2, -1)) - cov[..., -1, -1]


def batch_slices(m: int, n_batches: int):
    """Contiguous near-equal particle batches in fixed order; none is empty."""
    n_batches = min(n_batches, m)
    edges = np.linspace(0, m, n_batches + 1).astype(int)
    return [slice(edges[i], edges[i + 1]) for i in range(n_batches)]


def _ensemble_batches(m: int, n_batches: int):
    """batch_slices of an ensemble of m >= 2 particles into n_batches >= 1."""
    check_count("n_batches", n_batches)
    if m < 2:
        raise EnsembleTooSmall(f"need M >= 2 particles, got {m}")
    return batch_slices(m, n_batches)


class _Batches:
    """Per-batch sums along the trailing particle axis over contiguous slices
    that tile it from 0."""

    def __init__(self, slices):
        self.slices = slices
        self.starts = [s.start for s in slices]
        self.counts = np.array([s.stop - s.start for s in slices])

    def mean(self, v):
        """Per-batch means of a (..., M) array, batch axis first."""
        # batch_slices makes no empty segment, for which reduceat is not 0
        return np.moveaxis(np.add.reduceat(v, self.starts, axis=-1)
                           / self.counts, -1, 0)

    def centre(self, v, mean):
        """A (K, M) array minus its (nb, K) batch means."""
        return v - np.repeat(mean.T, self.counts, axis=-1)

    def products(self, u, v):
        """Per-batch means of u v^T for (K, M) arrays, as (nb, K, K)."""
        return (np.stack([u[:, s] @ v[:, s].T for s in self.slices])
                / self.counts[:, None, None])

    def moments(self, x):
        """Batch means and central moments of a (K, M) array; centred values."""
        mean = self.mean(x)
        # one compensation pass removes the roundoff of the first mean
        mean = mean + self.mean(self.centre(x, mean))
        c = self.centre(x, mean)
        c2 = c * c
        c3 = c2 * c
        return ({"count": self.counts, "mean": mean, "cov": self.products(c, c),
                 "third": self.mean(c3), "fourth": self.mean(c2 * c2)},
                (c, c2, c3))


def estimate_moments(states: np.ndarray, batch_moments=None) -> MomentSet:
    """Moments of (M, N) full states, merged exactly from their batch_moments.

    With w = count / M and d = batch mean - mean (Chan, Golub & LeVeque
    1979): cov = sum w (C + d d^T), mu3 = sum w (M3 + 3 d M2 + d^3), mu4 =
    sum w (M4 + 4 d M3 + 6 d^2 M2 + d^4).  By default one batch holds all
    states: a two-pass estimate (compensated mean, then centred powers).
    """
    states = np.asarray(states, dtype=float)
    m = states.shape[0]
    bm = batch_moments
    if bm is None:
        whole = _Batches(_ensemble_batches(m, 1))
        bm = whole.moments(component_major(states))[0]
    if np.sum(bm["count"]) != m:
        raise ValueError(f"batches hold {np.sum(bm['count'])} of {m} particles")
    w = bm["count"] / m

    def merge(v):
        return np.einsum("b,b...->...", w, v)
    # compensated: an error e in the mean moves mu3 by 3 M2 e
    mean = merge(bm["mean"])
    mean = mean + merge(bm["mean"] - mean)
    d = bm["mean"] - mean
    m2 = np.diagonal(bm["cov"], axis1=1, axis2=2)
    cov = merge(bm["cov"] + d[:, :, np.newaxis] * d[:, np.newaxis, :])
    third = merge(bm["third"] + 3.0 * d * m2 + d ** 3)
    fourth = merge(bm["fourth"] + 4.0 * d * bm["third"] + 6.0 * d ** 2 * m2
                   + d ** 4)
    return MomentSet(mean, cov, third, fourth, m)


def estimate_rates(states: np.ndarray, proc: ProcessDefinition) -> dict:
    """The rates of batch_statistics with one batch, without the batch axis."""
    return {key: r[0] for key, r in batch_statistics(states, proc, 1)[1].items()}


def batch_statistics(states: np.ndarray, proc: ProcessDefinition,
                     n_batches: int = 20):
    """A snapshot's one pass: per-batch moments of all N components and rates.

    Returns (batch_moments, batch_rates), dicts of arrays with a leading
    batch axis: each batch's count, mean, cov, third and fourth central
    moments of the (M, N) full states, the remainder estimated from its
    column, and the rates of the K = N-1 reduced components, read from the
    first K rows of the same centred powers and keyed like the moments:
    mean, cov, third and fourth.  The third and fourth rates are the Ito
    expansion of the centred powers, 3E[c^2 (a - mean a)] + 3E[c B_ii] and
    4E[c^3 (a - mean a)] + 6E[c^2 B_ii] with c = Y_i - mean Y_i.

    The pass walks whole batches in chunks of at most CHUNK_BYTES of
    (K, K, m) diffusion block (one batch at least), and concatenates the
    chunks' per-batch arrays.  Each particle meets drift and one diffusion
    closure (diffusion_diag for a diagonal process: no (K, K, m) matrix)
    exactly once; each per-batch sum is one segment sum over its own batch,
    so the chunking changes no value.
    """
    states = np.asarray(states, dtype=float)
    m, n = states.shape
    slices = _ensemble_batches(m, n_batches)
    longest = max(s.stop - s.start for s in slices)
    block = (n - 1) ** 2 * states.itemsize * longest  # one batch's (K, K, m)
    per_chunk = max(1, CHUNK_BYTES // block)
    parts = []
    for i in range(0, len(slices), per_chunk):
        chunk = slices[i:i + per_chunk]
        lo = chunk[0].start
        # a contiguous copy, like the one chunk of N <= 3: closures on a
        # strided view of the whole run slower
        parts.append(_chunk_statistics(
            component_major(states[lo:chunk[-1].stop]), proc,
            _Batches([slice(s.start - lo, s.stop - lo) for s in chunk])))
    return tuple({key: np.concatenate([part[j][key] for part in parts])
                  for key in parts[0][j]} for j in (0, 1))


def _chunk_statistics(x, proc, batches):
    """batch_statistics' two dicts for the (N, m) states x of whole batches."""
    moments, centred = batches.moments(x)
    y = x[:-1]
    c, c2, c3 = (v[:-1] for v in centred)
    a = proc.drift(y)
    a_mean = batches.mean(a)
    ac = batches.centre(a, a_mean)
    ya = batches.products(c, a)
    if proc.diffusion_diag is not None:
        d = proc.diffusion_diag(y)
        b_mean = np.stack([np.diag(v) for v in batches.mean(d)])
    else:
        B = proc.diffusion(y)
        d = np.einsum("iim->im", B)
        b_mean = batches.mean(B)
    mean = batches.mean
    return moments, {
        "mean": a_mean, "cov": ya + ya.transpose(0, 2, 1) + b_mean,
        "third": 3.0 * mean(c2 * ac) + 3.0 * mean(c * d),
        "fourth": 4.0 * mean(c3 * ac) + 6.0 * mean(c2 * d)}


def quantity_label(name: str, index) -> str:
    """A moment entry's label in compare.json: name[i,j], 1-based."""
    return name + "[" + ",".join(str(i + 1) for i in index) + "]"


def batch_mean_se(values: np.ndarray, axis: int = 0):
    """Mean over the batch axis of per-batch values, and its standard error."""
    return (values.mean(axis=axis),
            values.std(axis=axis, ddof=1) / np.sqrt(values.shape[axis]))


def cross_validate_rates(traj, tol_multiplier: float = 3.0) -> dict:
    """Compare central finite differences of recorded moments with rates.

    At every interior snapshot at once, the difference FD - rate is formed
    per particle batch and judged against tol_multiplier * (batch standard
    error + a finite-difference truncation allowance + an Euler step-bias
    allowance).  The batch moments cover all N components; the K reduced
    ones, which have rates, are judged.  Returns compare.json's rate_check:
    overall_pass, form_pass (moment name -> all its checks passed), n_checks
    ((snapshot, entry) checks made) and failures (the failed checks, as
    dicts, in check order).
    """
    check_positive("tol_multiplier", tol_multiplier)
    times = traj.t
    if times.size < 3:
        raise InsufficientSnapshots(f"need >= 3 snapshots, got {times.size}")
    n_checks, failures, form_pass = 0, [], {}
    for key in ("mean", "cov", "third", "fourth"):
        bmom = traj.batch_moments[key]  # (T, nb, ...)
        bmom = bmom[(...,) + (slice(-1),) * (bmom.ndim - 2)]  # reduced only
        # per interior snapshot, shaped to broadcast against (T-2, ...)
        col = (-1,) + (1,) * (bmom.ndim - 2)
        h = (times[2:] - times[:-2]).reshape(col)
        fd_b = (bmom[2:] - bmom[:-2]) / h[:, np.newaxis]
        fd = fd_b.mean(axis=1)
        brate = traj.batch_rates[key]
        rate = brate.mean(axis=1)
        mean_diff, se = batch_mean_se(fd_b - brate[1:-1], axis=1)
        # truncation allowance from the curvature of the rate series
        if times.size >= 4:
            rdd = ((rate[2:] - 2.0 * rate[1:-1] + rate[:-2])
                   / ((times[2:] - times[1:-1]) ** 2).reshape(col))
        else:
            rdd = np.zeros_like(mean_diff)
        trunc = (h / 2.0) ** 2 / 6.0 * np.abs(rdd)
        em = traj.config.dt * np.abs(rate[1:-1])
        threshold = tol_multiplier * (se + trunc + em)
        bad = np.abs(mean_diff) > threshold
        form_pass[key] = not np.any(bad)
        n_checks += bad.size
        for idx in map(tuple, np.argwhere(bad).tolist()):
            failures.append({
                "quantity": quantity_label(key, idx[1:]),
                "t": float(times[idx[0] + 1]),
                "fd": float(fd[idx]), "rate": float(rate[1:-1][idx]),
                "threshold": float(threshold[idx]), "passed": False})
    return {"overall_pass": all(form_pass.values()), "form_pass": form_pass,
            "n_checks": n_checks, "failures": failures}


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
    return MomentSet(mean=mean, covariance=cov, third=third, fourth=fourth,
                     ensemble_size=0)


def analytic_stationary(proc: ProcessDefinition) -> MomentSet:
    """Stationary moments of the Dirichlet invariant law a process states.

    The process constructors derive invariant_dirichlet from the zero-flux
    stationary condition; the test suite checks it against direct sampling.
    """
    if proc.invariant_dirichlet is None:
        raise UnsupportedProcess(f"no analytic stationary moments for {proc.name!r}")
    return dirichlet_moments(proc.invariant_dirichlet)
