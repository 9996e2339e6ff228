"""Ensemble moment estimation, moment evolution rates, and analytic oracles.

Moments cover all N components, the remainder estimated from the states like
any other, so unit mean sums and zero covariance row sums are checked, not
built in; rates cover the N-1 independent components.  A snapshot makes one
component-major pass, batch_statistics: it walks whole particle batches in
chunks of at most about 2 MiB (CHUNK_BYTES) of work buffer, drift and
diffusion block, and evaluates drift and one diffusion closure, functions
of the state alone, exactly once per particle.  Within a chunk every power
and rate product is written in place into one work buffer and summed per
batch in one segment sum along the particle axis; each run of equal-size
batches is viewed as (..., batches, size), so it is centred by broadcasting
and its per-batch products are one stacked matmul.  estimate_moments merges
the per-batch moments exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ProcessDefinition, check_count, check_positive, component_major
from .errors import InsufficientSnapshots, InvalidParameter, UnsupportedProcess

#: variances below this leave skewness/kurtosis undefined (NaN)
VAR_GUARD = 1e-14

#: standard errors in a rate or stationary check's threshold
SE_MULTIPLIER = 3.0

#: batch_statistics walks whole batches in chunks whose work buffer, drift
#: and (K, K, m) diffusion block stay within this many bytes together, so a
#: snapshot's peak memory does not grow with M
CHUNK_BYTES = 2 << 20


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

    @classmethod
    def stack(cls, sets) -> "MomentSet":
        """Moment sets stacked along a leading axis."""
        return cls(*(np.stack([getattr(m, name) for m in sets])
                     for name in ("mean", "covariance", "third", "fourth")))

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
        raise InvalidParameter("states", f"need M >= 2 particles, got {m}")
    return batch_slices(m, n_batches)


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
        _ensemble_batches(m, 1)  # refuses m < 2
        bm = _chunk_statistics(component_major(states), [m])[0]
    if np.sum(bm["count"]) != m:
        raise InvalidParameter("batch_moments", f"batches hold "
                               f"{np.sum(bm['count'])} of {m} particles")
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
    return MomentSet(mean, cov, third, fourth)


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

    The pass walks whole batches in chunks whose work buffer, drift and
    (K, K, m) diffusion block stay within CHUNK_BYTES (one batch at least),
    and concatenates the chunks' per-batch arrays.  Each particle meets
    drift and one diffusion closure exactly once; each per-batch sum is one
    segment sum over its own batch, so the chunking changes no value.
    """
    states = np.asarray(states, dtype=float)
    m, n = states.shape
    slices = _ensemble_batches(m, n_batches)
    xs = component_major(states)
    # per particle: the (4, N) work buffer, the drift and a (K, K) block
    rows = 4 * n + (n - 1) + (n - 1) ** 2
    longest = max(s.stop - s.start for s in slices)
    per_chunk = max(1, CHUNK_BYTES // (rows * states.itemsize * longest))
    parts = []
    for i in range(0, len(slices), per_chunk):
        chunk = slices[i:i + per_chunk]
        lo = chunk[0].start
        parts.append(_chunk_statistics(
            xs[:, lo:chunk[-1].stop], [s.stop - s.start for s in chunk], proc))
    return tuple({key: np.concatenate([part[j][key] for part in parts])
                  for key in parts[0][j]} for j in (0, 1))


def _chunk_statistics(x, sizes, proc=None):
    """batch_statistics' two dicts for the (N, m) states x of consecutive
    batches of the given sizes; without proc, the moments alone and no
    closure call.

    The centred powers, then the rate products, are written in place into
    one (4, N, m) work buffer and summed over every batch in one segment sum
    each; drift and diffusion are summed where the closures return them.  A
    run of equal-size batches is viewed as (..., batches, size): it is
    centred by broadcasting against its batch means, and its per-batch
    products are one stacked matmul.
    """
    n, m = x.shape
    k = n - 1
    counts = np.array(sizes)
    starts = np.cumsum(counts) - counts
    runs = []  # (particle slice, batch slice, size) of each run
    for size, run in itertools.groupby(range(len(sizes)), sizes.__getitem__):
        run = list(run)
        runs.append((slice(starts[run[0]], starts[run[-1]] + size),
                     slice(run[0], run[-1] + 1), size))

    def mean(v):
        """Per-batch means along the trailing axis, batch axis last."""
        # batch_slices makes no empty segment, for which reduceat is not 0
        return np.add.reduceat(v, starts, axis=-1) / counts

    def batched(v, run):
        return v[..., run[0]].reshape(v.shape[:-1] + (-1, run[2]))

    def centre(v, mu, out):
        for run in runs:
            np.subtract(batched(v, run), mu[..., run[1], None],
                        out=batched(out, run))

    def products(u, v):
        """Per-batch means of u v^T for (K, m) rows, as (batches, K, K)."""
        out = np.empty((counts.size, u.shape[0], v.shape[0]))
        for run in runs:
            np.matmul(batched(u, run).transpose(1, 0, 2),
                      batched(v, run).transpose(1, 2, 0), out=out[run[1]])
        return out / counts[:, None, None]

    if proc is not None:  # first, so closure temporaries never meet the buffer
        a = proc.drift(x[:-1])
        if proc.diffusion_diag is not None:
            B, d = None, proc.diffusion_diag(x[:-1])
        else:
            B = proc.diffusion(x[:-1])
            d = np.einsum("iim->im", B)
    w = np.empty((4, n, m))
    c, c3, c4 = w[:3]
    mu = mean(x)
    # one compensation pass removes the roundoff of the first mean
    centre(x, mu, c)
    mu = mu + mean(c)
    centre(x, mu, c)
    np.multiply(c, c, out=c4)
    np.multiply(c4, c, out=c3)
    np.multiply(c4, c4, out=c4)
    third, fourth = mean(w[1:3])
    moments = {"count": counts, "mean": mu.T, "cov": products(c, c),
               "third": third.T, "fourth": fourth.T}
    if proc is None:
        return moments, None
    ya = products(c[:k], a)
    a_mean = mean(a)
    if B is None:
        b_mean = np.zeros((counts.size, k, k))
        b_mean[:, range(k), range(k)] = mean(d).T
    else:
        b_mean = np.moveaxis(mean(B), -1, 0)
    # the rate products of the K reduced rows, each written over rows no
    # later product reads: c^2 where c^4 was, a - mean a into block 3
    ac, c2, cy, c3y = w[3, :k], c4[:k], c[:k], c3[:k]
    centre(a, a_mean, ac)
    np.multiply(cy, cy, out=c2)
    np.multiply(c3y, ac, out=c3y)
    np.multiply(c2, ac, out=ac)
    np.multiply(cy, d, out=cy)
    np.multiply(c2, d, out=c2)
    cd, c3ac, c2d, c2ac = mean(w[:, :k])
    return moments, {
        "mean": a_mean.T, "cov": ya + ya.transpose(0, 2, 1) + b_mean,
        "third": (3.0 * c2ac + 3.0 * cd).T,
        "fourth": (4.0 * c3ac + 6.0 * c2d).T}


def quantity_label(name: str, index) -> str:
    """A moment entry's label in compare.json: name[i,j], 1-based."""
    return name + "[" + ",".join(str(i + 1) for i in index) + "]"


def batch_mean_se(values: np.ndarray, axis: int = 0):
    """Mean over the batch axis of per-batch values, and its standard error."""
    return (values.mean(axis=axis),
            values.std(axis=axis, ddof=1) / np.sqrt(values.shape[axis]))


def judged_snapshots(steps) -> np.ndarray:
    """Indices of the interior snapshots, recorded after the given steps,
    whose two intervals hold the same number of steps: the snapshots at
    which a central difference and the curvature of three rates are
    judged.  InsufficientSnapshots refuses fewer than three snapshots, or
    no interior one so spaced."""
    steps = np.asarray(steps)
    if steps.size < 3:
        raise InsufficientSnapshots(f"need >= 3 snapshots, got {steps.size}")
    judged = np.flatnonzero(steps[2:] - steps[1:-1] == steps[1:-1] - steps[:-2])
    if judged.size == 0:
        raise InsufficientSnapshots(
            "no interior snapshot has two intervals of equal steps, "
            f"snapshot steps {steps.astype(int).tolist()}")
    return judged + 1


def cross_validate_rates(traj, tol_multiplier: float = SE_MULTIPLIER) -> dict:
    """Compare central finite differences of recorded moments with rates.

    At every judged snapshot at once (judged_snapshots, the steps read as
    rint(t / dt)), the difference FD - rate is formed per particle batch and
    judged against tol_multiplier * (batch standard error + a
    finite-difference truncation allowance + an Euler step-bias allowance).
    The batch moments cover all N components; the K reduced ones, which
    have rates, are judged.  Returns compare.json's rate_check:
    overall_pass, form_pass (moment name -> all its checks passed), n_checks
    ((snapshot, entry) checks made) and failures (the failed checks, as
    dicts, in check order).
    """
    check_positive("tol_multiplier", tol_multiplier)
    times = traj.t
    j = judged_snapshots(np.rint(times / traj.config.dt))
    lo, hi = j - 1, j + 1
    n_checks, failures, form_pass = 0, [], {}
    for key in ("mean", "cov", "third", "fourth"):
        bmom = traj.batch_moments[key]  # (T, nb, ...)
        bmom = bmom[(...,) + (slice(-1),) * (bmom.ndim - 2)]  # reduced only
        # per judged snapshot, shaped to broadcast against (judged, ...)
        col = (-1,) + (1,) * (bmom.ndim - 2)
        h = (times[hi] - times[lo]).reshape(col)
        fd_b = (bmom[hi] - bmom[lo]) / h[:, np.newaxis]
        fd = fd_b.mean(axis=1)
        brate = traj.batch_rates[key]
        rate = brate.mean(axis=1)
        mean_diff, se = batch_mean_se(fd_b - brate[j], axis=1)
        # truncation allowance from the curvature of the rate series
        if times.size >= 4:
            rdd = ((rate[hi] - 2.0 * rate[j] + rate[lo])
                   / ((times[hi] - times[j]) ** 2).reshape(col))
        else:
            rdd = np.zeros_like(mean_diff)
        trunc = (h / 2.0) ** 2 / 6.0 * np.abs(rdd)
        em = traj.config.dt * np.abs(rate[j])
        threshold = tol_multiplier * (se + trunc + em)
        bad = np.abs(mean_diff) > threshold
        form_pass[key] = not np.any(bad)
        n_checks += bad.size
        for idx in map(tuple, np.argwhere(bad).tolist()):
            failures.append({
                "quantity": quantity_label(key, idx[1:]),
                "t": float(times[j[idx[0]]]),
                "fd": float(fd[idx]), "rate": float(rate[j][idx]),
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
    return MomentSet(mean=mean, covariance=cov, third=third, fourth=fourth)


def analytic_stationary(proc: ProcessDefinition) -> MomentSet:
    """Stationary moments of the Dirichlet invariant law a process states.

    The process constructors derive invariant_dirichlet from the zero-flux
    stationary condition; the test suite checks it against direct sampling.
    """
    if proc.invariant_dirichlet is None:
        raise UnsupportedProcess(f"no analytic stationary moments for {proc.name!r}")
    return dirichlet_moments(proc.invariant_dirichlet)
