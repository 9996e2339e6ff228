"""Numerical audits of boundary realizability and moment-bound constraints.

The boundary audit samples each face of the reduced-space polytope,
substitutes the face equation exactly (zeros, or a unit sum), and checks
the sign of the inward drift and the vanishing of the diffusion there, on
the component-major closure outputs.  A polynomial process, one whose
closures are a rate matrix Q and pair weights alpha (Filipovic & Larsson,
Finance Stoch. 20, 2016), is also judged exactly, by the signs of Q and
alpha, which decide the face conditions everywhere on the simplex.
Moment audits check the closed bounds and the zero-row-sum structure that
any ensemble of realizable states must satisfy, exactly up to roundoff.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (TOL_SUM, ProcessDefinition, check_count, check_positive,
                   component_major, component_sum, face_label, face_points)
from .errors import DegenerateState, SingularNesting
from .statistics import MomentSet


@dataclass(frozen=True)
class ToleranceSet:
    diffusion_zero_tol: float = 1e-10
    drift_sign_tol: float = 1e-10

    def __post_init__(self):
        for name in ("diffusion_zero_tol", "drift_sign_tol"):
            check_positive(name, getattr(self, name))


@dataclass
class AuditCheck:
    """One check; on stacked moments, violation and passed are per snapshot."""

    constraint: str        # e.g. "zero-face-1:drift-inward"
    subject: str           # face label or moment name
    violation: float       # worst violation magnitude, >= 0
    location: object       # reduced coordinates or an index pair
    passed: bool


@dataclass
class AuditReport:
    """Checks in order; a boundary audit also states whether it was exact
    (the closures fit a generator (Q, alpha)) and the fit's residual, None
    where the closures are not polynomial."""

    checks: list = field(default_factory=list)
    exact: bool = False
    fit_residual: Optional[float] = None

    @property
    def overall_pass(self) -> bool:
        return all(np.all(c.passed) for c in self.checks)

    def add(self, constraint, subject, violation, location, tol):
        violation = np.maximum(violation, 0.0)
        passed = violation <= tol
        if violation.ndim == 0:
            violation, passed = float(violation), bool(passed)
        self.checks.append(AuditCheck(constraint=constraint, subject=subject,
                                      violation=violation, location=location,
                                      passed=passed))

    def to_dict(self) -> dict:
        return {"overall_pass": self.overall_pass, "exact": self.exact,
                "fit_residual": self.fit_residual,
                "checks": [{"constraint": c.constraint, "subject": c.subject,
                            "violation": c.violation,
                            "location": np.asarray(c.location).tolist()
                            if c.location is not None else None,
                            "passed": c.passed} for c in self.checks]}

    def table(self) -> str:
        lines = [f"{'constraint':40s} {'subject':18s} {'violation':>12s} pass"]
        for c in self.checks:
            lines.append(f"{c.constraint:40s} {c.subject:18s} "
                         f"{c.violation:12.3e} {'yes' if c.passed else 'NO'}")
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)


def diffusion_matrices(proc: ProcessDefinition):
    """proc's diffusion closure; for a diagonal process, one that gives the
    (K, K, ...) matrices with the diagonals diffusion_diag(y), zero elsewhere,
    which its runs evaluate."""
    if proc.diffusion_diag is None:
        return proc.diffusion

    def diffusion(y):
        d = proc.diffusion_diag(y)
        out = np.zeros((d.shape[0],) + d.shape)
        idx = np.arange(d.shape[0])
        out[idx, idx] = d
        return out
    return diffusion


def _full(proc: ProcessDefinition, states: np.ndarray):
    """Drift (N, M) and diffusion (N, N, M) in full coordinates at (M, N)
    states: a_N = -sum(a), and B bordered so that its rows and columns sum
    to 0."""
    y = component_major(states[:, :-1])
    a, b = proc.drift(y), diffusion_matrices(proc)(y)
    a = np.vstack([a, -component_sum(a)])
    b = np.concatenate([b, -b.sum(axis=0, keepdims=True)], axis=0)
    return a, np.concatenate([b, -b.sum(axis=1, keepdims=True)], axis=1)


def polynomial_generator(proc: ProcessDefinition, gen=None, piece: int = 1000):
    """(Q, alpha, residual) of proc in full coordinates, or None where the
    closures raise SingularNesting at the nodes (not polynomial).

    Q[i, j] = q_{j->i} = a_i(e_j), the drift at the vertices, so that
    a(Y) = Q Y; alpha[i, j] = 4 B_ii at the midpoint of edge (i, j), the
    C(N, 2) midpoints evaluated at most piece at a time.  The residual is
    the largest difference between the closures and a = Q Y,
    B = diag(P 1) - P with P = alpha * Y Y^T at 400 Dirichlet(1) states
    drawn from the numpy Generator gen (default_rng(0) if None).
    """
    n = proc.dimension
    eye = np.eye(n)
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    alpha = np.zeros((n, n))
    try:
        q = _full(proc, eye)[0]
        for first in range(0, len(pairs), piece):
            i, j = pairs[first:first + piece].T
            mid = component_major((eye[i] + eye[j])[:, :-1] / 2)
            # B_ii with i < j <= N - 1 is a reduced diagonal entry
            cols = np.arange(len(i))
            b_ii = (proc.diffusion(mid)[i, i, cols] if proc.diffusion_diag is None
                    else proc.diffusion_diag(mid)[i, cols])
            alpha[i, j] = alpha[j, i] = 4.0 * b_ii
        gen = np.random.default_rng(0) if gen is None else gen
        states = gen.dirichlet(np.ones(n), 400)
        a, b = _full(proc, states)
    except SingularNesting:
        return None
    y = states.T
    # b - (diag(P 1) - P), formed in place in b
    pieces = alpha[:, :, None] * y[:, None]
    pieces *= y[None]
    b += pieces
    b[np.arange(n), np.arange(n)] -= pieces.sum(axis=1)
    del pieces
    residual = max(np.max(np.abs(a - q @ y)), np.max(np.abs(b)))
    return q, alpha, float(residual)


def audit_boundary(proc: ProcessDefinition, samples_per_face: int, rng,
                   tol: ToleranceSet = ToleranceSet()) -> AuditReport:
    """Check the inward-drift and zero-diffusion conditions on every face.

    Zero face alpha: the drift component alpha must be >= 0 (up to sign
    tolerance) and row alpha of the diffusion matrix must vanish.  Unit-sum
    face: the drift component along the outward normal (the sum over
    components) must be <= 0 and the diffusion must annihilate the normal
    (zero row-sums and total sum); diagonal-structured processes must
    additionally satisfy the stricter entrywise conditions there, every
    drift component <= 0 and, judged as the row sums, every diagonal entry
    zero, on diffusion_diag, which its runs evaluate.  The face points are
    drawn from the RandomSource rng.

    Where the closures fit a generator (Q, alpha) to TOL_SUM, the audit is
    exact: two checks follow the faces', every off-diagonal rate
    q_{j->i} >= 0 and every pair weight alpha_ij >= 0.  An affine drift
    takes its least value on a face at a vertex, where a_i(e_j) = q_{j->i};
    the pair form vanishes on its faces by construction and is positive
    semi-definite on the whole simplex exactly when alpha >= 0.  The fit's
    interior states are drawn from rng after the last face.
    """
    check_count("samples_per_face", samples_per_face)
    gen = rng.generator
    k = proc.k
    report = AuditReport()

    def check(name, values, limit):
        """Record the face's condition name: the largest of values over
        (..., sample), the sample where it occurs (a copy: a view would
        keep the face's points alive), judged against limit."""
        per_sample = values.reshape(-1, values.shape[-1]).max(axis=0)
        i = int(np.argmax(per_sample))
        report.add(f"{label}:{name}", label, per_sample[i], pts[i].copy(), limit)

    diag = proc.diffusion_diag is not None
    for face in range(k + 1):
        pts = face_points(face, k, samples_per_face, gen)
        label = face_label(face, k)
        try:
            y = component_major(pts)
            a = proc.drift(y)              # (K, M)
            # (K, M) diagonals or (K, K, M) matrices: what a run evaluates
            B = proc.diffusion_diag(y) if diag else proc.diffusion(y)
        except Exception as exc:
            raise DegenerateState(
                f"drift/diffusion raised on {label}: {exc}") from exc
        # each condition's values are freed before the next are formed
        if face < k:
            check("drift-inward", -a[face], tol.drift_sign_tol)
            check("diffusion-zero", np.abs(B[face]), tol.diffusion_zero_tol)
            continue
        check("drift-inward", component_sum(a), tol.drift_sign_tol)
        check("diffusion-row-sums", np.abs(B if diag else B.sum(axis=1)),
              tol.diffusion_zero_tol)
        check("diffusion-total-sum",
              np.abs(component_sum(B) if diag else B.sum(axis=(0, 1))),
              tol.diffusion_zero_tol)
        if diag:
            check("drift-componentwise", a, tol.drift_sign_tol)
    del a, B  # the last face's blocks go before the generator's
    try:
        fit = polynomial_generator(proc, gen, samples_per_face)
    except Exception as exc:
        raise DegenerateState(
            f"drift/diffusion raised at a generator node: {exc}") from exc
    if fit is None:
        return report
    q, alpha, report.fit_residual = fit
    report.exact = report.fit_residual <= TOL_SUM
    if report.exact:
        off = ~np.eye(proc.dimension, dtype=bool)
        for name, weights, limit in (
                ("drift-rates-non-negative", q, tol.drift_sign_tol),
                ("diffusion-pairs-non-negative", alpha, tol.diffusion_zero_tol)):
            i, j = np.unravel_index(np.argmin(np.where(off, weights, np.inf)),
                                    off.shape)
            report.add(f"generator:{name}", "generator", -weights[i, j],
                       [i + 1, j + 1], limit)
    return report


def _last(values, i):
    """values at the indices i along the last axis, which i drops."""
    return np.take_along_axis(values, i[..., np.newaxis], -1)[..., 0]


def audit_moment_bounds(m: MomentSet) -> AuditReport:
    """Closed bounds on means and central moments of bounded fractions.

    On moments stacked over snapshots, every snapshot is judged at once.
    """
    report = AuditReport()
    lead = m.mean.ndim - 1

    def bound(name, values, lo, hi):
        over = np.maximum(lo - values, values - hi)
        shape = over.shape[lead:]
        over = over.reshape(over.shape[:lead] + (-1,))
        i = np.argmax(over, axis=-1)
        report.add(name, "moments", _last(over, i),
                   np.stack(np.unravel_index(i, shape), axis=-1), TOL_SUM)

    bound("means-in-[0,1]", m.mean, 0.0, 1.0)
    report.add("means-sum-to-one", "moments", np.abs(m.mean.sum(axis=-1) - 1.0),
               None, TOL_SUM)
    bound("variances-in-[0,1]", np.diagonal(m.covariance, axis1=-2, axis2=-1),
          0.0, 1.0)
    bound("covariances-in-[-1,1]", m.covariance, -1.0, 1.0)
    bound("third-moments-in-[-1,1]", m.third, -1.0, 1.0)
    bound("fourth-moments-in-[0,1]", m.fourth, 0.0, 1.0)
    return report


def audit_covariance_structure(m: MomentSet) -> AuditReport:
    """Zero row-sums, the weak constraint, and exact symmetry of the covariance.

    The identities hold sample by sample for states that sum to one, so
    each is judged at the roundoff allowance TOL_SUM.  On moments stacked
    over snapshots, every snapshot is judged at once.
    """
    report = AuditReport()
    rows = np.abs(m.covariance_row_sums())
    i = np.argmax(rows, axis=-1)
    report.add("covariance-row-sums-zero", "covariance", _last(rows, i),
               i[..., np.newaxis] + 1, TOL_SUM)
    report.add("weak-zero-sum-residual", "covariance",
               np.abs(m.weak_constraint_residual()), None, TOL_SUM)
    asym = np.max(np.abs(m.covariance - np.swapaxes(m.covariance, -2, -1)),
                  axis=(-2, -1))
    report.add("covariance-symmetry", "covariance", asym, None, 0.0)
    return report
