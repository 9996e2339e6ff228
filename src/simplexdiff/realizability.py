"""Numerical audits of boundary realizability and moment-bound constraints.

The boundary audit samples each face of the reduced-space polytope,
substitutes the face equation exactly (zeros, or a unit sum), and checks
the sign of the inward drift and the vanishing of the diffusion there, on
the component-major closure outputs.
Moment audits check the closed bounds and the zero-row-sum structure that
any ensemble of realizable states must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (ProcessDefinition, check_count, check_positive,
                   component_major, face_label, face_points)
from .errors import EvaluationFailure
from .statistics import MomentSet

#: identities that hold per-sample are checked at this fixed tolerance
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class ToleranceSet:
    diffusion_zero_tol: float = 1e-10
    drift_sign_tol: float = 1e-10
    moment_stat_tol: float = 3.0

    def __post_init__(self):
        for name in ("diffusion_zero_tol", "drift_sign_tol", "moment_stat_tol"):
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
    checks: list = field(default_factory=list)

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
        return {"overall_pass": self.overall_pass,
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


def audit_boundary(proc: ProcessDefinition, samples_per_face: int, rng,
                   tol: ToleranceSet = ToleranceSet()) -> AuditReport:
    """Check the inward-drift and zero-diffusion conditions on every face.

    Zero face alpha: the drift component alpha must be >= 0 (up to sign
    tolerance) and row alpha of the diffusion matrix must vanish.  Unit-sum
    face: the drift component along the outward normal (the sum over
    components) must be <= 0 and the diffusion must annihilate the normal
    (zero row-sums and total sum); diagonal-structured processes must
    additionally satisfy the stricter entrywise conditions there, every
    drift component <= 0 and every matrix entry zero, judged on
    diffusion_diag, which its runs evaluate.  The face points are drawn
    from the RandomSource rng.
    """
    check_count("samples_per_face", samples_per_face)
    gen = rng.generator
    k = proc.k
    report = AuditReport()

    def check(name, values, limit):
        """Record the face's condition name: the largest of values over
        (..., sample), the sample where it occurs, judged against limit."""
        per_sample = values.reshape(-1, values.shape[-1]).max(axis=0)
        i = int(np.argmax(per_sample))
        report.add(f"{label}:{name}", label, per_sample[i], pts[i], limit)

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
            raise EvaluationFailure(
                f"drift/diffusion raised on {label}: {exc}") from exc
        # each condition's values are freed before the next are formed
        if face < k:
            check("drift-inward", -a[face], tol.drift_sign_tol)
            check("diffusion-zero", np.abs(B[face]), tol.diffusion_zero_tol)
            continue
        check("drift-inward", a.sum(axis=0), tol.drift_sign_tol)
        check("diffusion-row-sums", np.abs(B if diag else B.sum(axis=1)),
              tol.diffusion_zero_tol)
        check("diffusion-total-sum", np.abs(B.sum(axis=0 if diag else (0, 1))),
              tol.diffusion_zero_tol)
        if diag:
            check("drift-componentwise", a, tol.drift_sign_tol)
            check("diffusion-entries", np.abs(B), tol.diffusion_zero_tol)
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
                   np.stack(np.unravel_index(i, shape), axis=-1), EXACT_TOL)

    bound("means-in-[0,1]", m.mean, 0.0, 1.0)
    report.add("means-sum-to-one", "moments", np.abs(m.mean.sum(axis=-1) - 1.0),
               None, EXACT_TOL)
    bound("variances-in-[0,1]", np.diagonal(m.covariance, axis1=-2, axis2=-1),
          0.0, 1.0)
    bound("covariances-in-[-1,1]", m.covariance, -1.0, 1.0)
    bound("third-moments-in-[-1,1]", m.third, -1.0, 1.0)
    bound("fourth-moments-in-[0,1]", m.fourth, 0.0, 1.0)
    return report


def _rowsum_se(m: MomentSet) -> np.ndarray:
    """Conservative standard-error scale for covariance row-sums.

    Treats the row-sum estimator as an average of y_a * sum(y) products
    with spread bounded by the componentwise standard deviations; exact for
    degenerate ensembles (zero), conservative otherwise.
    """
    sd = np.sqrt(np.maximum(np.diagonal(m.covariance, axis1=-2, axis2=-1), 0.0))
    return sd * sd.sum(axis=-1, keepdims=True) / np.sqrt(max(m.ensemble_size, 1))


def audit_covariance_structure(m: MomentSet,
                               tol: ToleranceSet = ToleranceSet()) -> AuditReport:
    """Zero row-sums, the weak constraint, and exact symmetry of the covariance.

    The identities hold sample-wise for realizable states, so the
    statistical tolerance is floored at the fixed accumulation tolerance.
    On moments stacked over snapshots, every snapshot is judged at once.
    """
    report = AuditReport()
    se = _rowsum_se(m)
    rows = m.covariance_row_sums()
    thresholds = np.maximum(tol.moment_stat_tol * se, EXACT_TOL)
    i = np.argmax(np.abs(rows) - thresholds, axis=-1)
    report.add("covariance-row-sums-zero", "covariance", np.abs(_last(rows, i)),
               i[..., np.newaxis] + 1, _last(thresholds, i))
    weak_tol = np.maximum(tol.moment_stat_tol * se.sum(axis=-1), EXACT_TOL)
    report.add("weak-zero-sum-residual", "covariance",
               np.abs(m.weak_constraint_residual()), None, weak_tol)
    asym = np.max(np.abs(m.covariance - np.swapaxes(m.covariance, -2, -1)),
                  axis=(-2, -1))
    report.add("covariance-symmetry", "covariance", asym, None, 0.0)
    return report
