"""The four realizable simplex diffusion processes plus negative controls.

Each constructor validates its parameters and returns a ProcessDefinition
whose closures take component-major reduced states of shape (N-1, ...):
drift and diffusion_diag return (N-1, ...), diffusion (N-1, N-1, ...), and
Wright-Fisher's diffusion_factor three (N-1, ...) arrays (d, u, v).  The
diagonal-diffusion processes supply diffusion_diag alone; ProcessDefinition
builds their matrices.  Drift and diffusion entries carry units of 1/time.
The beta, Wright-Fisher and constant-ratio Dirichlet processes state their
Dirichlet invariant law as invariant_dirichlet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ProcessDefinition
from .errors import DirichletConstraintViolated, InvalidParameter, SingularNesting

DIRCONST_RTOL = 1e-10


def _col(v, y):
    """A per-component array shaped to broadcast against component-major y."""
    return v.reshape(v.shape + (1,) * (y.ndim - 1))


def _running(op, y):
    """op.accumulate over the leading axis, one row at a time.

    The result is np.cumsum(y, axis=0) for np.add (np.cumprod for
    np.multiply) bit for bit; numpy's own accumulate walks the short leading
    axis innermost, which is many times slower.
    """
    out = y.copy()
    for i in range(1, out.shape[0]):
        op(out[i - 1], out[i], out=out[i:i + 1])  # a view even for 1-D y
    return out


def invariant_ratio(b, S, kappa):
    """(1-S) b / kappa, and whether it is constant (a Dirichlet invariant law)."""
    ratio = (1.0 - S) * b / kappa
    varies = np.max(np.abs(ratio - ratio[0])) > DIRCONST_RTOL * max(1.0, abs(ratio[0]))
    return ratio, not varies


def _as_vector(x, name, length=None):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidParameter(name, f"expected a vector, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise InvalidParameter(name, f"expected length {length}, got {v.shape[0]}")
    return v


def _validate_rate_vectors(p):
    """Check p.b, p.S and p.kappa as vectors of one length; store them as arrays."""
    b = _as_vector(p.b, "b")
    S = _as_vector(p.S, "S", b.shape[0])
    kappa = _as_vector(p.kappa, "kappa", b.shape[0])
    if np.any(b <= 0):
        raise InvalidParameter("b", "all components must be > 0")
    if np.any(kappa <= 0):
        raise InvalidParameter("kappa", "all components must be > 0")
    if np.any((S <= 0) | (S >= 1)):
        raise InvalidParameter("S", "all components must be in (0, 1)")
    for name, v in (("b", b), ("S", S), ("kappa", kappa)):
        object.__setattr__(p, name, v)


@dataclass(frozen=True)
class BetaParams:
    """Parameters of the scalar mean-reverting process with quadratic diffusion."""

    b: float
    S: float
    kappa: float

    def __post_init__(self):
        if not self.b > 0:
            raise InvalidParameter("b", f"must be > 0, got {self.b}")
        if not self.kappa > 0:
            raise InvalidParameter("kappa", f"must be > 0, got {self.kappa}")
        if not 0.0 <= self.S <= 1.0:
            raise InvalidParameter("S", f"must be in [0, 1], got {self.S}")


@dataclass(frozen=True)
class WrightFisherParams:
    omega: np.ndarray

    def __post_init__(self):
        omega = _as_vector(self.omega, "omega")
        if omega.shape[0] < 2:
            raise InvalidParameter("omega", "need at least 2 components")
        if np.any(omega <= 0):
            raise InvalidParameter("omega", "all components must be > 0")
        object.__setattr__(self, "omega", omega)

    @property
    def omega_total(self) -> float:
        return float(self.omega.sum())


@dataclass(frozen=True)
class DirichletParams:
    """Per-component relaxation/mean/diffusion vectors over the N-1 reduced axes.

    dirichlet_invariant requests the guarantee that the invariant law is
    Dirichlet, which additionally requires (1-S_a) b_a / kappa_a to be the
    same for every component.
    """

    b: np.ndarray
    S: np.ndarray
    kappa: np.ndarray
    dirichlet_invariant: bool = False

    def __post_init__(self):
        _validate_rate_vectors(self)
        if self.dirichlet_invariant:
            ratio, constant = invariant_ratio(self.b, self.S, self.kappa)
            if not constant:
                raise DirichletConstraintViolated(
                    f"(1-S) b / kappa must be constant, got {ratio}")


@dataclass(frozen=True)
class GenDirichletParams:
    """Nested-remainder generalization; c couples component a to later axes.

    c is a (K-1) x (K-1) matrix, zero below the diagonal, where K is the
    number of reduced components.
    """

    b: np.ndarray
    S: np.ndarray
    kappa: np.ndarray
    c: np.ndarray = field(default=None)

    def __post_init__(self):
        _validate_rate_vectors(self)
        k = self.b.shape[0]
        c = self.c
        if c is None:
            c = np.zeros((k - 1, k - 1))
        c = np.asarray(c, dtype=float)
        if c.shape != (k - 1, k - 1):
            raise InvalidParameter("c", f"expected shape {(k - 1, k - 1)}, got {c.shape}")
        if k > 1 and np.any(np.tril(c, -1) != 0.0):
            raise InvalidParameter("c", "entries below the diagonal must be zero")
        object.__setattr__(self, "c", c)

    @classmethod
    def reduction_of(cls, p: DirichletParams) -> "GenDirichletParams":
        """Coupling c[a, beta] = kappa[a] (a <= beta) that keeps p's invariant law.

        With p's Dirichlet invariant density (which needs (1-S) b / kappa
        constant), the nested process's a-th zero-flux condition reduces to
        sum over beta >= a of (c[a, beta] / kappa[a] - 1) / Y'_beta = 0, where
        Y'_beta = 1 - Y_1 - ... - Y_beta; it holds at every state only for
        this coupling.
        """
        k = p.b.shape[0]
        c = np.triu(np.tile(p.kappa[:-1, np.newaxis], (1, k - 1)))
        return cls(b=p.b, S=p.S, kappa=p.kappa, c=c)


def beta_process(p: BetaParams) -> ProcessDefinition:
    """Scalar process on [0, 1]: linear drift toward S, quadratic diffusion."""
    b, S, kappa = p.b, p.S, p.kappa

    def drift(y, t):
        return 0.5 * b * (S - y)

    def diffusion_diag(y, t):
        return kappa * y * (1.0 - y)

    return ProcessDefinition(
        dimension=2, drift=drift, name="beta",
        invariant_dirichlet=np.array([b * S / kappa, b * (1.0 - S) / kappa]),
        diffusion_diag=diffusion_diag)


def _wf_diffusion_factor(y):
    """Closed-form lower-triangular factor of diag(Y) - Y Y^T, as (d, u, v).

    L[i, i] = d[i] and L[i, j] = u[i] * v[j] for j < i, with u = -Y, built
    from the nested remainders q_j = 1 - Y_1 - ... - Y_j (q_0 = 1):
    d = sqrt(Y_j q_j / q_{j-1}) and v = sqrt(Y_j / (q_j q_{j-1})).  An entry
    that divides by a zero remainder is zero: that column carries no noise.
    Each remainder of a finite state is 0 or at least 2^-53 in magnitude,
    so no other quotient overflows.
    """
    q = _running(np.add, y)
    np.subtract(1.0, q, out=q)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = y * q
        d[1:] /= q[:-1]
        v = q.copy()
        v[1:] *= q[:-1]
        np.divide(y, v, out=v)
    if not np.isfinite(np.sum(v)):  # only a zero remainder makes v infinite
        zero = q == 0.0  # d[j] divides by q[j-1], v[j] by q[j] q[j-1]
        d[1:][zero[:-1]] = 0.0
        v[zero] = 0.0
        v[1:][zero[:-1]] = 0.0
    for a in (d, v):
        np.sqrt(np.maximum(a, 0.0, out=a), out=a)
    return d, -y, v


def wright_fisher_process(p: WrightFisherParams) -> ProcessDefinition:
    """Multivariate neutral-mutation diffusion with full coupling matrix."""
    omega = p.omega
    w = p.omega_total
    k = omega.shape[0] - 1
    om = omega[:k]
    eye = np.eye(k)

    def drift(y, t):
        return 0.5 * (_col(om, y) - w * y)

    def diffusion(y, t):
        B = _col(eye, y) - y[np.newaxis]
        B *= y[:, np.newaxis]   # in place: one (K, K, ...) array, same products
        return B

    return ProcessDefinition(
        dimension=k + 1, drift=drift, diffusion=diffusion, name="wright_fisher",
        invariant_dirichlet=omega,
        diffusion_factor=lambda y, t: _wf_diffusion_factor(y))


def dirichlet_process(p: DirichletParams) -> ProcessDefinition:
    """Componentwise mean-reverting process with diagonal diffusion b_aa ~ Y_a Y_N."""
    b, S, kappa = p.b, p.S, p.kappa
    k = b.shape[0]
    c_in = 0.5 * b * S
    c_out = 0.5 * b * (1.0 - S)

    def drift(y, t):
        y_last = 1.0 - np.sum(y, axis=0)
        out = _col(c_in, y) * y_last
        out -= _col(c_out, y) * y
        return out

    def diffusion_diag(y, t):
        d = _col(kappa, y) * y
        d *= 1.0 - np.sum(y, axis=0)
        return d

    ratio, constant = invariant_ratio(b, S, kappa)
    return ProcessDefinition(
        dimension=k + 1, drift=drift, name="dirichlet",
        invariant_dirichlet=(np.concatenate([b * S / kappa, [ratio[0]]])
                             if constant else None),
        diffusion_diag=diffusion_diag)


def _gen_dirichlet_terms(y):
    """Nesting remainders cy, the last one, and the prefactors u.

    A zero remainder leaves an infinite prefactor, which the callers guard.
    """
    cy = _running(np.add, y)                  # cy[a] = 1 - Y_1 - ... - Y_{a+1}
    np.subtract(1.0, cy, out=cy)
    u = np.empty(y.shape)                     # u[a] = 1 / (cy[a] * ... * cy[k-2])
    u[-1] = 1.0
    if y.shape[0] > 1:
        prod = _running(np.multiply, cy[-2::-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(1.0, prod[::-1], out=u[:-1])
    return cy, cy[-1], u


def gen_dirichlet_process(p: GenDirichletParams) -> ProcessDefinition:
    """Nested generalization of the Dirichlet process with triangular coupling."""
    b, S, kappa = p.b, p.S, p.kappa
    S_out = 1.0 - S
    c_t = np.ascontiguousarray(p.c.T)    # c_t[beta, a] = c[a, beta]

    def drift(y, t):
        cy, cy_last, u = _gen_dirichlet_terms(y)
        # rows a < K-1 gain c[a, beta] Y_a Y_N / cy[beta], summed over the
        # leading beta axis in order (c_t is C-ordered, so num is)
        num = _col(c_t, y) * (y[:-1] * cy_last)
        # a zero remainder cy[f] makes this 0/0, and u[f] infinite against
        # bracket[f] = -b_f (1 - S_f) Y_f != 0 at the first f: both raise below
        with np.errstate(divide="ignore", invalid="ignore"):
            num /= cy[:-1, np.newaxis]
        bracket = _col(S, y) * cy_last
        bracket -= _col(S_out, y) * y
        bracket *= _col(b, y)
        bracket[:-1] += num.sum(axis=0)
        # a zero bracket gives 0 whatever its sign and the prefactor
        zero = bracket == 0.0
        out = np.multiply(0.5, u, out=u)
        out *= bracket
        out[zero] = 0.0
        if not np.all(np.isfinite(out)):
            raise SingularNesting("drift is undefined: zero nested remainder "
                                  "against a non-zero numerator")
        return out

    def diffusion_diag(y, t):
        cy, cy_last, u = _gen_dirichlet_terms(y)
        d = _col(kappa, y) * y
        d *= cy_last
        zero = d == 0.0
        with np.errstate(invalid="ignore"):  # 0 * inf, zeroed on the next line
            d *= u
        d[zero] = 0.0
        if not np.all(np.isfinite(d)):
            raise SingularNesting("diffusion is undefined: zero nested remainder "
                                  "against a non-zero numerator")
        return d

    return ProcessDefinition(
        dimension=b.shape[0] + 1, drift=drift, name="gen_dirichlet",
        diffusion_diag=diffusion_diag)


def broken_process(style: str, n: int = 3) -> ProcessDefinition:
    """Deliberately non-realizable controls for the boundary auditor.

    "constant_diffusion" keeps diffusion at 0.1 * I everywhere (non-zero on
    every face); "outward_drift" pushes every component with rate -1
    (outward across every zero face).
    """
    if style == "constant_diffusion":
        def drift(y, t):
            return np.zeros_like(y)

        def diffusion_diag(y, t):
            return np.full(y.shape, 0.1)

        name = "broken_constant_diffusion"
    elif style == "outward_drift":
        def drift(y, t):
            return np.full_like(y, -1.0)

        def diffusion_diag(y, t):
            return np.zeros(y.shape)

        name = "broken_outward_drift"
    else:
        raise InvalidParameter("style", f"unknown style {style!r}")
    return ProcessDefinition(dimension=n, drift=drift, name=name,
                             diffusion_diag=diffusion_diag)
