"""The four realizable simplex diffusion processes plus negative controls.

Each constructor validates its parameters and returns a ProcessDefinition
whose closures take the component-major reduced state alone, (N-1, ...):
drift and diffusion_diag return (N-1, ...), diffusion (N-1, N-1, ...), and
Wright-Fisher's diffusion_factor three (N-1, ...) arrays (d, u, v).  The
diagonal-diffusion processes supply diffusion_diag alone; ProcessDefinition
builds their matrices.  Drift and diffusion entries carry units of 1/time.
The beta, Wright-Fisher and constant-ratio Dirichlet processes state their
Dirichlet invariant law as invariant_dirichlet.
"""

from __future__ import annotations

import numpy as np

from .core import ProcessDefinition, holds_bool
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


def invariant_ratio(b, S, kappa, required=False):
    """(1-S) b / kappa, and whether it is constant (a Dirichlet invariant law).

    required refuses a ratio that varies.
    """
    ratio = (1.0 - S) * b / kappa
    varies = np.max(np.abs(ratio - ratio[0])) > DIRCONST_RTOL * max(1.0, abs(ratio[0]))
    if required and varies:
        raise DirichletConstraintViolated(f"(1-S) b / kappa must be constant, got {ratio}")
    return ratio, not varies


def _as_vector(x, name, length=None):
    if holds_bool(x):
        raise InvalidParameter(name, f"a bool is not a number, got {x!r}")
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidParameter(name, f"expected a vector, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise InvalidParameter(name, f"expected length {length}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise InvalidParameter(name, "all components must be finite")
    return v


def _rate_vectors(b, S, kappa):
    """b, S and kappa as float vectors of one length, each checked."""
    b = _as_vector(b, "b")
    S = _as_vector(S, "S", b.shape[0])
    kappa = _as_vector(kappa, "kappa", b.shape[0])
    if np.any(b <= 0):
        raise InvalidParameter("b", "all components must be > 0")
    if np.any(kappa <= 0):
        raise InvalidParameter("kappa", "all components must be > 0")
    if np.any((S <= 0) | (S >= 1)):
        raise InvalidParameter("S", "all components must be in (0, 1)")
    return b, S, kappa


def reduction_coupling(kappa) -> np.ndarray:
    """Coupling c[a, beta] = kappa[a] (a <= beta) that keeps a Dirichlet law.

    With the Dirichlet invariant density of (b, S, kappa) (which needs
    (1-S) b / kappa constant), the nested process's a-th zero-flux condition
    reduces to sum over beta >= a of (c[a, beta] / kappa[a] - 1) / Y'_beta = 0,
    where Y'_beta = 1 - Y_1 - ... - Y_beta; it holds at every state only for
    this coupling.
    """
    kappa = np.asarray(kappa, dtype=float)
    return np.triu(np.tile(kappa[:-1, np.newaxis], (1, kappa.shape[0] - 1)))


def beta_process(b, S, kappa) -> ProcessDefinition:
    """Scalar process on [0, 1]: linear drift toward S, quadratic diffusion."""
    if holds_bool(b) or not 0 < b < np.inf:
        raise InvalidParameter("b", f"must be > 0 and finite, got {b}")
    if holds_bool(kappa) or not 0 < kappa < np.inf:
        raise InvalidParameter("kappa", f"must be > 0 and finite, got {kappa}")
    if holds_bool(S) or not 0.0 <= S <= 1.0:
        raise InvalidParameter("S", f"must be in [0, 1], got {S}")

    def drift(y):
        return 0.5 * b * (S - y)

    def diffusion_diag(y):
        return kappa * y * (1.0 - y)

    return ProcessDefinition(
        dimension=2, drift=drift, name="beta",
        invariant_dirichlet=np.array([b * S / kappa, b * (1.0 - S) / kappa]),
        diffusion_diag=diffusion_diag)


def _wf_diffusion_factor(y):
    """Closed-form lower-triangular factor of diag(Y) - Y Y^T, as (d, u, v).

    L[i, i] = d[i] and L[i, j] = u[i] * v[j] for j < i, with u = Y itself
    (not a copy) and v <= 0, built from the nested remainders
    q_j = 1 - Y_1 - ... - Y_j (q_0 = 1): d = sqrt(Y_j q_j / q_{j-1}) and
    v = -sqrt(Y_j / (q_j q_{j-1})).  Y v[j] has the bits of (-Y) |v[j]|,
    as a product's sign is its factors' signs.  An entry that divides by a
    zero remainder is zero: that column carries no noise.
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
    return d, y, np.negative(v, out=v)


def wright_fisher_process(omega) -> ProcessDefinition:
    """Multivariate neutral-mutation diffusion with full coupling matrix."""
    omega = _as_vector(omega, "omega")
    if omega.shape[0] < 2:
        raise InvalidParameter("omega", "need at least 2 components")
    if np.any(omega <= 0):
        raise InvalidParameter("omega", "all components must be > 0")
    w = float(omega.sum())
    k = omega.shape[0] - 1
    om = omega[:k]
    eye = np.eye(k)

    def drift(y):
        return 0.5 * (_col(om, y) - w * y)

    def diffusion(y):
        B = _col(eye, y) - y[np.newaxis]
        B *= y[:, np.newaxis]   # in place: one (K, K, ...) array, same products
        return B

    return ProcessDefinition(
        dimension=k + 1, drift=drift, diffusion=diffusion, name="wright_fisher",
        invariant_dirichlet=omega,
        diffusion_factor=_wf_diffusion_factor)


def dirichlet_process(b, S, kappa, dirichlet_invariant=False) -> ProcessDefinition:
    """Componentwise mean-reverting process with diagonal diffusion b_aa ~ Y_a Y_N.

    b, S and kappa are per-component vectors over the N-1 reduced axes.
    dirichlet_invariant requires the invariant law to be Dirichlet, that is
    (1-S_a) b_a / kappa_a the same for every component.
    """
    b, S, kappa = _rate_vectors(b, S, kappa)
    ratio, constant = invariant_ratio(b, S, kappa, required=dirichlet_invariant)
    k = b.shape[0]
    c_in = 0.5 * b * S
    c_out = 0.5 * b * (1.0 - S)

    def drift(y):
        y_last = 1.0 - np.sum(y, axis=0)
        out = _col(c_in, y) * y_last
        out -= _col(c_out, y) * y
        return out

    def diffusion_diag(y):
        d = _col(kappa, y) * y
        d *= 1.0 - np.sum(y, axis=0)
        return d

    return ProcessDefinition(
        dimension=k + 1, drift=drift, name="dirichlet",
        invariant_dirichlet=(np.concatenate([b * S / kappa, [ratio[0]]])
                             if constant else None),
        diffusion_diag=diffusion_diag)


def _gen_dirichlet_terms(y):
    """Nesting remainders cy, the last one, and the prefactors u.

    A zero remainder leaves an infinite prefactor, which _nested guards.
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


def _nested(num, u, what):
    """num times the prefactors u, in place; 0 wherever num is 0, whatever
    its sign and the prefactor, and SingularNesting wherever a zero
    remainder (an infinite prefactor) meets a non-zero numerator."""
    zero = num == 0.0
    with np.errstate(invalid="ignore"):  # 0 * inf, zeroed on the next line
        num *= u
    num[zero] = 0.0
    if not np.all(np.isfinite(num)):
        raise SingularNesting(f"{what} is undefined: zero nested remainder "
                              "against a non-zero numerator")
    return num


def gen_dirichlet_process(b, S, kappa, c=None) -> ProcessDefinition:
    """Nested generalization of the Dirichlet process with triangular coupling.

    c couples component a to later axes: a (K-1) x (K-1) matrix, zero below
    the diagonal, where K is the number of reduced components; None for no
    coupling; or "reduction" for reduction_coupling(kappa), which needs
    (1-S) b / kappa constant.
    """
    b, S, kappa = _rate_vectors(b, S, kappa)
    k = b.shape[0]
    if c is None:
        c = np.zeros((k - 1, k - 1))
    elif isinstance(c, str) and c == "reduction":
        invariant_ratio(b, S, kappa, required=True)
        c = reduction_coupling(kappa)
    c = np.asarray(c, dtype=float)
    if c.shape != (k - 1, k - 1):
        raise InvalidParameter("c", f"expected shape {(k - 1, k - 1)}, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidParameter("c", "all entries must be finite")
    if k > 1 and np.any(np.tril(c, -1) != 0.0):
        raise InvalidParameter("c", "entries below the diagonal must be zero")
    S_out = 1.0 - S
    c_t = np.ascontiguousarray(c.T)    # c_t[beta, a] = c[a, beta]

    def drift(y):
        cy, cy_last, u = _gen_dirichlet_terms(y)
        bracket = _col(S, y) * cy_last
        bracket -= _col(S_out, y) * y
        bracket *= _col(b, y)
        if k > 1:
            # rows a < K-1 gain c[a, beta] Y_a Y_N / cy[beta], summed in beta
            # order from the beta = 0 term.  A zero remainder cy[f] makes a
            # term 0/0, and u[f] infinite against bracket[f] =
            # -b_f (1 - S_f) Y_f != 0 at the first f: both raise below
            yy = y[:-1] * cy_last
            with np.errstate(divide="ignore", invalid="ignore"):
                coupled = _col(c_t[0], yy) * yy
                coupled /= cy[0]
                term = np.empty(yy.shape)  # one scratch for every later term
                for beta in range(1, k - 1):
                    np.multiply(_col(c_t[beta], yy), yy, out=term)
                    coupled += np.divide(term, cy[beta], out=term)
            bracket[:-1] += coupled
        return _nested(bracket, np.multiply(0.5, u, out=u), "drift")

    def diffusion_diag(y):
        cy, cy_last, u = _gen_dirichlet_terms(y)
        d = _col(kappa, y) * y
        d *= cy_last
        return _nested(d, u, "diffusion")

    return ProcessDefinition(
        dimension=b.shape[0] + 1, drift=drift, name="gen_dirichlet",
        diffusion_diag=diffusion_diag)


#: each negative control's constant drift and diagonal diffusion
BROKEN = {"constant_diffusion": (0.0, 0.1), "outward_drift": (-1.0, 0.0)}


def broken_process(style: str, n: int = 3) -> ProcessDefinition:
    """Deliberately non-realizable controls for the boundary auditor.

    "constant_diffusion" keeps diffusion at 0.1 * I everywhere (non-zero on
    every face); "outward_drift" pushes every component with rate -1
    (outward across every zero face).
    """
    if not isinstance(style, str) or style not in BROKEN:
        raise InvalidParameter("style", f"unknown style {style!r}")
    drift, diffusion = BROKEN[style]
    return ProcessDefinition(
        dimension=n, drift=lambda y: np.full(y.shape, drift),
        name=f"broken_{style}",
        diffusion_diag=lambda y: np.full(y.shape, diffusion))
