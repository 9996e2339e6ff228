"""The four realizable simplex diffusion processes plus negative controls.

Each constructor validates its parameters and returns a ProcessDefinition
whose closures take the component-major reduced state alone, (N-1, ...):
drift and diffusion_diag return (N-1, ...), Wright-Fisher's diffusion
(N-1, N-1, ...) and its diffusion_factor two (N-1, ...) arrays (r, w); the
other processes' diffusion is None.  Drift and diffusion entries carry
units of 1/time.  The beta, Wright-Fisher and constant-ratio Dirichlet
processes state their Dirichlet invariant law as invariant_dirichlet.
"""

from __future__ import annotations

import numpy as np

from .core import ProcessDefinition, check_positive
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


def _rate_vectors(b, S, kappa):
    """b, S and kappa as float vectors of one length, S in (0, 1)."""
    b = check_positive("b", b, shape=(None,))
    return (b, check_positive("S", S, 1.0, shape=b.shape),
            check_positive("kappa", kappa, shape=b.shape))


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
    b, kappa = check_positive("b", b), check_positive("kappa", kappa)
    S = check_positive("S", S, low=-np.inf)
    if not 0.0 <= S <= 1.0:
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
    """The square root L = diag(r) - w r^T of diag(Y) - Y Y^T, as (r, w).

    r = sqrt(Y) and w = c Y, c = 1 / (1 + sqrt(Y_N)), Y_N = max(1 - sum(Y),
    0): c solves 2c - c^2 (1 - Y_N) = 1, so L L^T is exact.  Row a vanishes
    where Y_a = 0, and 1^T L = (1 - sum(w)) r^T where sum(Y) = 1.  Python's
    sum adds rows in order, as np.sum(y, axis=0) does over a batch but not
    over a lone (K,) state.
    """
    root = np.sqrt(np.maximum(1.0 - sum(y), 0.0)) + 1.0
    return np.sqrt(y), y / root


def wright_fisher_process(omega) -> ProcessDefinition:
    """Multivariate neutral-mutation diffusion with full coupling matrix."""
    omega = check_positive("omega", omega, shape=(None,))
    if omega.shape[0] < 2:
        raise InvalidParameter("omega", "need at least 2 components")
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
    if not isinstance(dirichlet_invariant, (bool, np.bool_)):
        raise InvalidParameter("dirichlet_invariant",
                               f"must be a bool, got {dirichlet_invariant!r}")
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
    c = check_positive("c", c, low=-np.inf, shape=(k - 1, k - 1))  # any sign
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
