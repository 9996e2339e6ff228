"""State representation, geometry of the unit simplex, process definitions,
and the one rule each for counts and positive numbers given as input.

An N-component state is a vector of non-negative fractions summing to one.
Only the first N-1 components are independent; the last one is the remainder.
All types here are immutable values after construction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import NegativeComponent, SumViolation

#: construction tolerance on |sum - 1|
TOL_SUM = 1e-12


def holds_bool(x) -> bool:
    """Whether x is a bool or holds one: a bool is not a number anywhere."""
    return any(isinstance(e, (bool, np.bool_))
               for e in np.ravel(np.asarray(x, dtype=object)))


def check_count(name, value, least=1):
    """Refuse a count that is not an integer >= least; a bool is not a count."""
    if type(value) is bool or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_positive(name, value):
    """Refuse a value that is not a finite number > 0; a bool is not a number."""
    if (type(value) is bool or not isinstance(value, numbers.Real)
            or not 0 < value < np.inf):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def face_label(face: int, k: int) -> str:
    """The label of boundary face 0..k of the reduced k-dim polytope: faces
    0..k-1 are the zero faces Y_{face+1} = 0, face k is the unit-sum face."""
    return f"zero-face-{face + 1}" if face < k else "unit-sum-face"


@dataclass(frozen=True)
class ProcessDefinition:
    """A drift/diffusion pair over the reduced (N-1)-dimensional state.

    The closures take component-major states: Y has shape (K, ...), K = N-1,
    with one row per reduced component and the particles along the trailing
    axes; a single (K,) state is one particle.  drift(Y) returns drift rates
    of Y's shape; diffusion(Y) returns symmetric non-negative semi-definite
    matrices of shape (K, K, ...).  Every closure takes the state alone (the
    process is autonomous), is pure and acts particle by particle: a
    particle's output depends only on its own state, since the integrator
    evaluates each closure once per step on the whole batch and reuses the
    particles of rejected proposals.

    diffusion_factor and diffusion_diag supply the integrator's noise
    factor.  diffusion_factor(Y) -> (d, u, v), three (K, ...) arrays, is
    the lower-triangular L with L[i, i] = d[i], L[i, j] = u[i] * v[j] for
    j < i and L @ L.T == diffusion.  diffusion_diag(Y) -> (K, ...) is the
    diagonal of a diagonal diffusion matrix; its square root is the factor.
    A process that supplies neither is factored through an
    eigendecomposition of its diffusion matrix.  Supplying diffusion_diag
    also declares the diffusion diagonal to the boundary audit, and
    diffusion may then be omitted: it is built from the diagonal, again
    whenever dataclasses.replace gives a new one.

    invariant_dirichlet, the (N,) concentrations of the process's Dirichlet
    invariant law or None, is the stationary oracle's only input.  dimension
    is N, an integer >= 2 (check_count's rule: a bool is not a count).
    """

    dimension: int
    drift: Callable[[np.ndarray], np.ndarray]
    name: str
    diffusion: Optional[Callable[[np.ndarray], np.ndarray]] = None
    invariant_dirichlet: Optional[np.ndarray] = None
    diffusion_diag: Optional[Callable[[np.ndarray], np.ndarray]] = None
    diffusion_factor: Optional[Callable[[np.ndarray], tuple]] = None

    def __post_init__(self):
        check_count("dimension", self.dimension, least=2)
        diag = self.diffusion_diag
        derived = getattr(self.diffusion, "func", None) is _diag_matrices
        if diag is not None and (self.diffusion is None or derived):
            object.__setattr__(self, "diffusion", partial(_diag_matrices, diag))
        elif self.diffusion is None:
            raise ValueError(f"process {self.name!r} needs diffusion "
                             "or diffusion_diag")

    @property
    def k(self) -> int:
        return self.dimension - 1


def _diag_matrices(diag, y):
    """The (K, K, ...) diagonal matrices of the (K, ...) diagonals diag(y)."""
    d = diag(y)
    k = d.shape[0]
    out = np.zeros((k,) + d.shape)
    idx = np.arange(k)
    out[idx, idx] = d
    return out


def component_major(states: np.ndarray) -> np.ndarray:
    """Particle-major (M, K) states as the contiguous (K, M) array closures take."""
    return np.ascontiguousarray(states.T)


def make_state(fractions) -> np.ndarray:
    """A validated read-only (N,) realizable point, renormalizing tiny sum drift.

    Components within -TOL_SUM of zero are clamped to exactly zero; the
    vector is then divided by its sum (which must lie within TOL_SUM of
    one).  Division preserves exact zeros, so absorbing states stay
    absorbing.
    """
    if holds_bool(fractions):
        raise TypeError(f"a bool is not a fraction, got {fractions!r}")
    y = np.asarray(fractions, dtype=float)
    if y.ndim != 1 or y.shape[0] < 2:
        raise SumViolation(f"need at least 2 components, got shape {y.shape}")
    if np.any(y < -TOL_SUM):
        bad = int(np.argmin(y))
        raise NegativeComponent(f"component {bad + 1} is {y[bad]:.3e}")
    y = np.where(y < 0.0, 0.0, y)
    s = y.sum()
    if not abs(s - 1.0) <= TOL_SUM:  # a non-finite component fails too
        raise SumViolation(f"components sum to {s!r}")
    if s != 1.0:
        y = y / s
        # division can leave the sum one ulp off; absorb the residual into
        # the largest component so zeros stay exact and the sum is exact
        for _ in range(3):
            r = y.sum()
            if r == 1.0:
                break
            y[int(np.argmax(y))] += 1.0 - r
    y.setflags(write=False)
    return y


def face_points(face: int, k: int, n_samples: int,
                rng: np.random.Generator) -> np.ndarray:
    """n_samples uniform points on boundary face 0..k of the reduced k-dim polytope.

    Points on a zero face (face < k) have that coordinate exactly zero with
    the rest uniform on their sub-simplex; unit-sum face (face == k) points
    sum exactly to one.
    """
    if face < k:
        pts = np.zeros((n_samples, k))
        if k > 1:
            # uniform on {x >= 0, sum x <= 1} in k-1 free coordinates
            sub = rng.dirichlet(np.ones(k), size=n_samples)[:, :-1]
            pts[:, [i for i in range(k) if i != face]] = sub
        return pts
    pts = rng.dirichlet(np.ones(k), size=n_samples) if k > 1 else np.ones((n_samples, 1))
    return pts / pts.sum(axis=1, keepdims=True)  # tighten the face equation


class Ensemble:
    """M realizable states stored as an (M, N) array of full fractions."""

    def __init__(self, states: np.ndarray):
        states = np.ascontiguousarray(states, dtype=float)
        if states.ndim != 2 or states.shape[1] < 2:
            raise ValueError(f"expected (M, N>=2) array, got {states.shape}")
        self.states = states

    @property
    def size(self) -> int:
        return self.states.shape[0]

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def reduced(self) -> np.ndarray:
        return self.states[:, :-1]

    @classmethod
    def from_delta(cls, state: np.ndarray, m: int) -> "Ensemble":
        return cls(np.tile(state, (m, 1)))

    @classmethod
    def from_uniform(cls, n: int, m: int, rng: np.random.Generator) -> "Ensemble":
        return cls(rng.dirichlet(np.ones(n), size=m))

    @classmethod
    def from_states(cls, states) -> "Ensemble":
        return cls(np.stack(states))
