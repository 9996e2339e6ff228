"""State representation, geometry of the unit simplex, and process definitions.

An N-component state is a vector of non-negative fractions summing to one.
Only the first N-1 components are independent; the last one is the remainder.
All types here are immutable values after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import NegativeComponent, SumViolation

#: construction tolerance on |sum - 1|
TOL_SUM = 1e-12


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SimplexState:
    """A full N-component realizable point: fractions >= 0, sum == 1."""

    fractions: np.ndarray

    @property
    def n(self) -> int:
        return self.fractions.shape[0]

    def reduced(self) -> "ReducedState":
        """Drop the determined last component."""
        return ReducedState(_readonly(self.fractions[:-1]))


@dataclass(frozen=True)
class ReducedState:
    """The N-1 independent coordinates; each >= 0, sum <= 1."""

    fractions: np.ndarray

    @property
    def k(self) -> int:
        return self.fractions.shape[0]


@dataclass(frozen=True)
class BoundaryFace:
    """One face of the reduced-space polytope boundary.

    kind is "zero" (Y_alpha = 0, alpha in 1..N-1, stored 0-based) or
    "unitsum" (sum of the reduced coordinates equals one).
    """

    kind: str
    alpha: Optional[int] = None

    def label(self) -> str:
        if self.kind == "zero":
            return f"zero-face-{self.alpha + 1}"
        return "unit-sum-face"


def enumerate_faces(n: int) -> list[BoundaryFace]:
    """The N-1 zero faces plus the unit-sum face of the reduced system."""
    faces = [BoundaryFace("zero", a) for a in range(n - 1)]
    faces.append(BoundaryFace("unitsum"))
    return faces


@dataclass(frozen=True)
class ProcessDefinition:
    """A drift/diffusion pair over the reduced (N-1)-dimensional state.

    The closures take component-major states: Y has shape (K, ...), K = N-1,
    with one row per reduced component and the particles along the trailing
    axes; a single (K,) state is one particle.  drift(Y, t) returns drift
    rates of Y's shape; diffusion(Y, t) returns symmetric non-negative
    semi-definite matrices of shape (K, K, ...).  Every closure must be
    pure and act particle by particle: a particle's output depends only on
    its own state, since the integrator evaluates each closure once per step
    on the whole batch and reuses the particles of rejected proposals.

    diffusion_factor and diffusion_diag supply the integrator's noise
    factor.  diffusion_factor(Y, t) -> (d, u, v), three (K, ...) arrays, is
    the lower-triangular L with L[i, i] = d[i], L[i, j] = u[i] * v[j] for
    j < i and L @ L.T == diffusion.  diffusion_diag(Y, t) -> (K, ...) is the
    diagonal of a diagonal diffusion matrix; its square root is the factor.
    A process that supplies neither is factored through an
    eigendecomposition of its diffusion matrix.  Supplying diffusion_diag
    also declares the diffusion diagonal to the boundary audit, and
    diffusion may then be omitted: it is built from the diagonal, again
    whenever dataclasses.replace gives a new one.
    """

    dimension: int
    drift: Callable[[np.ndarray, float], np.ndarray]
    name: str
    diffusion: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    parameters: dict = field(default_factory=dict)
    diffusion_diag: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    diffusion_factor: Optional[Callable[[np.ndarray, float], tuple]] = None

    def __post_init__(self):
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


def _diag_matrices(diag, y, t):
    """The (K, K, ...) diagonal matrices of the (K, ...) diagonals diag(y, t)."""
    d = diag(y, t)
    k = d.shape[0]
    out = np.zeros((k,) + d.shape)
    idx = np.arange(k)
    out[idx, idx] = d
    return out


def component_major(states: np.ndarray) -> np.ndarray:
    """Particle-major (M, K) states as the contiguous (K, M) array closures take."""
    return np.ascontiguousarray(states.T)


def make_state(fractions) -> SimplexState:
    """Validate and build a SimplexState, renormalizing tiny sum drift.

    Components within -TOL_SUM of zero are clamped to exactly zero; the
    vector is then divided by its sum (which must lie within TOL_SUM of
    one).  Division preserves exact zeros, so absorbing states stay
    absorbing.
    """
    y = np.asarray(fractions, dtype=float)
    if y.ndim != 1 or y.shape[0] < 2:
        raise SumViolation(f"need at least 2 components, got shape {y.shape}")
    if np.any(y < -TOL_SUM):
        bad = int(np.argmin(y))
        raise NegativeComponent(f"component {bad + 1} is {y[bad]:.3e}")
    y = np.where(y < 0.0, 0.0, y)
    s = y.sum()
    if abs(s - 1.0) > TOL_SUM:
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
    return SimplexState(_readonly(y))


def complete_reduced(reduced: ReducedState) -> SimplexState:
    """Append the determined remainder 1 - sum(Y) as the last component."""
    y = reduced.fractions
    if np.any(y < -TOL_SUM):
        bad = int(np.argmin(y))
        raise NegativeComponent(f"component {bad + 1} is {y[bad]:.3e}")
    s = y.sum()
    if s > 1.0 + TOL_SUM:
        raise SumViolation(f"reduced components sum to {s!r} > 1")
    last = max(1.0 - s, 0.0)
    return SimplexState(_readonly(np.concatenate([np.maximum(y, 0.0), [last]])))


def boundary_distance(state: ReducedState) -> float:
    """Euclidean distance from a reduced state to the nearest boundary face.

    The zero face Y_alpha = 0 is at distance Y_alpha; the unit-sum
    hyperplane sum(Y) = 1 is at distance (1 - sum(Y)) / sqrt(N-1).
    """
    y = state.fractions
    d_zero = float(np.min(y))
    d_sum = float((1.0 - y.sum()) / np.sqrt(y.shape[0]))
    return max(min(d_zero, d_sum), 0.0)


def face_points(face: BoundaryFace, k: int, n_samples: int,
                rng: np.random.Generator) -> np.ndarray:
    """n_samples uniform points on one boundary face of the reduced k-dim polytope.

    Points on a zero face have that coordinate exactly zero with the rest
    uniform on their sub-simplex; unit-sum face points sum exactly to one.
    """
    if face.kind == "zero":
        pts = np.zeros((n_samples, k))
        if k > 1:
            # uniform on {x >= 0, sum x <= 1} in k-1 free coordinates
            sub = rng.dirichlet(np.ones(k), size=n_samples)[:, :-1]
            pts[:, [i for i in range(k) if i != face.alpha]] = sub
        return pts
    if face.kind == "unitsum":
        pts = rng.dirichlet(np.ones(k), size=n_samples) if k > 1 else np.ones((n_samples, 1))
        return pts / pts.sum(axis=1, keepdims=True)  # tighten the face equation
    raise ValueError(f"unknown face kind {face.kind!r}")


def sample_face(face: BoundaryFace, rng: np.random.Generator, k: int) -> ReducedState:
    """One uniform sample on a boundary face: the single-row face_points."""
    return ReducedState(_readonly(face_points(face, k, 1, rng)[0]))


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
    def from_delta(cls, state: SimplexState, m: int) -> "Ensemble":
        return cls(np.tile(state.fractions, (m, 1)))

    @classmethod
    def from_uniform(cls, n: int, m: int, rng: np.random.Generator) -> "Ensemble":
        return cls(rng.dirichlet(np.ones(n), size=m))

    @classmethod
    def from_states(cls, states) -> "Ensemble":
        return cls(np.stack([s.fractions for s in states]))
