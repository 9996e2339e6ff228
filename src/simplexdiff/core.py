"""State representation, geometry of the unit simplex, process definitions,
and the one rule each for counts and for numbers given as input.

An N-component state is a vector of non-negative fractions summing to one.
Only the first N-1 components are independent; the last one is the remainder.
All types here are immutable values after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameter, NegativeComponent, SumViolation

#: the roundoff allowance of every identity that holds exactly on the
#: simplex: unit sums (of a state, a step, the means), the moment bounds,
#: the covariance identities and the stationary checks' threshold floor
TOL_SUM = 1e-12
#: largest dimension N a process may have: the boundary audit's largest
#: block is (K, K, samples), 32 MB at N = 64 and 1000 samples per face, and
#: it grows as N^2, so a larger N is far more likely a typo than a model
MAX_DIMENSION = 64


def holds_bool(x) -> bool:
    """Whether x is a bool or holds one: a bool is not a number anywhere."""
    return any(isinstance(e, (bool, np.bool_))
               for e in np.ravel(np.asarray(x, dtype=object)))


def check_count(name, value, least=1, high=np.inf):
    """value, refused unless it is an integer in [least, high); a bool is not a count."""
    if (type(value) is bool or not isinstance(value, (int, np.integer))
            or not least <= value < high):
        bound = f">= {least}" if high == np.inf else f"in [{least}, {high})"
        raise InvalidParameter(name, f"must be an integer {bound}, got {value!r}")
    return value


def check_positive(name, value, high=np.inf, low=0.0, shape=()):
    """value as a float array, refused unless every entry is a finite number
    in (low, high) and it has the given shape (one number by default; a None
    length is free): a bool, a string or a ragged list is not a number."""
    try:
        v = np.asarray(value)
    except ValueError:  # a ragged list, refused below as objects
        v = np.asarray(value, dtype=object)
    if (v.dtype.kind not in "iuf" or holds_bool(value)
            or not np.all((low < v) & (v < high))):
        raise InvalidParameter(
            name, f"must be a finite number in ({low:g}, {high:g}), got {value!r}")
    if v.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, v.shape)):
        raise InvalidParameter(name, f"expected shape {shape}, got {v.shape}")
    return v.astype(float)


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
    particle's output depends only on its own state, bit for bit, alone or
    in any batch, since the integrator evaluates each closure once per step
    on the whole batch and reuses the particles of rejected proposals.  Sum
    over components with component_sum: numpy pairs a lone column's terms.

    diffusion_factor and diffusion_diag supply the integrator's noise
    factor.  diffusion_factor(Y) -> (r, w), two (K, ...) arrays, is the
    square root L = diag(r) - w r^T with L @ L.T == diffusion, applied to
    normals xi as r * xi - w * (r . xi).  diffusion_diag(Y) -> (K, ...) is
    the diagonal of a diagonal diffusion matrix; its square root is the
    factor, and the boundary audit judges it in place of diffusion.  A
    process that supplies neither is factored through an eigendecomposition
    of its diffusion matrix.  A process needs diffusion or diffusion_diag:
    a diagonal process states only the diagonal, and its diffusion is None.

    invariant_dirichlet, the (N,) concentrations of the process's Dirichlet
    invariant law or None, is the stationary oracle's only input.  dimension
    is N, an integer from 2 to MAX_DIMENSION (check_count's rule: a bool is
    not a count).
    """

    dimension: int
    drift: Callable[[np.ndarray], np.ndarray]
    name: str
    diffusion: Optional[Callable[[np.ndarray], np.ndarray]] = None
    invariant_dirichlet: Optional[np.ndarray] = None
    diffusion_diag: Optional[Callable[[np.ndarray], np.ndarray]] = None
    diffusion_factor: Optional[Callable[[np.ndarray], tuple]] = None

    def __post_init__(self):
        if check_count("dimension", self.dimension, least=2) > MAX_DIMENSION:
            raise InvalidParameter("dimension", f"must be <= {MAX_DIMENSION}, "
                                   f"got {self.dimension}")
        if self.diffusion is None and self.diffusion_diag is None:
            raise InvalidParameter("diffusion", f"process {self.name!r} needs "
                                   "diffusion or diffusion_diag")

    @property
    def k(self) -> int:
        return self.dimension - 1


def component_major(states: np.ndarray) -> np.ndarray:
    """Particle-major (M, K) states as the contiguous (K, M) array closures take."""
    return np.ascontiguousarray(states.T)


def component_sum(y: np.ndarray) -> np.ndarray:
    """The (...) sums over the leading axis of a component-major (K, ...)
    array, new, adding rows in order from the first: a particle's sum has
    the same bits alone, as (K,) or (K, 1), as in any batch."""
    total = y[0].copy()
    for row in y[1:]:
        total += row
    return total


def make_state(fractions) -> np.ndarray:
    """A validated read-only (N,) realizable point, renormalizing tiny sum drift.

    Components within -TOL_SUM of zero are clamped to exactly zero; the
    vector is then divided by its sum (which must lie within TOL_SUM of
    one).  Division preserves exact zeros, so absorbing states stay
    absorbing.
    """
    if holds_bool(fractions) or np.asarray(fractions).dtype.kind not in "iuf":
        raise TypeError(f"a fraction is a number, not a bool or a string, "
                        f"got {fractions!r}")
    y = np.asarray(fractions, dtype=float)
    if y.ndim != 1 or y.shape[0] < 2:
        raise SumViolation(f"need at least 2 components, got shape {y.shape}")
    if np.any(y < -TOL_SUM):
        bad = int(np.argmin(y))
        raise NegativeComponent(f"component {bad + 1} is {y[bad]:.3e}")
    y = np.where(y < 0.0, 0.0, y)
    s = y.sum()
    if not abs(s - 1.0) <= TOL_SUM:  # a non-finite component fails too
        raise SumViolation(f"components sum to {float(s)!r}")
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
    """M realizable states stored as an (M, N) array of full fractions: each
    particle meets make_state's rule (finite, no component below -TOL_SUM, a
    sum within TOL_SUM of one), or is refused; nothing is clamped here."""

    def __init__(self, states: np.ndarray):
        states = np.ascontiguousarray(states, dtype=float)
        if states.ndim != 2 or states.shape[1] < 2:
            raise InvalidParameter("states", "expected an (M, N>=2) array, "
                                   f"got {states.shape}")
        bad = np.argwhere(~np.isfinite(states) | (states < -TOL_SUM))
        if bad.size:
            p, c = bad[0]
            error = NegativeComponent if states[p, c] < 0.0 else SumViolation
            raise error(f"particle {p}: component {c + 1} is {float(states[p, c])!r}")
        total = component_sum(states.T)
        off = np.flatnonzero(np.abs(total - 1.0) > TOL_SUM)
        if off.size:
            raise SumViolation(f"particle {off[0]}: components sum to "
                               f"{float(total[off[0]])!r}")
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
