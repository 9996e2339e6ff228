"""Explicit Euler-Maruyama integration of simplex ensembles.

The integrator advances all particles of an ensemble with independent
noise drawn from a counter-based (Philox) stream, maps it through the noise
factor the process supplies (a (d, u, v) triangular factor, the square root
of a diagonal, or an eigendecomposition of the diffusion matrix), and
enforces the simplex constraints on every accepted step, so that every
recorded state is realizable by construction; a non-finite proposal stops
the run.  Drift and noise factor are evaluated once per step: a rejected
proposal redraws only its normals.  The ensemble is held component-major,
as a (K, M) array with one row per reduced component, so that sums over
components run along the leading axis; the normals are still drawn
particle by particle, as (M, K), and transposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (Ensemble, ProcessDefinition, ReducedState, _readonly,
                   component_major)
from .errors import DegenerateState, NotPositiveSemiDefinite
from . import statistics as stats_mod

#: reduced sums above 1 + this margin count as realizability violations
VIOLATION_TOL = 1e-12
#: squared-noise arguments below this are treated as roundoff, not errors
NEGATIVE_CLAMP = -1e-14


class RandomSource:
    """Deterministic noise stream keyed by (seed, stream_id).

    Backed by the Philox counter-based generator, so identical keys yield
    identical increment sequences on any platform or thread layout.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF,
                        int(stream_id) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def normals(self, shape) -> np.ndarray:
        return self.generator.standard_normal(shape)


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    boundary_policy: str = "reject_resample"
    max_resample: int = 100

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.boundary_policy not in ("reject_resample", "clip_renormalize"):
            raise ValueError(f"unknown boundary policy {self.boundary_policy!r}")
        if self.max_resample < 1:
            raise ValueError("max_resample must be >= 1")


@dataclass
class Snapshot:
    """Ensemble statistics recorded at one instant."""

    t: float
    moments: "stats_mod.MomentSet"
    batch_moments: dict
    batch_rates: dict


@dataclass
class Trajectory:
    times: np.ndarray
    snapshots: list
    config: IntegratorConfig
    process_name: str
    particle_steps: int = 0
    violation_count: int = 0
    modified_steps: int = 0
    clipped_steps: int = 0
    dumps: dict = field(default_factory=dict)


def _noise_factor(proc: ProcessDefinition, ys: np.ndarray, t: float):
    """Per-particle noise factor: (K, M) diagonal roots, (d, u, v) or (K, K, M)."""
    if proc.diffusion_factor is not None:
        return proc.diffusion_factor(ys, t)
    if proc.diffusion_diag is not None:
        d = proc.diffusion_diag(ys, t)
        if np.min(d) < NEGATIVE_CLAMP:
            raise NotPositiveSemiDefinite(
                f"diagonal diffusion entry {np.min(d):.3e} < 0")
        return np.sqrt(np.maximum(d, 0.0))
    B = proc.diffusion(ys, t)
    w, V = np.linalg.eigh(np.moveaxis(B, -1, 0))
    scale = max(float(np.max(np.abs(B))), 1.0)
    if np.min(w) < -1e-10 * scale:
        raise NotPositiveSemiDefinite(
            f"diffusion eigenvalue {np.min(w):.3e} at a simulated state")
    return np.moveaxis(V * np.sqrt(np.maximum(w, 0.0))[..., np.newaxis, :], 0, -1)


def _columns(L, idx):
    """The noise factor of the particles idx."""
    return tuple(a[:, idx] for a in L) if isinstance(L, tuple) else L[..., idx]


def _noise(L, xi):
    """Map (K, M) unit normals through per-particle noise factors."""
    if not isinstance(L, tuple) and L.ndim == xi.ndim:
        return L * xi
    # even and odd columns summed apart, each from zero and left to right:
    # the order of einsum("...ij,...j->...i"), bit for bit.  A structured
    # factor skips the zeros above its diagonal, which change no sum.
    half = np.zeros((2,) + xi.shape)
    col = np.empty(xi.shape)
    for j in range(xi.shape[0]):
        if isinstance(L, tuple):
            d, u, v = L
            half[j % 2, j] += d[j] * xi[j]
            c = np.multiply(u[j + 1:], v[j], out=col[j + 1:])
            half[j % 2, j + 1:] += np.multiply(c, xi[j], out=c)
        else:
            half[j % 2] += L[:, j] * xi[j]
    return half[0] + half[1]


def _normals(rng, m, k):
    """(K, m) unit normals, drawn particle by particle as (m, K)."""
    return np.ascontiguousarray(rng.normals((m, k)).T)


def _invalid_mask(ys, tol=0.0):
    """Columns outside the reduced simplex; a non-finite column counts as outside."""
    return ~(np.all(ys >= 0.0, axis=0) & (np.sum(ys, axis=0) <= 1.0 + tol))


def _clip_renormalize(ys):
    """Clamp negatives to zero; scale columns whose reduced sum exceeds one."""
    ys = np.maximum(ys, 0.0)
    s = np.sum(ys, axis=0)
    over = s > 1.0
    if np.any(over):
        ys[:, over] /= s[over]
    return ys


def _advance(proc, ys, t, cfg, rng):
    """One Euler-Maruyama step for a (K, M) batch; returns (states, modified, clipped)."""
    k, m = ys.shape
    xi = _normals(rng, m, k)
    try:
        a = proc.drift(ys, t)
        L = _noise_factor(proc, ys, t)
    except NotPositiveSemiDefinite:
        raise
    except Exception as exc:  # drift/diffusion raised at a simulated state
        raise DegenerateState(f"evaluation failed at t={t}: {exc}") from exc
    base = ys + a * cfg.dt
    prop = base + _noise(L, xi) * np.sqrt(cfg.dt)
    bad = _invalid_mask(prop)
    modified = bad.copy()
    if not np.any(bad):
        return prop, modified, bad
    # invalid columns include non-finite ones; redraws of finite ones stay finite
    cols = np.flatnonzero(bad)
    finite = np.all(np.isfinite(prop[:, cols]), axis=0)
    if not np.all(finite):
        raise DegenerateState(
            f"non-finite proposal for particle {cols[np.argmin(finite)]}")
    if cfg.boundary_policy == "reject_resample":
        for _ in range(cfg.max_resample):
            idx = np.flatnonzero(bad)
            if idx.size == 0:
                break
            xi_new = _normals(rng, idx.size, k)
            prop[:, idx] = base[:, idx] + _noise(_columns(L, idx), xi_new) * np.sqrt(cfg.dt)
            bad[idx] = _invalid_mask(prop[:, idx])
    clipped = bad
    if np.any(bad):
        prop[:, bad] = _clip_renormalize(prop[:, bad])
    return prop, modified, clipped


@dataclass
class StepResult:
    state: ReducedState
    modified: bool
    clipped: bool


def step(state: ReducedState, proc: ProcessDefinition, t: float,
         cfg: IntegratorConfig, rng: RandomSource) -> StepResult:
    """Advance a single reduced state by one time step."""
    ys = state.fractions[:, np.newaxis].copy()
    out, modified, clipped = _advance(proc, ys, t, cfg, rng)
    return StepResult(ReducedState(_readonly(out[:, 0])),
                      bool(modified[0]), bool(clipped[0]))


def _full_states(ys):
    """(K, M) reduced batch -> (M, N) full states, a transposed (N, M) array."""
    full = np.empty((ys.shape[0] + 1, ys.shape[1]))
    full[:-1] = ys
    full[-1] = np.maximum(1.0 - np.sum(ys, axis=0), 0.0)
    return full.T


def simulate(proc: ProcessDefinition, init: Ensemble, cfg: IntegratorConfig,
             t_end: float, record_every: int, rng: RandomSource,
             n_batches: int = 20, dump_every: Optional[int] = None) -> Trajectory:
    """Advance an ensemble to t_end, recording moment snapshots.

    Snapshots are taken at t=0, every record_every steps, and at the final
    step; each carries full-ensemble moments plus per-batch moments and
    moment evolution rates for standard-error estimation.  Realizability of
    every post-step state is verified and violations counted (the boundary
    policy should make the count zero); a non-finite proposal raises
    DegenerateState naming the step and the particle.
    """
    if init.size < 2:
        raise ValueError(f"need an ensemble of >= 2 particles, got {init.size}")
    if not t_end > 0:
        raise ValueError(f"t_end must be > 0, got {t_end}")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if init.n != proc.dimension:
        raise ValueError(f"ensemble has {init.n} components, "
                         f"process expects {proc.dimension}")
    n_steps = max(int(round(t_end / cfg.dt)), 1)
    ys = component_major(init.reduced)
    traj = Trajectory(times=None, snapshots=[], config=cfg,
                      process_name=proc.name)
    times = []

    def observe(k, ys):
        """The snapshot and dump due after step k, from one full-state array."""
        snap = k % record_every == 0 or k == n_steps
        dump = dump_every and (k % dump_every == 0 or k == n_steps)
        if not (snap or dump):
            return
        t = k * cfg.dt
        full = _full_states(ys)
        if snap:
            moments = stats_mod.estimate_moments(full)
            bm, br = stats_mod.batch_statistics(full, proc, t, n_batches)
            traj.snapshots.append(Snapshot(t=t, moments=moments,
                                           batch_moments=bm, batch_rates=br))
            times.append(t)
        if dump:
            traj.dumps[t] = full

    observe(0, ys)
    for k in range(1, n_steps + 1):
        t = (k - 1) * cfg.dt
        try:
            ys, modified, clipped = _advance(proc, ys, t, cfg, rng)
        except (DegenerateState, NotPositiveSemiDefinite) as exc:
            raise DegenerateState(f"step {k} at t={t}: {exc}") from exc
        traj.particle_steps += ys.shape[1]
        traj.modified_steps += int(np.count_nonzero(modified))
        traj.clipped_steps += int(np.count_nonzero(clipped))
        traj.violation_count += int(np.count_nonzero(_invalid_mask(ys, VIOLATION_TOL)))
        observe(k, ys)
    traj.times = np.array(times)
    return traj
