"""Explicit Euler-Maruyama integration of simplex ensembles.

The integrator advances all particles of an ensemble with independent
noise drawn from a counter-based (Philox) stream, maps it through the noise
factor the process supplies (an explicit factor, the square root of a
diagonal, or an eigendecomposition of the diffusion matrix), and enforces
the simplex constraints on every accepted step, so that every recorded state
is realizable by construction; a non-finite proposal stops the run.  Drift
and noise factor are evaluated once per step: a rejected proposal redraws
only its normals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Ensemble, ProcessDefinition, ReducedState, _readonly
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
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF,
                        self.stream_id & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def normals(self, shape) -> np.ndarray:
        return self.generator.standard_normal(shape)

    def spawn(self, stream_id: int) -> "RandomSource":
        return RandomSource(self.seed, stream_id)


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


def _noise_factor(proc: ProcessDefinition, ys: np.ndarray, t: float) -> np.ndarray:
    """Per-row noise factor: (M, K) diagonal roots or (M, K, K) matrices."""
    if proc.diffusion_factor is not None:
        return proc.diffusion_factor(ys, t)
    if proc.diffusion_diag is not None:
        d = proc.diffusion_diag(ys, t)
        if np.min(d) < NEGATIVE_CLAMP:
            raise NotPositiveSemiDefinite(
                f"diagonal diffusion entry {np.min(d):.3e} < 0")
        return np.sqrt(np.maximum(d, 0.0))
    B = proc.diffusion(ys, t)
    w, V = np.linalg.eigh(B)
    scale = max(float(np.max(np.abs(B))), 1.0)
    if np.min(w) < -1e-10 * scale:
        raise NotPositiveSemiDefinite(
            f"diffusion eigenvalue {np.min(w):.3e} at a simulated state")
    return V * np.sqrt(np.maximum(w, 0.0))[..., np.newaxis, :]


def _noise(L, xi):
    """Map unit normals through per-row noise factors."""
    return L * xi if L.ndim == xi.ndim else np.einsum("...ij,...j->...i", L, xi)


def _invalid_mask(ys, tol=0.0):
    """Rows outside the reduced simplex; a non-finite row counts as outside."""
    return ~(np.all(ys >= 0.0, axis=-1) & (np.sum(ys, axis=-1) <= 1.0 + tol))


def _clip_renormalize(ys):
    """Clamp negatives to zero; scale rows whose reduced sum exceeds one."""
    ys = np.maximum(ys, 0.0)
    s = np.sum(ys, axis=-1)
    over = s > 1.0
    if np.any(over):
        ys[over] /= s[over, np.newaxis]
    return ys


def _advance(proc, ys, t, cfg, rng):
    """One Euler-Maruyama step for a batch; returns (states, modified, clipped)."""
    xi = rng.normals(ys.shape)
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
    # invalid rows include non-finite ones; redraws of finite rows stay finite
    rows = np.flatnonzero(bad)
    finite = np.all(np.isfinite(prop[rows]), axis=-1)
    if not np.all(finite):
        raise DegenerateState(
            f"non-finite proposal for particle {rows[np.argmin(finite)]}")
    if cfg.boundary_policy == "reject_resample":
        for _ in range(cfg.max_resample):
            idx = np.flatnonzero(bad)
            if idx.size == 0:
                break
            xi_new = rng.normals((idx.size, ys.shape[1]))
            prop[idx] = base[idx] + _noise(L[idx], xi_new) * np.sqrt(cfg.dt)
            bad[idx] = _invalid_mask(prop[idx])
    clipped = bad
    if np.any(bad):
        prop[bad] = _clip_renormalize(prop[bad])
    return prop, modified, clipped


@dataclass
class StepResult:
    state: ReducedState
    modified: bool
    clipped: bool


def step(state: ReducedState, proc: ProcessDefinition, t: float,
         cfg: IntegratorConfig, rng: RandomSource) -> StepResult:
    """Advance a single reduced state by one time step."""
    ys = state.fractions[np.newaxis, :].copy()
    out, modified, clipped = _advance(proc, ys, t, cfg, rng)
    return StepResult(ReducedState(_readonly(out[0])),
                      bool(modified[0]), bool(clipped[0]))


def _full_states(ys):
    """Reduced batch -> full batch with the clamped remainder appended."""
    rest = np.maximum(1.0 - np.sum(ys, axis=-1, keepdims=True), 0.0)
    return np.concatenate([ys, rest], axis=-1)


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
    if init.size < 1:
        raise ValueError("initial ensemble is empty")
    if not t_end > 0:
        raise ValueError(f"t_end must be > 0, got {t_end}")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if init.n != proc.dimension:
        raise ValueError(f"ensemble has {init.n} components, "
                         f"process expects {proc.dimension}")
    n_steps = max(int(round(t_end / cfg.dt)), 1)
    ys = init.reduced.copy()
    traj = Trajectory(times=None, snapshots=[], config=cfg,
                      process_name=proc.name)
    times = []

    def record(t, ys):
        full = _full_states(ys)
        moments = stats_mod.estimate_moments(full)
        bm, br = stats_mod.batch_statistics(full, proc, t, n_batches)
        traj.snapshots.append(Snapshot(t=t, moments=moments,
                                       batch_moments=bm, batch_rates=br))
        times.append(t)

    record(0.0, ys)
    if dump_every:
        traj.dumps[0.0] = _full_states(ys)
    for k in range(1, n_steps + 1):
        t = (k - 1) * cfg.dt
        try:
            ys, modified, clipped = _advance(proc, ys, t, cfg, rng)
        except (DegenerateState, NotPositiveSemiDefinite) as exc:
            raise DegenerateState(f"step {k} at t={t}: {exc}") from exc
        traj.particle_steps += ys.shape[0]
        traj.modified_steps += int(np.count_nonzero(modified))
        traj.clipped_steps += int(np.count_nonzero(clipped))
        traj.violation_count += int(np.count_nonzero(_invalid_mask(ys, VIOLATION_TOL)))
        if k % record_every == 0 or k == n_steps:
            record(k * cfg.dt, ys)
        if dump_every and (k % dump_every == 0 or k == n_steps):
            traj.dumps[k * cfg.dt] = _full_states(ys)
    traj.times = np.array(times)
    return traj
