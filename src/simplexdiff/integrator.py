"""Explicit Euler-Maruyama integration of simplex ensembles.

The integrator advances all particles of an ensemble with independent noise
drawn from a counter-based (Philox) stream, maps it through the noise factor
the process supplies (an (r, w) rank-one square root, the square root of a
diagonal, or an eigendecomposition of the diffusion matrix), and enforces
the simplex constraints on every accepted step, so that every recorded state
is realizable by construction; a non-finite proposal stops the run.  Drift
and noise factor, functions of the state alone, are evaluated once per step:
a rejected proposal redraws only its normals.  The ensemble is held
component-major, as a (K, M) array with one row per reduced component, so
that sums over components run along the leading axis; the normals are still
drawn particle by particle, into a column-major (M, K) array that is (K, M)
when transposed.  A step holds few state-sized arrays at once: the drift
goes once its term is formed, the normals are drawn after the drift and the
noise factor (neither draws, so the stream is the same), and the state it
returns owns its memory, so the next step holds no larger block behind it.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (TOL_SUM, Ensemble, ProcessDefinition, check_count,
                   check_positive, component_major, component_sum)
from .errors import DegenerateState, InvalidParameter, NotPositiveSemiDefinite
from . import statistics as stats_mod

#: squared-noise arguments below this are treated as roundoff, not errors
NEGATIVE_CLAMP = -1e-14
#: fewest normals per step (M x K) worth drawing ahead on a helper thread
DRAW_AHEAD_MIN = 8192
#: leading rows (particles) per piece of a direct draw into a column-major array
DRAW_CHUNK = 1024


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


#: a seed or stream id keys Philox as one 64-bit word, onto which the signed
#: 64-bit integers map one to one: a wider range would alias streams
SEED_RANGE = (-2 ** 63, 2 ** 63)


class RandomSource:
    """Deterministic noise stream keyed by (seed, stream_id) in SEED_RANGE.

    Backed by the Philox counter-based generator, so identical keys yield
    identical increment sequences on any platform or thread layout, also
    while simulate has a helper thread draw them a block ahead.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        check_count("seed", seed, *SEED_RANGE)
        check_count("stream_id", stream_id, *SEED_RANGE)
        key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF,
                        int(stream_id) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))
        self._ahead = None  # simulate's _DrawAhead while it runs

    def normals(self, shape) -> np.ndarray:
        """The stream's next values, in row-major index order, stored column-major."""
        if self._ahead is not None:
            return self._ahead.take(shape)
        out = np.empty(np.atleast_1d(shape)[::-1]).T
        for a in range(0, len(out), DRAW_CHUNK):
            piece = out[a:a + DRAW_CHUNK]
            piece[...] = self.generator.standard_normal(piece.shape)
        return out


class _DrawAhead:
    """A helper thread that fills a ring of two blocks of `size` normals in
    stream order, noting the generator state at each block's start; close
    joins it and rewinds the generator to just after the last value taken."""

    def __init__(self, rng: RandomSource, size: int):
        self.rng, self.size, self.ring = rng, size, np.empty((2, size))
        self.free, self.full = threading.Semaphore(2), threading.Semaphore(0)
        self.states = [rng.generator.bit_generator.state, None, None]
        self.taken, self.error, self.closed = 0, None, False
        self.thread = threading.Thread(target=self._fill, daemon=True)
        self.thread.start()
        rng._ahead = self  # after start: a failed start leaves draws direct

    def _fill(self):
        gen, block = self.rng.generator, 0
        while (self.error is None and self.free.acquire()  # a slot came free
               and not self.closed):
            try:
                gen.standard_normal(out=self.ring[block % 2])
                self.states[(block + 1) % 3] = gen.bit_generator.state
            except BaseException as exc:  # raised by the take that waits for it
                self.error = block, exc
            self.full.release()
            block += 1

    def take(self, shape):
        """The next (m, K) values, column-major; K divides the block size."""
        out = np.empty(shape[::-1]).T
        done, k = 0, shape[1]
        while done < out.size:
            block, at = divmod(self.taken, self.size)
            if at == 0:  # wait until the block is filled
                self.full.acquire()
                if self.error and self.error[0] == block:
                    raise self.error[1]
            piece = self.ring[block % 2, at:at + out.size - done]
            end = done + piece.size
            out[done // k:end // k] = piece.reshape(-1, k)
            done, self.taken = end, self.taken + piece.size
            if at + piece.size == self.size:  # the helper may refill the slot
                self.free.release()
        return out

    def close(self):
        self.closed, self.rng._ahead = True, None
        self.free.release()
        self.thread.join()
        gen = self.rng.generator  # to the taken block's start, then redraw
        gen.bit_generator.state = self.states[self.taken // self.size % 3]
        gen.standard_normal(self.taken % self.size)


@dataclass(frozen=True)
class IntegratorConfig:
    """The step dt and max_resample redraws before a clip; 0 clips at once."""

    dt: float
    max_resample: int = 100

    def __post_init__(self):
        check_positive("dt", self.dt)
        check_count("max_resample", self.max_resample, least=0)


@dataclass
class Trajectory:
    """A run's snapshots stacked over time, and its counters: the (T,) times
    t, moments a MomentSet of T snapshots, and batch_moments and batch_rates
    dicts of (T, n_batches, ...) arrays, keyed as batch_statistics keys them."""

    t: np.ndarray
    moments: "stats_mod.MomentSet"
    batch_moments: dict
    batch_rates: dict
    config: IntegratorConfig
    particle_steps: int
    violation_count: int
    modified_steps: int
    clipped_steps: int
    dumps: dict


def _noise_factor(proc: ProcessDefinition, ys: np.ndarray):
    """Per-particle noise factor: (K, M) diagonal roots, (r, w) or (K, K, M)."""
    if proc.diffusion_factor is not None:
        return proc.diffusion_factor(ys)
    if proc.diffusion_diag is not None:
        d = proc.diffusion_diag(ys)
        if np.min(d) < NEGATIVE_CLAMP:
            raise NotPositiveSemiDefinite(
                f"diagonal diffusion entry {np.min(d):.3e} < 0")
        root = np.maximum(d, 0.0)
        return np.sqrt(root, out=root)
    B = proc.diffusion(ys)
    w, V = np.linalg.eigh(np.moveaxis(B, -1, 0))
    scale = max(float(np.max(np.abs(B))), 1.0)
    if np.min(w) < -1e-10 * scale:
        raise NotPositiveSemiDefinite(
            f"diffusion eigenvalue {np.min(w):.3e} at a simulated state")
    return np.moveaxis(V * np.sqrt(np.maximum(w, 0.0))[..., np.newaxis, :], 0, -1)


def _columns(L, idx):
    """The noise factor of the particles idx, C-contiguous like the whole."""
    if isinstance(L, tuple):
        return tuple(np.take(a, idx, axis=-1) for a in L)
    return np.take(L, idx, axis=-1)


def _noise(L, xi):
    """Map (K, M) unit normals through per-particle noise factors into a new
    (K, M) array, each sum running in increasing j from its first term; an
    (r, w) factor gives r xi - w (the sum of r[j] xi[j])."""
    if isinstance(L, tuple):
        r, w = L
        out = r * xi
        s = component_sum(out)
        for i in range(out.shape[0]):
            out[i] -= w[i] * s
        return out
    if L.ndim == xi.ndim:
        return L * xi
    out = L[:, 0] * xi[0]
    for j in range(1, xi.shape[0]):
        out += L[:, j] * xi[j]
    return out


def _normals(rng, m, k):
    """(K, m) unit normals, drawn particle by particle as a column-major (m, K)."""
    return np.ascontiguousarray(rng.normals((m, k)).T)


def _invalid_mask(ys, tol=0.0):
    """Columns outside the reduced simplex; a non-finite column counts as outside."""
    ok = np.all(ys >= 0.0, axis=0)
    ok &= component_sum(ys) <= 1.0 + tol
    return ~ok


def _clip_renormalize(ys):
    """Clamp negatives to zero; scale columns whose reduced sum exceeds one."""
    ys = np.maximum(ys, 0.0)
    s = component_sum(ys)
    over = s > 1.0
    if np.any(over):
        ys[:, over] /= s[over]
    return ys


def _advance(proc, ys, cfg, rng):
    """One Euler-Maruyama step for a (K, M) batch; returns (states, modified, clipped).

    Invalid columns are redrawn, in column order, as one shrinking subset
    whose drift term and noise factor are gathered once; a column still
    invalid after max_resample redraws is clipped from its last proposal.
    """
    k, m = ys.shape
    try:
        # in place only on arrays allocated here (a closure may return a
        # view); the drift array goes once base = a dt + ys is formed
        base = np.multiply(proc.drift(ys), cfg.dt, out=np.empty(ys.shape))
        L = _noise_factor(proc, ys)
    except NotPositiveSemiDefinite:
        raise
    except Exception as exc:  # drift/diffusion raised at a simulated state
        raise DegenerateState(f"evaluation failed: {exc}") from exc
    base += ys
    sqrt_dt = np.sqrt(cfg.dt)
    prop = _noise(L, _normals(rng, m, k))  # nothing else draws: same stream
    prop *= sqrt_dt
    prop += base
    modified = _invalid_mask(prop)
    clipped = np.zeros(m, dtype=bool)
    idx = np.flatnonzero(modified)
    if idx.size == 0:
        return prop, modified, clipped
    # invalid columns include non-finite ones; redraws of finite ones stay finite
    cand = np.take(prop, idx, axis=1)
    finite = np.all(np.isfinite(cand), axis=0)
    if not np.all(finite):
        raise DegenerateState(
            f"non-finite proposal for particle {idx[np.argmin(finite)]}")
    if cfg.max_resample:
        base, L = np.take(base, idx, axis=1), _columns(L, idx)
    for _ in range(cfg.max_resample):
        cand = _noise(L, _normals(rng, idx.size, k))
        cand *= sqrt_dt
        cand += base
        prop[:, idx] = cand
        keep = np.flatnonzero(_invalid_mask(cand))
        idx, cand = idx[keep], np.take(cand, keep, axis=1)
        if idx.size == 0:
            return prop, modified, clipped
        base, L = np.take(base, keep, axis=1), _columns(L, keep)
    clipped[idx] = True
    prop[:, idx] = _clip_renormalize(cand)
    return prop, modified, clipped


def _full_states(ys):
    """(K, M) reduced batch -> (M, N) full states, a transposed (N, M) array."""
    return np.vstack([ys, np.maximum(1.0 - component_sum(ys), 0.0)]).T


def snapshot_steps(t_end: float, dt: float, record_every: int) -> list:
    """The steps after which simulate records a snapshot, step k at t = k * dt:
    0, every record_every-th and the last."""
    n_steps = max(int(round(t_end / dt)), 1)
    return [*range(0, n_steps, record_every), n_steps]


def simulate(proc: ProcessDefinition, init: Ensemble, cfg: IntegratorConfig,
             t_end: float, record_every: int, rng: RandomSource,
             dump_every: Optional[int] = None) -> Trajectory:
    """Advance an ensemble to t_end, recording moment snapshots.

    Snapshots are taken at t=0, every record_every steps, and at the final
    step; each makes one statistics pass (moments of all N components and
    reduced moment evolution rates in 20 particle batches, for standard
    errors) and merges the full-ensemble moments from its batches; the
    Trajectory stacks them once, after the last step.  Every accepted
    proposal passed the exact simplex check; the clipped columns are checked
    again at TOL_SUM and violations counted (the clip should make the
    count zero).  DegenerateState names the step and particle of a
    non-finite proposal, the step of a closure that raised, and the time of
    a snapshot whose closure raised.  On two or more CPUs a helper thread
    draws large steps' normals ahead; no output byte changes.
    """
    if init.size < 2:
        raise InvalidParameter("init", f"need >= 2 particles, got {init.size}")
    check_positive("t_end", t_end)
    check_count("record_every", record_every)
    if dump_every is not None:
        check_count("dump_every", dump_every)
    if init.n != proc.dimension:
        raise InvalidParameter("init", f"ensemble has {init.n} components, "
                                       f"process expects {proc.dimension}")
    steps = snapshot_steps(t_end, cfg.dt, record_every)
    n_steps, recorded = steps[-1], set(steps)
    ys = component_major(init.reduced)
    snaps, dumps = [], {}
    particle_steps = violation_count = modified_steps = clipped_steps = 0

    def observe(k, ys):
        """The snapshot and dump due after step k, from one full-state array."""
        snap = k in recorded
        dump = dump_every and (k % dump_every == 0 or k == n_steps)
        if not (snap or dump):
            return
        t = k * cfg.dt
        full = _full_states(ys)
        if snap:
            try:
                bm, br = stats_mod.batch_statistics(full, proc)
            except Exception as exc:  # a closure raised at a recorded state
                raise DegenerateState(
                    f"snapshot at t={t}: evaluation failed: {exc}") from exc
            snaps.append((t, stats_mod.estimate_moments(full, bm), bm, br))
        if dump:
            dumps[t] = full

    ahead = ys.size >= DRAW_AHEAD_MIN and _cpus() > 1 and _DrawAhead(rng, ys.size)
    try:
        observe(0, ys)
        for k in range(1, n_steps + 1):
            try:
                ys, modified, clipped = _advance(proc, ys, cfg, rng)
            except (DegenerateState, NotPositiveSemiDefinite) as exc:
                raise DegenerateState(
                    f"step {k} at t={(k - 1) * cfg.dt}: {exc}") from exc
            particle_steps += ys.shape[1]
            modified_steps += int(np.count_nonzero(modified))
            n_clipped = int(np.count_nonzero(clipped))
            clipped_steps += n_clipped
            if n_clipped:  # every other column passed the stricter tol-0 check
                fallback = np.compress(clipped, ys, axis=1)
                violation_count += int(np.count_nonzero(
                    _invalid_mask(fallback, TOL_SUM)))
            observe(k, ys)
    finally:
        if ahead:
            ahead.close()
    times, moments, *batches = zip(*snaps)  # batch moments, batch rates
    return Trajectory(np.array(times), stats_mod.MomentSet.stack(moments),
                      *({key: np.stack([d[key] for d in dicts]) for key in dicts[0]}
                        for dicts in batches),
                      cfg, particle_steps, violation_count, modified_steps,
                      clipped_steps, dumps)
