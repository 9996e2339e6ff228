import dataclasses
import hashlib
import itertools
import json
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest

from simplexdiff import (DegenerateState, Ensemble, IntegratorConfig,
                         NotPositiveSemiDefinite, ProcessDefinition,
                         RandomSource, beta_process,
                         broken_process, dirichlet_process,
                         gen_dirichlet_process, make_state, simulate,
                         wright_fisher_process)
from simplexdiff import integrator
from simplexdiff.core import TOL_SUM, component_major, face_points
from simplexdiff.integrator import (_advance, _clip_renormalize, _columns,
                                    _DrawAhead, _invalid_mask, _noise)
from simplexdiff.processes import _running


def step(y, proc, cfg, rng):
    """One step of a single (K,) reduced state, as a (K, 1) batch:
    (the new state, whether it was modified, whether it was clipped)."""
    out, modified, clipped = _advance(proc, np.array(y, dtype=float)[:, np.newaxis],
                                      cfg, rng)
    return out[:, 0], bool(modified[0]), bool(clipped[0])


def constant_process(a, n=3):
    """Zero-diffusion process with constant drift a, for exactness checks."""
    k = n - 1
    a = np.asarray(a, dtype=float)

    def drift(y):
        return np.broadcast_to(a.reshape((k,) + (1,) * (y.ndim - 1)), y.shape).copy()

    def diffusion(y):
        return np.zeros((k,) + y.shape)

    return ProcessDefinition(dimension=n, drift=drift, diffusion=diffusion,
                             name="constant")


def test_step_zero_diffusion_is_euler():
    p = constant_process([0.05, -0.02])
    cfg = IntegratorConfig(dt=1e-2)
    y, modified, clipped = step([0.3, 0.4], p, cfg, RandomSource(1, 0))
    npt.assert_allclose(y, [0.3 + 0.05e-2, 0.4 - 0.02e-2], rtol=1e-15)
    assert not modified and not clipped


def test_step_reenters_from_boundary():
    p = beta_process(b=2.0, S=0.5, kappa=1.0)
    cfg = IntegratorConfig(dt=1e-3)
    y, _, _ = step([0.0], p, cfg, RandomSource(2, 0))
    npt.assert_allclose(y, [0.5e-3], rtol=1e-15)


def test_clipped_fraction_regression_pin():
    """Under 1% of particle-steps need the clipping fallback for this setup."""
    p = beta_process(b=2.0, S=0.5, kappa=1.0)
    ens = Ensemble.from_delta(make_state([0.9, 0.1]), 1000)
    traj = simulate(p, ens, IntegratorConfig(dt=1e-3), t_end=1.0,
                    record_every=1000, rng=RandomSource(42, 0))
    assert traj.particle_steps == 10 ** 6
    assert traj.clipped_steps / traj.particle_steps < 0.01
    assert traj.violation_count == 0


def test_simulate_constant_ensemble_fixed_point():
    p = constant_process([0.0, 0.0])
    ens = Ensemble.from_delta(make_state([0.2, 0.3, 0.5]), 50)
    traj = simulate(p, ens, IntegratorConfig(dt=1e-2), t_end=0.5,
                    record_every=10, rng=RandomSource(0, 0))
    m = traj.moments
    for i in range(1, traj.t.size):
        npt.assert_array_equal(m.mean[i], m.mean[0])
        npt.assert_array_equal(m.covariance[i], m.covariance[0])


def test_simulate_mean_decays_toward_target():
    p = beta_process(b=2.0, S=0.5, kappa=1.0)
    ens = Ensemble.from_delta(make_state([0.9, 0.1]), 2000)
    traj = simulate(p, ens, IntegratorConfig(dt=1e-3), t_end=3.0,
                    record_every=500, rng=RandomSource(7, 0))
    means = traj.moments.mean[:, 0]
    assert means[0] == pytest.approx(0.9, abs=1e-12)
    # relaxation toward S = 0.5: strictly decreasing at this resolution
    assert np.all(np.diff(means) < 0.0)
    # analytic residual 0.4 exp(-3) plus Monte-Carlo noise
    assert abs(means[-1] - 0.5) < 0.03


def test_simulate_determinism():
    p = wright_fisher_process(np.ones(3))
    ens = Ensemble.from_delta(make_state([1 / 3, 1 / 3, 1 / 3]), 200)
    runs = []
    for _ in range(2):
        traj = simulate(p, ens, IntegratorConfig(dt=1e-3), t_end=0.2,
                        record_every=50, rng=RandomSource(9, 0))
        runs.append(traj.moments.mean)
    npt.assert_array_equal(runs[0], runs[1])


def test_random_source_streams():
    a = RandomSource(5, 0).normals(4)
    b = RandomSource(5, 0).normals(4)
    c = RandomSource(5, 1).normals(4)
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # a key is the 64-bit two's-complement word of the seed and stream id,
    # and the ends of their range are distinct streams
    for seed, stream, words in ((-1, 0, [2 ** 64 - 1, 0]), (0, -2 ** 63, [0, 2 ** 63]),
                                (2 ** 63 - 1, 0, [2 ** 63 - 1, 0])):
        philox = np.random.Philox(key=np.array(words, dtype=np.uint64))
        npt.assert_array_equal(RandomSource(seed, stream).normals(4),
                               np.random.Generator(philox).standard_normal(4))
    assert not np.array_equal(RandomSource(2 ** 63 - 1).normals(4),
                              RandomSource(-2 ** 63).normals(4))


def test_clip_renormalize_policy():
    p = beta_process(b=2.0, S=0.5, kappa=1.0)
    ens = Ensemble.from_delta(make_state([0.99, 0.01]), 500)
    cfg = IntegratorConfig(dt=1e-3, max_resample=0)
    traj = simulate(p, ens, cfg, t_end=0.5, record_every=100,
                    rng=RandomSource(3, 0))
    assert traj.violation_count == 0


def test_clip_gives_a_column_the_same_bytes_alone_as_in_a_batch():
    """Each column sums row by row, so an over-full column clips to the same
    bytes alone as beside others; numpy sums a lone column pairwise, which
    differs from K = 8 on."""
    rng = np.random.default_rng(51)
    for k in range(2, 14):
        ys = rng.uniform(0.0, 1.0, size=(k, 2000))
        ys *= rng.uniform(1.0, 1.5, 2000) / ys.sum(axis=0)
        ys[rng.random(ys.shape) < 0.1] *= -0.1   # some entries to clamp
        batch = _clip_renormalize(ys)
        for j in range(ys.shape[1]):
            alone = _clip_renormalize(ys[:, j:j + 1])
            assert alone.tobytes() == batch[:, j:j + 1].tobytes(), (k, j)


def test_simulate_rejects_single_particle():
    """One particle has no moments, so simulate refuses it before stepping;
    so it does an end time that is not a finite number > 0 and counts
    (record_every, dump_every) that are not integers >= 1, a bool included."""
    ens = Ensemble.from_delta(make_state([0.2, 0.3, 0.5]), 1)
    with pytest.raises(ValueError, match=">= 2 particles"):
        simulate(constant_process([0.0, 0.0]), ens, IntegratorConfig(dt=1e-2),
                 t_end=0.1, record_every=1, rng=RandomSource(0, 0))
    ens = Ensemble.from_delta(make_state([0.2, 0.3, 0.5]), 2)
    for bad in ({"t_end": np.inf}, {"t_end": np.nan}, {"record_every": 2.5},
                {"record_every": True}, {"record_every": 0},
                {"dump_every": -3}, {"dump_every": 2.5}, {"dump_every": True}):
        kwargs = dict({"t_end": 0.1, "record_every": 1}, **bad)
        with pytest.raises(ValueError, match=next(iter(bad))):
            simulate(constant_process([0.0, 0.0]), ens,
                     IntegratorConfig(dt=1e-2), rng=RandomSource(0, 0),
                     **kwargs)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    for bad in ({"dt": np.inf}, {"dt": np.nan}, {"max_resample": 2.5},
                {"max_resample": True}, {"max_resample": -1}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            IntegratorConfig(**dict({"dt": 1e-3}, **bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_drift_raises_with_step_and_particle(bad):
    """A non-finite proposal stops the run instead of passing the checks."""
    def poisoned():
        """A zero process whose drift poisons particle 3 from its third call
        on: the snapshot at t = 0 and the first step pass, the second faults."""
        calls = itertools.count(1)

        def drift(y):
            a = np.zeros_like(y)
            if next(calls) > 2:
                a[1, 3] = bad
            return a
        return ProcessDefinition(dimension=3, drift=drift, name="poisoned",
                                 diffusion=lambda y: np.zeros((2,) + y.shape),
                                 diffusion_diag=lambda y: np.zeros(y.shape))

    ens = Ensemble.from_delta(make_state([0.2, 0.3, 0.5]), 10)
    for max_resample in (100, 0):
        p = poisoned()
        with pytest.raises(DegenerateState,
                           match=r"^step 2 at t=0.01: .*particle 3\b"):
            simulate(p, ens, IntegratorConfig(dt=1e-2, max_resample=max_resample),
                     t_end=0.05, record_every=100, rng=RandomSource(4, 0))


@pytest.mark.parametrize("path", ["diffusion_diag", "eigh"])
def test_indefinite_diffusion_raises(path):
    """Both noise-factor paths refuse a diffusion with a negative direction."""
    d = np.array([0.1, -0.1])

    def diffusion_diag(y):
        return np.broadcast_to(d[:, np.newaxis], y.shape)

    def diffusion(y):
        return np.broadcast_to(np.diag(d)[..., np.newaxis], (2,) + y.shape)

    p = ProcessDefinition(
        dimension=3, drift=lambda y: np.zeros_like(y), diffusion=diffusion,
        name="indefinite",
        diffusion_diag=diffusion_diag if path == "diffusion_diag" else None)
    with pytest.raises(NotPositiveSemiDefinite):
        step([0.3, 0.4], p, IntegratorConfig(dt=1e-3), RandomSource(6, 0))


def _factor_forms(n=3):
    """One process per noise-factor form: diagonal, explicit factor, eigh,
    and the nested process, each with n components."""
    k = n - 1
    wf = wright_fisher_process(np.ones(n))
    base = dict(b=np.full(k, 4.0), S=np.full(k, 0.5), kappa=np.ones(k))
    return {"diagonal": dirichlet_process(dirichlet_invariant=True, **base),
            "factor": wf,
            "eigh": dataclasses.replace(wf, diffusion_factor=None),
            "nested": gen_dirichlet_process(c="reduction", **base)}


def _uniform_states(n, m, seed):
    """m uniform reduced states, component-major (n-1, m)."""
    return Ensemble.from_uniform(n, m, np.random.default_rng(seed)).reduced.T.copy()


def _noise_factor_name(proc):
    if proc.diffusion_factor is not None:
        return "diffusion_factor"
    return "diffusion_diag" if proc.diffusion_diag is not None else "diffusion"


def _counted(proc, calls):
    """A copy of proc whose drift and noise-factor closure count their calls."""
    def wrap(name):
        fn = getattr(proc, name)

        def call(y):
            calls[name] += 1
            return fn(y)
        return call
    names = ("drift", _noise_factor_name(proc))
    return dataclasses.replace(proc, **{n: wrap(n) for n in names})


class CountingSource(RandomSource):
    def __init__(self, seed, calls):
        super().__init__(seed, 0)
        self.calls = calls

    def normals(self, shape):
        self.calls["normals"] += 1
        return super().normals(shape)


@pytest.mark.parametrize("form", ["diagonal", "factor", "eigh"])
def test_advance_evaluates_each_closure_once(form):
    """Resample rounds redraw normals without re-evaluating the process."""
    calls = {"drift": 0, "diffusion_factor": 0, "diffusion_diag": 0,
             "diffusion": 0, "normals": 0}
    proc = _factor_forms()[form]
    ys = _uniform_states(3, 400, 11)
    _advance(_counted(proc, calls), ys, IntegratorConfig(dt=0.05),
             CountingSource(12, calls))
    assert calls["normals"] > 1  # at least one resample round ran
    assert calls["drift"] == 1
    assert calls[_noise_factor_name(proc)] == 1


def test_step_evaluates_each_closure_once():
    """An always-rejected step: every round redraws, then the state is clipped."""
    calls = {"drift": 0, "diffusion_diag": 0, "normals": 0}
    proc = _counted(broken_process("outward_drift"), calls)
    _, _, clipped = step([0.3, 0.4], proc,
                         IntegratorConfig(dt=1.0, max_resample=5),
                         CountingSource(13, calls))
    assert clipped
    assert calls == {"drift": 1, "diffusion_diag": 1, "normals": 6}


def _invalid_rows(ys):
    return ~(np.all(ys >= 0.0, axis=-1) & (np.sum(ys, axis=-1) <= 1.0))


def _clip_rows(ys):
    ys = np.maximum(ys, 0.0)
    s = np.sum(ys, axis=-1)
    over = s > 1.0
    if np.any(over):
        ys[over] /= s[over, np.newaxis]
    return ys


def _wf_root(y):
    """The Wright-Fisher square root's (r, w), (K, M) each, built apart from
    _wf_diffusion_factor: r = sqrt(y) and w = y / (1 + sqrt(Y_N)), the
    remainder Y_N = max(1 - y_1 - ... - y_K, 0) summed in row order."""
    remainder = np.maximum(1.0 - _running(np.add, y)[-1], 0.0)
    return np.sqrt(y), y / (1.0 + np.sqrt(remainder))


def _dense_wf_factor(y):
    """The dense (K, K, M) Wright-Fisher factor diag(r) - w r^T of _wf_root."""
    r, w = _wf_root(y)
    L = -w[:, np.newaxis] * r[np.newaxis]
    diag = np.arange(y.shape[0])
    L[diag, diag] += r
    return L


def _wf_reference_noise(y, xi):
    """(K, M) normals through the factor of _wf_root, in the stated order:
    r xi less w times the sum of r[j] xi[j], started from the j = 0 term."""
    r, w = _wf_root(y)
    s = r[0] * xi[0]
    for j in range(1, xi.shape[0]):
        s = s + r[j] * xi[j]
    return r * xi - w * s


def wf_edge_states(n, rng):
    """Component-major reduced states: interior, every zero face, the
    unit-sum face, every vertex, remainders one ulp above zero, and (N > 2)
    a zero remainder under two positive components."""
    k = n - 1
    faces = [face_points(f, k, 20, rng) for f in range(k + 1)]
    ulp = np.zeros((2, k))
    ulp[:, 0] = 1.0 - 2.0 ** -53
    if k > 1:
        ulp[0, 1], ulp[1, -1] = 2.0 ** -60, 2.0 ** -54
    zero_remainder = np.zeros((1, k))
    zero_remainder[0, :2] = 0.5
    parts = [rng.dirichlet(np.ones(n), size=200)[:, :k], *faces,
             np.eye(k), np.zeros((1, k)), ulp, zero_remainder]
    return np.ascontiguousarray(np.concatenate(parts).T)


@pytest.mark.parametrize("call", ["nested-drift", "wright_fisher-noise",
                                  "wright_fisher-step", "dirichlet-step",
                                  "nested-step"])
def test_step_closure_peak_memory(call):
    """The two largest allocations of an N = 8, M = 10^4 step stay small,
    and so does a whole step fed the state the step before returned.

    The nested drift sums its coupling term by term in beta order through
    one reused scratch, 3.3 MB at peak where the whole (K-1, K-1, M)
    coupling array took 5.1 MB.  The Wright-Fisher noise map holds its
    (K, M) result, the (M,) running sum and one (M,) product: 0.72 MB,
    where summing even and odd columns in a (2, K, M) block took 1.7 MB.
    A whole step drops the drift once its term is formed, draws the normals
    after the noise factor, straight into the (K, M) layout, and returns a
    state that owns its memory: 2.96 MB (Wright-Fisher, set while the noise
    map runs), 2.2 MB (Dirichlet) and 3.3 MB (nested), where the block took
    3.9 MB and steps that kept the drift took 5.1, 3.0 and 4.2 MB.
    """
    import tracemalloc
    n, k = 8, 7
    y = component_major(np.random.default_rng(37).dirichlet(
        np.full(n, 1.5), size=10 ** 4)[:, :-1])
    rates = dict(b=[4.0] * k, S=[0.5] * k, kappa=[1.0] * k)
    if call == "nested-drift":
        proc = gen_dirichlet_process(c="reduction", **rates)
        run, bound = lambda: proc.drift(y), 4e6
    elif call == "wright_fisher-noise":
        factor = wright_fisher_process(np.ones(n)).diffusion_factor(y)
        xi = np.random.default_rng(1).standard_normal(y.shape)
        run, bound = lambda: _noise(factor, xi), 0.8e6
    else:
        family = call.split("-")[0]
        proc, bound = {
            "wright_fisher": (wright_fisher_process(np.ones(n)), 3.25e6),
            "dirichlet": (dirichlet_process(dirichlet_invariant=True, **rates),
                          2.7e6),
            "nested": (gen_dirichlet_process(c="reduction", **rates), 3.7e6),
        }[family]
        cfg, rng = IntegratorConfig(dt=1e-5), RandomSource(38, 0)
        state, _, _ = _advance(proc, y, cfg, rng)
        run = lambda: _advance(proc, state, cfg, rng)  # noqa: E731
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"{peak / 1e6:.2f} MB"


@pytest.mark.parametrize("form", ["diagonal", "factor", "eigh", "nested"])
@pytest.mark.parametrize("n", [3, 8])
def test_advance_returns_a_state_that_owns_its_memory(form, n):
    """The state a step returns is no view of a larger block (which the next
    step would hold throughout), also after resample rounds and a clip."""
    cfg = IntegratorConfig(dt=0.2, max_resample=1)
    ys, modified, clipped = _advance(_factor_forms(n)[form],
                                     _uniform_states(n, 400, 71), cfg,
                                     RandomSource(72, 0))
    assert np.any(modified) and np.any(clipped)
    assert ys.base is None and ys.shape == (n - 1, 400)


@pytest.mark.parametrize("n", [3, 8, 12])
def test_structured_wf_noise_matches_dense_factor(n):
    """The (r, w) Wright-Fisher factor maps normals to the bits of the
    running-sum reference, on whole batches and on gathered resample
    columns, and to the dense product L xi within its rounding bound.  The
    bound takes |L| term by term, diag(r) + w r^T: near a vertex and on the
    unit-sum face the diagonal r - w r cancels, and the two products each
    round before it does."""
    rng = np.random.default_rng(n)
    y = wf_edge_states(n, rng)
    proc = wright_fisher_process(np.ones(n))
    factor = proc.diffusion_factor(y)
    assert [a.shape for a in factor] == [y.shape] * 2
    xi = rng.standard_normal(y.shape)
    noise = _noise(factor, xi)
    assert noise.tobytes() == _wf_reference_noise(y, xi).tobytes()
    idx = np.flatnonzero(rng.random(y.shape[1]) < 0.3)
    assert (_noise(_columns(factor, idx), xi[:, idx]).tobytes()
            == _wf_reference_noise(y[:, idx], xi[:, idx]).tobytes())
    exact = np.einsum("ij...,j...->i...", _dense_wf_factor(y), xi)
    r, w = factor
    terms = r * np.abs(xi)
    bound = (n - 1) * np.finfo(float).eps * (terms + w * np.sum(terms, axis=0))
    assert np.all(np.abs(noise - exact) <= bound)


@pytest.mark.parametrize("n", [2, 3, 8, 12])
def test_wf_factor_keeps_faces_and_lone_states(n):
    """Row a of the Wright-Fisher factor is exactly 0 where Y_a = 0, so a
    zero component gets no noise; where the reduced sum is exactly 1, w is
    y bit for bit, so 1^T L = (1 - sum(w)) r^T is exactly 0 and the
    increments sum to 0 up to their rounding; and a lone (K,) state gets
    its batch column's bytes."""
    rng = np.random.default_rng(n)
    y = wf_edge_states(n, rng)
    proc = wright_fisher_process(np.ones(n))
    r, w = proc.diffusion_factor(y)
    xi = rng.standard_normal(y.shape)
    noise = _noise((r, w), xi)
    zero = y == 0.0
    assert np.any(zero)
    assert np.all(r[zero] == 0.0) and np.all(w[zero] == 0.0)
    assert np.all(noise[zero] == 0.0)
    unit = _running(np.add, y)[-1] == 1.0
    assert np.any(unit)
    assert w[:, unit].tobytes() == y[:, unit].tobytes()
    assert np.all(_running(np.add, w[:, unit])[-1] == 1.0)
    scale = np.abs(r * xi).sum(axis=0)[unit]  # |w^T| |r xi| is as large
    assert np.all(np.abs(noise.sum(axis=0))[unit]
                  <= 2 * (n - 1) * np.finfo(float).eps * scale)
    for j in range(y.shape[1]):
        lone = proc.diffusion_factor(y[:, j].copy())
        assert [a.tobytes() for a in lone] == [r[:, j].tobytes(),
                                               w[:, j].tobytes()], j


def _reference_advance(proc, ys, cfg, rng):
    """A particle-major step on (M, K) states that re-evaluates drift and
    noise factor at rejected rows; closures are called through transposes.
    Wright-Fisher, the one process with an explicit factor, steps with
    _wf_reference_noise; an eigendecomposed factor sums each row's terms in
    increasing j from the first."""
    def propose(ys, xi):
        y = ys.T
        a = proc.drift(y).T
        if proc.diffusion_factor is not None:
            noise = _wf_reference_noise(y, np.ascontiguousarray(xi.T)).T
        elif proc.diffusion_diag is not None:
            noise = np.sqrt(np.maximum(proc.diffusion_diag(y).T, 0.0)) * xi
        else:
            w, V = np.linalg.eigh(np.moveaxis(proc.diffusion(y), -1, 0))
            L = V * np.sqrt(np.maximum(w, 0.0))[..., np.newaxis, :]
            noise = L[..., 0] * xi[:, :1]
            for j in range(1, xi.shape[1]):
                noise = noise + L[..., j] * xi[:, j:j + 1]
        return ys + a * cfg.dt + noise * np.sqrt(cfg.dt)

    prop = propose(ys, rng.normals(ys.shape))
    bad = _invalid_rows(prop)
    modified = bad.copy()
    for _ in range(cfg.max_resample):
        idx = np.flatnonzero(bad)
        if idx.size == 0:
            break
        prop[idx] = propose(ys[idx], rng.normals((idx.size, ys.shape[1])))
        bad[idx] = _invalid_rows(prop[idx])
    if np.any(bad):
        prop[bad] = _clip_rows(prop[bad])
    return prop, modified, bad


def _check_against_reference(form, n, max_resample):
    proc = _factor_forms(n)[form]
    cfg = IntegratorConfig(dt=0.02 * max_resample ** 2, max_resample=max_resample)
    ys = _uniform_states(n, 200, 21)
    rng, ref_rng = RandomSource(22, 0), RandomSource(22, 0)
    modified = clipped = 0
    for k in range(300):
        out, mod, clip = _advance(proc, ys, cfg, rng)
        ref, ref_mod, ref_clip = _reference_advance(proc, ys.T.copy(), cfg,
                                                    ref_rng)
        assert out.T.tobytes() == ref.tobytes(), f"step {k}"
        npt.assert_array_equal(mod, ref_mod)
        npt.assert_array_equal(clip, ref_clip)
        modified += np.count_nonzero(mod)
        clipped += np.count_nonzero(clip)
        ys = out
    assert modified > 100 and clipped > 0  # rejections were forced


_REFERENCE_FORMS = [
    pytest.param(form, n, id=form if n == 3 else f"{form}-{n}")
    for n, forms in ((3, ("diagonal", "factor", "eigh", "nested")),
                     (8, ("diagonal", "factor", "eigh")))
    for form in forms]


@pytest.mark.parametrize("form,n", _REFERENCE_FORMS)
def test_advance_matches_re_evaluating_reference(form, n):
    """The component-major step with reused drift and factor changes no bit
    of the particle-major, re-evaluating step."""
    _check_against_reference(form, n, 1)


@pytest.mark.parametrize("max_resample", [2, 3])
@pytest.mark.parametrize("form,n", _REFERENCE_FORMS)
def test_resample_rounds_match_reference(form, n, max_resample):
    """Over several resample rounds, as in the reference: rejected columns
    are redrawn in column order, every redraw is kept, and a column still
    invalid after the last round is clipped from its last redraw."""
    _check_against_reference(form, n, max_resample)


class ReplaySource:
    """Serves prepared normals in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def normals(self, shape):
        xi = self.draws.pop(0)
        assert xi.shape == tuple(shape)
        return xi


@pytest.mark.parametrize("form", ["diagonal", "factor", "eigh", "nested"])
@pytest.mark.parametrize("n", [3, 8, 9])
def test_step_matches_batched_column(form, n):
    """A single (K,) state steps exactly as its column of a batch does."""
    proc = _factor_forms(n)[form]
    cfg = IntegratorConfig(dt=1e-6)
    ys = _uniform_states(n, 50, 31)
    xi = RandomSource(32, 0).normals((50, n - 1))
    out, modified, _ = _advance(proc, ys, cfg, ReplaySource(xi))
    assert not np.any(modified)
    for j in range(50):
        y, _, _ = step(ys[:, j], proc, cfg, ReplaySource(xi[j:j + 1]))
        assert y.tobytes() == out[:, j].tobytes(), f"particle {j}"


def test_exhausted_column_clipped_from_last_redraw():
    """Redraw rows go to the invalid columns in column order, and a column
    still invalid after max_resample rounds is clipped from its last redraw."""
    proc = broken_process("constant_diffusion")   # zero drift, diffusion 0.1 I
    dt = 1e-2
    ys = np.array([[0.3, 0.01, 0.5],
                   [0.3, 0.5, 0.01]])
    first = np.array([[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    round1 = np.array([[-2.0, 0.0], [1.0, -3.0]])   # both still invalid
    round2 = np.array([[0.5, 0.0], [2.0, -4.0]])    # column 1 accepted
    src = ReplaySource(first, round1, round2)
    out, modified, clipped = _advance(proc, ys,
                                      IntegratorConfig(dt=dt, max_resample=2), src)
    assert src.draws == []

    def proposal(y, xi):
        return y + np.sqrt(0.1) * xi * np.sqrt(dt)

    expected = np.stack([proposal(ys[:, 0], first[0]),
                         proposal(ys[:, 1], round2[0]),
                         _clip_rows(proposal(ys[:, 2], round2[1]))], axis=1)
    assert out.tobytes() == expected.tobytes()
    npt.assert_array_equal(modified, [False, True, True])
    npt.assert_array_equal(clipped, [False, False, True])


@pytest.mark.parametrize("max_resample,dt,clips", [(1, 0.05, True),
                                                   (100, 1e-4, False)])
def test_simulate_counters_match_full_recount(max_resample, dt, clips):
    """violation_count, modified_steps and clipped_steps equal a recount over
    every post-step state, replayed step by step; violations are counted at
    TOL_SUM over all columns, and every column that was not clipped
    passes the exact check."""
    proc = wright_fisher_process(np.ones(3))
    ens = Ensemble.from_uniform(3, 400, np.random.default_rng(41))
    cfg = IntegratorConfig(dt=dt, max_resample=max_resample)
    traj = simulate(proc, ens, cfg, t_end=40 * dt, record_every=40,
                    rng=RandomSource(42, 0), dump_every=1)
    ys, rng = component_major(ens.reduced), RandomSource(42, 0)
    modified = clipped = violations = 0
    for k, states in enumerate(list(traj.dumps.values())[1:], start=1):
        ys, mod, clip = _advance(proc, ys, cfg, rng)
        npt.assert_array_equal(states[:, :-1], ys.T)
        assert not np.any(_invalid_mask(ys[:, ~clip]))
        modified += np.count_nonzero(mod)
        clipped += np.count_nonzero(clip)
        violations += np.count_nonzero(_invalid_mask(ys, TOL_SUM))
    assert k == 40
    assert (traj.violation_count, traj.modified_steps, traj.clipped_steps) == (
        violations, modified, clipped)
    assert (clipped > 0) == clips and modified > 0


def _read_only_outputs(proc):
    """A copy of proc whose drift and noise-factor closures return read-only
    arrays."""
    def freeze(fn):
        def call(y):
            out = fn(y)
            for a in out if isinstance(out, tuple) else (out,):
                a.setflags(write=False)
            return out
        return call
    names = ("drift", _noise_factor_name(proc))
    return dataclasses.replace(proc, **{n: freeze(getattr(proc, n)) for n in names})


@pytest.mark.parametrize("form", ["diagonal", "factor", "eigh", "nested"])
def test_read_only_closure_outputs(form):
    """Closures may return read-only or cached arrays: the step writes only
    to arrays it allocated, and its states keep every bit."""
    proc = _factor_forms()[form]
    ens = Ensemble.from_uniform(3, 300, np.random.default_rng(51))
    cfg = IntegratorConfig(dt=0.05, max_resample=1)
    runs = [simulate(p, ens, cfg, t_end=1.0, record_every=20,
                     rng=RandomSource(52, 0), dump_every=20)
            for p in (proc, _read_only_outputs(proc))]
    assert runs[1].modified_steps > 0 and runs[1].clipped_steps > 0
    for t, states in runs[0].dumps.items():
        assert runs[1].dumps[t].tobytes() == states.tobytes()


def _stepping_families():
    """The four acceptance families and their start points."""
    base = dict(b=np.array([4.0, 4.0]), S=np.array([0.5, 0.5]),
                kappa=np.array([1.0, 1.0]))
    return {
        "beta": (beta_process(b=2.0, S=0.5, kappa=1.0), [0.9, 0.1]),
        "wright_fisher": (wright_fisher_process(np.ones(3)),
                          [1 / 3, 1 / 3, 1 / 3]),
        "dirichlet": (dirichlet_process(dirichlet_invariant=True, **base),
                      [0.3, 0.3, 0.4]),
        "gen_dirichlet": (gen_dirichlet_process(c="reduction", **base),
                          [0.3, 0.3, 0.4]),
    }


#: sha256 of the final full states, (M, N) in C order, of each family at
#: M = 2,000, dt = 1e-3, 200 steps, Philox seed 1.  A change to the random
#: draws, their mapping to particles or the step's arithmetic moves these;
#: such a change must update them and say so.
FINAL_STATE_SHA256 = {
    "beta": "bbb616302eec170c9cd086452613a3e326cde831a4fc3e6687b28497bb606deb",
    "wright_fisher": "12d3c6a4e975774995cfcdac5cabdd50bf2261ac5cffeb4bb4c14a2d6817fcae",
    "dirichlet": "f19834a4fcc7b7bd3a0b9e48e4e39b545ca25204e858fda2ea1bcaf87e6f85df",
    "gen_dirichlet": "87dca128aefb9bb270d835bc277da5262e0a39a170a95fcc193afb5b902dbd05",
}


@pytest.mark.parametrize("family", sorted(FINAL_STATE_SHA256))
def test_final_states_pinned(family):
    """A guard against silent re-rolls of every statistical test."""
    proc, point = _stepping_families()[family]
    traj = simulate(proc, Ensemble.from_delta(make_state(point), 2000),
                    IntegratorConfig(dt=1e-3), t_end=0.2, record_every=200,
                    rng=RandomSource(1, 0), dump_every=200)
    final = traj.dumps[max(traj.dumps)]
    assert final.shape == (2000, proc.dimension)
    assert hashlib.sha256(final.tobytes()).hexdigest() == FINAL_STATE_SHA256[family]


def _draw_ahead(monkeypatch, on, least=0):
    """simulate's helper thread on (two CPUs) or off (one CPU), for steps
    of at least `least` normals."""
    monkeypatch.setattr(integrator, "_cpus", lambda: 2 if on else 1)
    monkeypatch.setattr(integrator, "DRAW_AHEAD_MIN", least)


def _state(rng):
    """The generator's state, comparable with ==."""
    return json.dumps(rng.generator.bit_generator.state, sort_keys=True,
                      default=lambda a: a.tolist())


#: (m, K) draws from 100-value blocks, K dividing the block size and each
#: draw starting at a multiple of its K, as simulate's draws of one K do:
#: draws inside a block, draws that straddle a block edge, one that ends
#: on one, draws larger than a block and one larger than the ring
_AHEAD_DRAWS = [(30, 1), (20, 2), (40, 2), (70, 2), (60, 2), (3, 2), (16, 4),
                (4, 5), (125, 2), (17, 1)]


def test_drawn_ahead_normals_are_the_direct_stream():
    """The helper's ring hands out the direct draws, however they are split
    across its blocks, each in a new column-major array, so its (K, m)
    transpose needs no copy.  Closing rewinds the generator to where the
    direct draws leave it."""
    direct, rng = RandomSource(7, 0), RandomSource(7, 0)
    ahead = _DrawAhead(rng, 100)
    try:
        for shape in _AHEAD_DRAWS:
            xi = rng.normals(shape)
            npt.assert_array_equal(xi, direct.normals(shape))
            assert not np.shares_memory(xi, ahead.ring)
            assert xi.T.flags.c_contiguous
    finally:
        ahead.close()
    assert rng._ahead is None
    assert _state(rng) == _state(direct)
    npt.assert_array_equal(rng.normals(5), direct.normals(5))


def test_direct_normals_fill_the_transposed_layout():
    """A direct draw, DRAW_CHUNK leading rows (particles) at a time, is the
    generator's own stream in a column-major array, so the (K, m) transpose
    of an (m, K) draw is C-ordered and _normals copies nothing."""
    rng, raw = RandomSource(9, 0), RandomSource(9, 0)
    for shape in [(1, 3), (integrator.DRAW_CHUNK, 2),
                  (2 * integrator.DRAW_CHUNK + 5, 7), 4, (3000,), (2, 3, 2)]:
        xi = rng.normals(shape)
        npt.assert_array_equal(xi, raw.generator.standard_normal(shape))
        assert xi.T.flags.c_contiguous
    assert _state(rng) == _state(raw)


def test_draw_ahead_under_thread_switching():
    """Four sources drawn ahead at once, eight threads on however many CPUs,
    switching every microsecond: each hands out its direct stream, split at
    random, and rewinds to where the direct draws leave it."""
    def run(seed, results):
        sizes = np.random.default_rng(seed).integers(1, 120, 300)
        rng, direct = RandomSource(seed, 0), RandomSource(seed, 0)
        ahead = _DrawAhead(rng, 64)
        try:
            got = [rng.normals((n, 2)) for n in sizes]
        finally:
            ahead.close()
        want = [direct.normals((n, 2)) for n in sizes]
        results[seed] = (all(map(np.array_equal, got, want))
                         and _state(rng) == _state(direct))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = {}
        workers = [threading.Thread(target=run, args=(seed, results))
                   for seed in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert results == dict.fromkeys(range(4), True)


def _resampled_run(proc, rng, t_end=0.2):
    """A 300-particle run with resample rounds, dumping its states."""
    ens = Ensemble.from_uniform(3, 300, np.random.default_rng(60))
    return simulate(proc, ens, IntegratorConfig(dt=0.02), t_end=t_end,
                    record_every=5, rng=rng, dump_every=5)


def _poisoned(proc, first):
    """proc with a non-finite drift for particle 3 from its `first` call on;
    in _resampled_run the snapshot at t = 0 is call 1 and step k is call
    k + 1 up to the snapshot after step 5."""
    calls = itertools.count(1)

    def drift(y):
        a = np.array(proc.drift(y))
        if next(calls) >= first:
            a[0, 3] = np.nan
        return a
    return dataclasses.replace(proc, drift=drift)


@pytest.mark.parametrize("case", ["returns", "raises", "twice"])
def test_draw_ahead_rewinds_to_the_direct_stream(monkeypatch, case):
    """After simulate returns, raises DegenerateState, or runs twice on one
    RandomSource, the generator state, the next draws and the trajectories
    equal those of the direct path."""
    proc = _factor_forms()["factor"]
    results = []
    for on in (False, True):
        _draw_ahead(monkeypatch, on)
        rng = RandomSource(61, 0)
        if case == "raises":
            with pytest.raises(DegenerateState,
                               match=r"^step 7 at t=0.12: .*particle 3\b"):
                _resampled_run(_poisoned(proc, 9), rng)
            dumps = []
        else:
            runs = [_resampled_run(proc, rng)
                    for _ in range(2 if case == "twice" else 1)]
            assert all(r.modified_steps > 0 for r in runs)
            dumps = [{t: s.tobytes() for t, s in r.dumps.items()} for r in runs]
        results.append((dumps, _state(rng), rng.normals(5).tobytes()))
    assert results[0] == results[1]


def test_no_helper_thread_outlives_simulate(monkeypatch):
    """Twenty runs, one of which raises, leave the thread count as it was."""
    _draw_ahead(monkeypatch, True)
    proc = _factor_forms()["factor"]
    before = threading.active_count()
    for i in range(20):
        if i == 7:
            with pytest.raises(DegenerateState, match=r"^step 3 at t=0.04: "):
                _resampled_run(_poisoned(proc, 4), RandomSource(i, 0))
        else:
            _resampled_run(proc, RandomSource(i, 0), t_end=0.04)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus,least,helpers", [
    (2, 0, 1), (2, integrator.DRAW_AHEAD_MIN, 0), (1, 0, 0)])
def test_helper_runs_only_on_two_cpus_above_the_threshold(monkeypatch, cpus,
                                                          least, helpers):
    """A drift closure sees the helper thread only when the process may use
    two CPUs and a step draws at least DRAW_AHEAD_MIN normals (600 here)."""
    monkeypatch.setattr(integrator, "_cpus", lambda: cpus)
    monkeypatch.setattr(integrator, "DRAW_AHEAD_MIN", least)
    proc = _factor_forms()["factor"]
    seen = set()

    def drift(y):
        seen.add(threading.active_count())
        return proc.drift(y)
    before = threading.active_count()
    _resampled_run(dataclasses.replace(proc, drift=drift), RandomSource(5, 0))
    assert seen == {before + helpers}


def test_helper_that_cannot_start_leaves_the_direct_stream(monkeypatch):
    """A helper thread that fails to start fails simulate, and the source
    still draws its direct stream afterwards."""
    _draw_ahead(monkeypatch, True)

    def start(self):
        raise RuntimeError("can't start new thread")
    monkeypatch.setattr(threading.Thread, "start", start)
    rng = RandomSource(8, 0)
    with pytest.raises(RuntimeError, match="start new thread"):
        _resampled_run(_factor_forms()["factor"], rng)
    assert rng._ahead is None
    npt.assert_array_equal(rng.normals(5), RandomSource(8, 0).normals(5))


class _FailingGenerator:
    """Fills `good` blocks from a real generator, then raises."""

    def __init__(self, generator, good):
        self.generator, self.good = generator, good
        self.bit_generator = generator.bit_generator

    def standard_normal(self, size=None, out=None):
        if out is not None:
            if not self.good:
                raise RuntimeError("fill failed")
            self.good -= 1
        return self.generator.standard_normal(size, out=out)


@pytest.mark.parametrize("good", [0, 3])
def test_failed_fill_raises_in_simulate(monkeypatch, good):
    """A block fill that raises ends simulate with that error, not a hang."""
    _draw_ahead(monkeypatch, True)
    rng = RandomSource(3, 0)
    rng.generator = _FailingGenerator(rng.generator, good)
    errors = []

    def run():
        try:
            _resampled_run(_factor_forms()["factor"], rng)
        except RuntimeError as exc:
            errors.append(str(exc))
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert errors == ["fill failed"]


@pytest.mark.parametrize("closure", ["drift", "diffusion_diag"])
def test_raising_closure_is_a_degenerate_state(closure):
    """A drift or noise factor that raises at a simulated state stops the
    step with DegenerateState, and the run names the step and its time."""
    def booming(passes):
        """The zero process with `closure` raising after `passes` calls."""
        calls = itertools.count(1)

        def boom(y):
            if next(calls) > passes:
                raise RuntimeError("boom")
            return np.zeros_like(y)
        return dataclasses.replace(constant_process([0.0, 0.0]), **{closure: boom})

    ys = np.full((2, 4), 0.25)
    with pytest.raises(DegenerateState, match=r"^evaluation failed: boom"):
        _advance(booming(0), ys, IntegratorConfig(dt=1e-2), RandomSource(0, 0))
    ens = Ensemble.from_delta(make_state([0.25, 0.25, 0.5]), 4)
    # the snapshot at t = 0 and the first step pass
    with pytest.raises(DegenerateState,
                       match=r"^step 2 at t=0.01: evaluation failed: boom"):
        simulate(booming(2), ens, IntegratorConfig(dt=1e-2), t_end=0.03,
                 record_every=3, rng=RandomSource(0, 0))


@pytest.mark.parametrize("passes,t", [(0, "0.0"), (2, "0.01")])
def test_raising_snapshot_is_a_degenerate_state(passes, t):
    """A drift that raises a foreign error at a recorded state stops the run
    with DegenerateState naming the snapshot's time, as a failing step
    names its own: on its first call (the snapshot at t = 0), or after the
    snapshot at t = 0 and the first step passed (the snapshot after it)."""
    calls = itertools.count(1)

    def boom(y):
        if next(calls) > passes:
            raise RuntimeError("boom")
        return np.zeros_like(y)

    proc = dataclasses.replace(constant_process([0.0, 0.0]), drift=boom)
    ens = Ensemble.from_delta(make_state([0.25, 0.25, 0.5]), 4)
    with pytest.raises(DegenerateState,
                       match=rf"^snapshot at t={t}: evaluation failed: boom$"):
        simulate(proc, ens, IntegratorConfig(dt=1e-2), t_end=0.03,
                 record_every=1, rng=RandomSource(0, 0))
