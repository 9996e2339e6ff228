import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexdiff import (Ensemble, IntegratorConfig, InvalidParameter,
                         NegativeComponent, ProcessDefinition, RandomSource,
                         SumViolation, ToleranceSet, audit_boundary,
                         batch_statistics, beta_process, broken_process,
                         cross_validate_rates, dirichlet_process,
                         gen_dirichlet_process, make_state, simulate,
                         wright_fisher_process)
from simplexdiff.core import face_label, face_points


def boundary_distance(y):
    """Euclidean distance from a reduced state to the nearest face: Y_alpha
    to the zero face alpha, (1 - sum Y) / sqrt(K) to the unit-sum face."""
    return max(min(np.min(y), (1.0 - np.sum(y)) / np.sqrt(len(y))), 0.0)


def test_make_state_exact_sum():
    s = make_state([0.2, 0.3, 0.5])
    npt.assert_array_equal(s, [0.2, 0.3, 0.5])
    assert s.shape == (3,) and not s.flags.writeable


def test_make_state_vertex():
    s = make_state([1.0, 0.0, 0.0])
    npt.assert_array_equal(s, [1.0, 0.0, 0.0])


def test_make_state_negative_component():
    with pytest.raises(NegativeComponent):
        make_state([0.5, 0.6, -0.1])


def test_make_state_sum_violation():
    # a NaN component fails both bound comparisons; it is refused, like an
    # infinite one
    for raw in ([0.5, 0.6], [np.nan, 1.0], [1.0, 0.0, np.nan], [np.inf, 0.0]):
        with pytest.raises(SumViolation):
            make_state(raw)


def test_make_state_renormalizes_and_preserves_zeros():
    eps = 3e-13
    s = make_state([0.4 + eps, 0.0, 0.6])
    assert s.sum() == 1.0
    assert s[1] == 0.0


def test_face_labels():
    """Faces 0..K-1 are the zero faces, face K the unit-sum face."""
    assert [face_label(f, 2) for f in range(3)] == [
        "zero-face-1", "zero-face-2", "unit-sum-face"]
    assert face_label(0, 7) == "zero-face-1"
    assert face_label(7, 7) == "unit-sum-face"


def test_sample_face_on_face():
    rng = np.random.default_rng(0)
    for face in range(3):
        for y in face_points(face, 2, 50, rng):
            assert boundary_distance(y) <= 1e-14
            if face < 2:
                assert y[face] == 0.0
                assert boundary_distance(y) == 0.0


def test_sample_face_n2_zero_is_deterministic():
    rng = np.random.default_rng(0)
    npt.assert_array_equal(face_points(0, 1, 1, rng), [[0.0]])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6))
def test_make_state_fuzz(raw):
    v = np.array(raw)
    total = v.sum()
    if total <= 0:
        return
    v = v / total
    s = make_state(v)
    assert np.all(s >= 0.0)
    assert np.all(s <= 1.0)
    # exact up to one ulp of the final pairwise summation
    assert abs(s.sum() - 1.0) <= np.finfo(float).eps


def test_ensemble_constructors():
    ens = Ensemble.from_delta(make_state([0.9, 0.1]), 5)
    assert ens.size == 5 and ens.n == 2
    npt.assert_array_equal(ens.reduced, np.full((5, 1), 0.9))
    ens2 = Ensemble.from_uniform(3, 100, np.random.default_rng(1))
    assert ens2.states.shape == (100, 3)
    npt.assert_allclose(ens2.states.sum(axis=1), 1.0, atol=1e-12)
    ens3 = Ensemble.from_states([make_state([0.2, 0.8]), make_state([1.0, 0.0])])
    npt.assert_array_equal(ens3.states, [[0.2, 0.8], [1.0, 0.0]])


@pytest.mark.parametrize("bad,error,message", [
    ([0.6, 0.5, -0.1], NegativeComponent, "particle 7: component 3 is -0.1"),
    ([0.2, 0.3, 0.9], SumViolation, "particle 7: components sum to 1.4"),
    ([0.2, np.nan, 0.8], SumViolation, "particle 7: component 2 is nan"),
    ([np.inf, 0.0, 0.0], SumViolation, "particle 7: component 1 is inf"),
    ([0.5, 0.5 + 2e-12, 0.0], SumViolation, "particle 7: components sum to"),
    ([0.5, 0.5 + 2e-12, -2e-12], NegativeComponent, "particle 7: component 3"),
], ids=["negative", "over-full", "nan", "inf", "sum-past-tol", "negative-past-tol"])
def test_ensemble_refuses_an_unrealizable_particle(bad, error, message):
    """make_state's rule holds for every particle of an Ensemble, which
    names the first that breaks it.  A state with a negative component or
    an over-full sum, tiled or among valid ones, was taken as given and
    stepped: [0.6, 0.5, -0.1] recorded a t = 0 mean summing to 1.1 with no
    violation counted, and [0.2, 0.3, 0.9] was stepped as [0.2, 0.3, 0.5]."""
    states = np.tile([0.2, 0.3, 0.5], (100, 1))
    states[7:] = bad
    with pytest.raises(error, match=re.escape(message)):
        Ensemble(states)
    with pytest.raises(error):
        Ensemble.from_delta(np.array(bad), 100)


def test_ensemble_keeps_the_bytes_of_valid_states():
    """The rule refuses and never repairs: the constructors keep every byte
    of their input, tiny negatives and sum drift within TOL_SUM included."""
    draws = np.random.default_rng(5).dirichlet(np.ones(9), 1000)
    npt.assert_array_equal(Ensemble.from_uniform(9, 1000, np.random.default_rng(5)).states,
                           draws)
    point = make_state([0.25, 0.25, 0.5])
    assert Ensemble.from_delta(point, 4).states.tobytes() == np.tile(point, (4, 1)).tobytes()
    edge = [np.array([0.5, 0.5 + 5e-13, -5e-13]), np.array([0.3, 0.7 + 5e-13, 0.0])]
    assert Ensemble.from_states(edge).states.tobytes() == np.stack(edge).tobytes()


def test_process_definition_takes_the_diffusion_as_given():
    """A process needs diffusion or diffusion_diag: a diagonal process's
    diffusion is None, dropping its diagonal is refused, and a given matrix
    is kept as it is, also by dataclasses.replace."""
    def drift(y):
        return -y

    with pytest.raises(InvalidParameter, match="needs diffusion") as err:
        ProcessDefinition(dimension=3, drift=drift, name="none")
    assert err.value.field == "diffusion"
    p = dirichlet_process(b=[2.0, 2.0], S=[0.5, 0.5], kappa=[1.0, 1.0])
    assert p.diffusion is None
    with pytest.raises(InvalidParameter, match="needs diffusion") as err:
        dataclasses.replace(p, diffusion_diag=None)
    assert err.value.field == "diffusion"

    def matrix(y):
        return np.zeros((2,) + y.shape)

    r = dataclasses.replace(p, diffusion=matrix)
    assert r.diffusion is matrix and r.diffusion_diag is p.diffusion_diag
    assert dataclasses.replace(r, diffusion_diag=None).diffusion is matrix
    # name precedes diffusion for positional callers
    assert ProcessDefinition(3, drift, "pos", matrix).diffusion is matrix


def test_process_dimension_is_a_count():
    """N is an integer >= 2 and not a bool, for every constructor: a k = 0
    negative control would otherwise pass its own audit."""
    def zero(y):
        return np.zeros_like(y)

    for bad in (1, 0, True, 3.0, "3", None):
        with pytest.raises(ValueError, match="dimension"):
            ProcessDefinition(dimension=bad, drift=zero, name="p",
                              diffusion_diag=zero)
        with pytest.raises(ValueError, match="dimension"):
            broken_process("outward_drift", n=bad)
    assert broken_process("outward_drift", n=np.int64(2)).k == 1


def test_make_state_refuses_bools():
    for bad in ([True, 0.0, 0.0], [1.0, False], np.array([True, False])):
        with pytest.raises(TypeError, match="bool"):
            make_state(bad)


def _small_trajectory():
    proc = beta_process(b=2.0, S=0.5, kappa=1.0)
    return simulate(proc, Ensemble.from_delta(make_state([0.9, 0.1]), 40),
                    IntegratorConfig(dt=0.01), t_end=0.03, record_every=1,
                    rng=RandomSource(0, 0))


@pytest.mark.parametrize("name,call", [
    ("tol_multiplier", lambda: cross_validate_rates(_small_trajectory(), np.nan)),
    ("tol_multiplier", lambda: cross_validate_rates(_small_trajectory(), np.inf)),
    ("tol_multiplier", lambda: cross_validate_rates(_small_trajectory(), True)),
    ("diffusion_zero_tol", lambda: ToleranceSet(diffusion_zero_tol=np.inf)),
    ("drift_sign_tol", lambda: ToleranceSet(drift_sign_tol=True)),
    ("moment_stat_tol", lambda: ToleranceSet(moment_stat_tol=np.nan)),
    ("moment_stat_tol", lambda: ToleranceSet(moment_stat_tol="3")),
    ("dt", lambda: IntegratorConfig(dt=True)),
    ("t_end", lambda: simulate(
        beta_process(b=2.0, S=0.5, kappa=1.0),
        Ensemble.from_delta(make_state([0.9, 0.1]), 4), IntegratorConfig(dt=0.01),
        t_end=True, record_every=1, rng=RandomSource(0, 0))),
    ("n_batches", lambda: batch_statistics(
        np.tile([0.5, 0.5], (10, 1)), beta_process(b=2.0, S=0.5, kappa=1.0),
        n_batches=0)),
    ("n_batches", lambda: batch_statistics(
        np.tile([0.5, 0.5], (10, 1)), beta_process(b=2.0, S=0.5, kappa=1.0),
        n_batches=2.0)),
    ("samples_per_face", lambda: audit_boundary(
        beta_process(b=2.0, S=0.5, kappa=1.0), 2.5, RandomSource(0, 1))),
    ("samples_per_face", lambda: audit_boundary(
        beta_process(b=2.0, S=0.5, kappa=1.0), True, RandomSource(0, 1))),
    # a process vector follows the same rule entry by entry
    ("b", lambda: dirichlet_process(b=[True, 2.0], S=[0.5, 0.5],
                                    kappa=[1.0, 1.0])),
    ("b", lambda: dirichlet_process(b=["1"], S=[0.5], kappa=[1.0])),
    ("omega", lambda: wright_fisher_process(["1", "1", "1"])),
    ("kappa", lambda: dirichlet_process(b=[2.0], S=[0.5], kappa=[np.nan])),
    ("b", lambda: gen_dirichlet_process(b=[10 ** 400], S=[0.5], kappa=[1.0])),
    ("b", lambda: dirichlet_process(b=np.full((2, 2), 2.0), S=[0.5, 0.5],
                                    kappa=[1.0, 1.0])),
    # a seed or stream id is an integer in [-2**63, 2**63): out of it, or
    # as a float or a bool, it aliased an in-range key (2**64 keyed seed 0)
    ("seed", lambda: RandomSource(2 ** 64)),
    ("seed", lambda: RandomSource(2 ** 63)),
    ("seed", lambda: RandomSource(-2 ** 63 - 1)),
    ("seed", lambda: RandomSource(1.9)),
    ("seed", lambda: RandomSource(True)),
    ("stream_id", lambda: RandomSource(0, 2 ** 64 - 1)),
    ("stream_id", lambda: RandomSource(0, np.True_)),
])
def test_numbers_and_counts_have_one_rule(name, call):
    """A tolerance, step, duration, multiplier or process rate is a finite
    number > 0, entry by entry for a vector, and a batch or sample count an
    integer >= 1, neither a bool nor a string: each refusal is the core
    rule's InvalidParameter (a ValueError) naming the input."""
    with pytest.raises(InvalidParameter, match=name):
        call()
