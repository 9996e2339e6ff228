import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexdiff import (BoundaryFace, DirichletParams, Ensemble,
                         NegativeComponent, ProcessDefinition, ReducedState,
                         SumViolation, boundary_distance, complete_reduced,
                         dirichlet_process, enumerate_faces, make_state,
                         sample_face)


def test_make_state_exact_sum():
    s = make_state([0.2, 0.3, 0.5])
    npt.assert_array_equal(s.fractions, [0.2, 0.3, 0.5])
    assert s.n == 3


def test_make_state_vertex():
    s = make_state([1.0, 0.0, 0.0])
    npt.assert_array_equal(s.fractions, [1.0, 0.0, 0.0])


def test_make_state_negative_component():
    with pytest.raises(NegativeComponent):
        make_state([0.5, 0.6, -0.1])


def test_make_state_sum_violation():
    with pytest.raises(SumViolation):
        make_state([0.5, 0.6])


def test_make_state_renormalizes_and_preserves_zeros():
    eps = 3e-13
    s = make_state([0.4 + eps, 0.0, 0.6])
    assert s.fractions.sum() == 1.0
    assert s.fractions[1] == 0.0


def test_complete_reduced_examples():
    npt.assert_array_equal(
        complete_reduced(ReducedState(np.array([0.25, 0.25]))).fractions,
        [0.25, 0.25, 0.5])
    npt.assert_array_equal(
        complete_reduced(ReducedState(np.array([0.0]))).fractions, [0.0, 1.0])
    with pytest.raises(SumViolation):
        complete_reduced(ReducedState(np.array([0.7, 0.5])))


def test_complete_reduced_roundtrip():
    s = make_state([0.1, 0.2, 0.7])
    npt.assert_allclose(complete_reduced(s.reduced()).fractions, s.fractions,
                        atol=1e-15)


def test_boundary_distance_examples():
    # interior centroid: nearest face is the unit-sum hyperplane
    d = boundary_distance(ReducedState(np.array([1 / 3, 1 / 3])))
    npt.assert_allclose(d, 1.0 / (3.0 * np.sqrt(2.0)), rtol=1e-14)
    assert boundary_distance(ReducedState(np.array([0.0]))) == 0.0
    assert boundary_distance(ReducedState(np.array([0.5, 0.5]))) == 0.0


def test_boundary_distance_brute_force():
    """Compare with direct minimization over dense samples of each face."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = rng.dirichlet([1.0, 1.0, 1.0])[:2]
        d = boundary_distance(ReducedState(y))
        # distances to the three faces of the reduced triangle
        direct = min(y[0], y[1], (1.0 - y.sum()) / np.sqrt(2.0))
        npt.assert_allclose(d, direct, atol=1e-14)


def test_enumerate_faces():
    faces = enumerate_faces(3)
    assert [f.kind for f in faces] == ["zero", "zero", "unitsum"]
    assert faces[0].label() == "zero-face-1"
    assert faces[2].label() == "unit-sum-face"


def test_sample_face_on_face():
    rng = np.random.default_rng(0)
    for face in enumerate_faces(3):
        for _ in range(50):
            s = sample_face(face, rng, 2)
            assert boundary_distance(s) <= 1e-14
            if face.kind == "zero":
                assert s.fractions[face.alpha] == 0.0
                assert boundary_distance(s) == 0.0


def test_sample_face_n2_zero_is_deterministic():
    rng = np.random.default_rng(0)
    s = sample_face(BoundaryFace("zero", 0), rng, 1)
    npt.assert_array_equal(s.fractions, [0.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6))
def test_make_state_fuzz(raw):
    v = np.array(raw)
    total = v.sum()
    if total <= 0:
        return
    v = v / total
    s = make_state(v)
    assert np.all(s.fractions >= 0.0)
    assert np.all(s.fractions <= 1.0)
    # exact up to one ulp of the final pairwise summation
    assert abs(s.fractions.sum() - 1.0) <= np.finfo(float).eps


def test_ensemble_constructors():
    ens = Ensemble.from_delta(make_state([0.9, 0.1]), 5)
    assert ens.size == 5 and ens.n == 2
    npt.assert_array_equal(ens.reduced, np.full((5, 1), 0.9))
    ens2 = Ensemble.from_uniform(3, 100, np.random.default_rng(1))
    assert ens2.states.shape == (100, 3)
    npt.assert_allclose(ens2.states.sum(axis=1), 1.0, atol=1e-12)


def test_process_definition_derives_diagonal_diffusion():
    """diffusion defaults to the diagonal matrices of diffusion_diag."""
    def drift(y, t):
        return -y

    def diag(y, t):
        return y * (1.0 - y)

    p = ProcessDefinition(dimension=3, drift=drift, name="diag",
                          diffusion_diag=diag)
    y = np.array([[0.2, 0.1, 0.0], [0.3, 0.6, 1.0]])
    B = p.diffusion(y, 0.0)
    assert B.shape == (2, 2, 3)
    npt.assert_array_equal(np.einsum("iim->im", B), diag(y, 0.0))
    npt.assert_array_equal(B[0, 1], 0.0)
    npt.assert_array_equal(B[1, 0], 0.0)
    npt.assert_array_equal(p.diffusion(y[:, 0], 0.0), np.diag(diag(y[:, 0], 0.0)))
    with pytest.raises(ValueError, match="needs diffusion"):
        ProcessDefinition(dimension=3, drift=drift, name="none")

    def matrix(y, t):
        return np.zeros((2,) + y.shape)

    assert dataclasses.replace(p, diffusion=matrix).diffusion is matrix
    # name precedes diffusion for positional callers
    assert ProcessDefinition(3, drift, "pos", matrix).diffusion is matrix


def test_replaced_diagonal_rebuilds_derived_diffusion():
    """A new diffusion_diag brings a new derived matrix; a diffusion passed
    in is kept, and dropping the diagonal keeps the last derived matrix."""
    p = dirichlet_process(DirichletParams(b=[2.0, 2.0], S=[0.5, 0.5],
                                          kappa=[1.0, 1.0]))
    y = np.array([0.2, 0.3])

    def doubled(y, t):
        return 2.0 * p.diffusion_diag(y, t)

    q = dataclasses.replace(p, diffusion_diag=doubled)
    npt.assert_array_equal(q.diffusion_diag(y, 0.0), [0.2, 0.3])
    npt.assert_array_equal(q.diffusion(y, 0.0), np.diag([0.2, 0.3]))
    npt.assert_array_equal(dataclasses.replace(q, diffusion_diag=None)
                           .diffusion(y, 0.0), np.diag([0.2, 0.3]))

    def matrix(y, t):
        return np.zeros((2,) + y.shape)

    r = dataclasses.replace(q, diffusion=matrix)
    assert r.diffusion is matrix
    assert dataclasses.replace(r, diffusion_diag=p.diffusion_diag).diffusion is matrix
