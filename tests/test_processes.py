import numpy as np
import numpy.testing as npt
import pytest

from simplexdiff import (DirichletConstraintViolated, InvalidParameter,
                         SingularNesting, beta_process, broken_process,
                         dirichlet_process, gen_dirichlet_process,
                         reduction_coupling, wright_fisher_process)
from simplexdiff.core import face_points
from simplexdiff.processes import _gen_dirichlet_terms


def test_beta_substitution():
    p = beta_process(b=2.0, S=0.5, kappa=1.0)
    y = np.array([[0.0, 1.0, 0.5]])
    npt.assert_allclose(p.drift(y), [[0.5, -0.5, 0.0]])
    assert p.diffusion is None
    npt.assert_allclose(p.diffusion_diag(y), [[0.0, 0.0, 0.25]])


def test_beta_drift_affine_diffusion_quadratic():
    p = beta_process(b=3.0, S=0.3, kappa=2.0)
    y = np.linspace(0.0, 1.0, 11)[None, :]
    a = p.drift(y)[0]
    # affine: second differences vanish
    npt.assert_allclose(np.diff(a, 2), 0.0, atol=1e-14)
    d = p.diffusion_diag(y)[0]
    assert d[0] == 0.0 and d[-1] == 0.0
    assert np.all(d[1:-1] > 0.0)
    npt.assert_allclose(p.diffusion_diag(np.array([[0.5]]))[0, 0], 2.0 / 4)


def test_beta_param_validation():
    with pytest.raises(InvalidParameter):
        beta_process(b=-1.0, S=0.5, kappa=1.0)
    with pytest.raises(InvalidParameter):
        beta_process(b=1.0, S=1.5, kappa=1.0)
    # S is one number by the core rule: a string or a list raised a bare
    # TypeError, and a one-entry array gave a (2, 1) invariant law
    for bad in ({"b": np.inf}, {"kappa": np.inf}, {"S": np.nan}, {"S": "0.5"},
                {"S": [0.5]}, {"S": np.array([0.5])}):
        with pytest.raises(InvalidParameter) as err:
            beta_process(**dict({"b": 1.0, "S": 0.5, "kappa": 1.0}, **bad))
        assert err.value.field == next(iter(bad))
    for S in (0, 1.0):  # the closed ends build
        assert beta_process(b=2.0, S=S, kappa=1.0).invariant_dirichlet.shape == (2,)


def test_vector_params_must_be_finite():
    rates = {"b": [2.0, 2.0], "S": [0.5, 0.5], "kappa": [1.0, 1.0]}
    with pytest.raises(InvalidParameter):
        wright_fisher_process([1.0, np.nan, 1.0])
    for key, bad in (("b", [np.inf, 2.0]), ("S", [0.5, np.nan]),
                     ("kappa", [1.0, np.inf])):
        for build in (dirichlet_process, gen_dirichlet_process):
            with pytest.raises(InvalidParameter):
                build(**dict(rates, **{key: bad}))


def test_wright_fisher_centroid():
    p = wright_fisher_process(np.ones(3))
    y = np.array([1 / 3, 1 / 3])
    npt.assert_allclose(p.drift(y), [0.0, 0.0], atol=1e-15)
    npt.assert_allclose(p.diffusion(y),
                        [[2 / 9, -1 / 9], [-1 / 9, 2 / 9]], atol=1e-15)


def test_wright_fisher_zero_face_row():
    p = wright_fisher_process(np.ones(3))
    y = np.array([0.0, 0.5])
    assert p.drift(y)[0] == 0.5
    B = p.diffusion(y)
    assert B[0, 0] == 0.0 and B[0, 1] == 0.0


def test_wright_fisher_unitsum_face_matrix():
    p = wright_fisher_process(np.ones(3))
    B = p.diffusion(np.array([0.5, 0.5]))
    npt.assert_allclose(B, [[0.25, -0.25], [-0.25, 0.25]])
    # singular along the face normal
    npt.assert_allclose(B @ np.ones(2), 0.0, atol=1e-15)


def test_wright_fisher_psd_interior():
    p = wright_fisher_process(np.array([0.5, 1.5, 2.0, 1.0]))
    rng = np.random.default_rng(2)
    y = rng.dirichlet(np.ones(4), size=500)[:, :3]
    B = p.diffusion(y.T)
    w = np.linalg.eigvalsh(np.moveaxis(B, -1, 0))
    assert w.min() >= -1e-12


def test_wright_fisher_factor_roundtrip():
    """L = diag(r) - w r^T rebuilt from (r, w) satisfies L L^T = diffusion,
    inside and on every face of the simplex, at N = 2, 3, 8 and 13."""
    rng = np.random.default_rng(3)
    for n in (2, 3, 8, 13):
        k = n - 1
        p = wright_fisher_process(np.ones(n))
        y = np.concatenate(
            [rng.dirichlet(np.ones(n), size=200)[:, :k]]
            + [face_points(f, k, 50, rng) for f in range(n)]
            + [np.eye(k), np.zeros((1, k))]).T
        r, w = p.diffusion_factor(y)
        L = -w[:, np.newaxis] * r[np.newaxis]
        L[np.arange(k), np.arange(k)] += r
        npt.assert_allclose(np.einsum("ikm,jkm->ijm", L, L),
                            p.diffusion(y), rtol=0, atol=1e-15)


def test_dirichlet_substitution():
    p = dirichlet_process(b=np.array([2.0, 2.0]),
                          S=np.array([0.5, 0.5]),
                          kappa=np.array([1.0, 1.0]))
    y = np.array([0.25, 0.25])
    npt.assert_allclose(p.drift(y), [0.125, 0.125])
    npt.assert_allclose(p.diffusion_diag(y), [0.125, 0.125])


def test_dirichlet_boundary_values():
    p = dirichlet_process(b=np.array([2.0, 2.0]),
                          S=np.array([0.5, 0.5]),
                          kappa=np.array([1.0, 1.0]))
    a = p.drift(np.array([0.0, 0.5]))
    assert a[0] >= 0.0
    assert p.diffusion_diag(np.array([0.0, 0.5]))[0] == 0.0
    a = p.drift(np.array([0.5, 0.5]))
    assert np.all(a <= 0.0)
    npt.assert_array_equal(p.diffusion_diag(np.array([0.5, 0.5])), [0.0, 0.0])


def test_dirichlet_invariant_flag():
    """dirichlet_invariant and c="reduction" both refuse a varying ratio;
    the reduction coupling given as a matrix is taken as it is."""
    # (1-S) b / kappa = (1.0, 1.2): not constant
    varying = {"b": np.array([2.0, 2.0]), "S": np.array([0.5, 0.4]),
               "kappa": np.array([1.0, 1.0])}
    with pytest.raises(DirichletConstraintViolated):
        dirichlet_process(**varying, dirichlet_invariant=True)
    with pytest.raises(DirichletConstraintViolated):
        gen_dirichlet_process(**varying, c="reduction")
    gen_dirichlet_process(**varying, c=reduction_coupling(varying["kappa"]))
    dirichlet_process(b=np.array([2.0, 2.0]), S=np.array([0.5, 0.5]),
                      kappa=np.array([1.0, 1.0]), dirichlet_invariant=True)


def test_gen_dirichlet_oracle_point():
    """Values frozen from an independent symbolic substitution."""
    p = gen_dirichlet_process(
        b=np.array([2.0, 2.0]), S=np.array([0.5, 0.5]),
        kappa=np.array([1.0, 1.0]), c=np.array([[1.0]]))
    y = np.array([0.25, 0.25])
    npt.assert_allclose(p.drift(y), [5.0 / 18.0, 1.0 / 8.0], rtol=1e-13)
    npt.assert_allclose(p.diffusion_diag(y), [1.0 / 6.0, 1.0 / 8.0], rtol=1e-13)


def test_gen_dirichlet_k1_equals_beta():
    gp = gen_dirichlet_process(
        b=np.array([2.0]), S=np.array([0.4]), kappa=np.array([1.5]))
    bp = beta_process(b=2.0, S=0.4, kappa=1.5)
    y = np.linspace(0.01, 0.99, 23)[None, :]
    npt.assert_allclose(gp.drift(y), bp.drift(y), rtol=1e-14)
    npt.assert_allclose(gp.diffusion_diag(y), bp.diffusion_diag(y), rtol=1e-14)


def _reference_nested_drift(p, y):
    """The nested drift with the per-(a, beta) double loop it replaced."""
    b, S = p["b"][:, None], p["S"][:, None]
    k = y.shape[0]
    cy, cy_last, u = _gen_dirichlet_terms(y)
    csum = np.zeros(y.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(k - 1):
            for beta in range(a, k - 1):
                num = y[a] * cy_last * p["c"][a, beta]
                csum[a] += np.where(num == 0.0, 0.0, num / cy[beta])
    bracket = b * (S * cy_last - (1.0 - S) * y) + csum
    return np.where(bracket == 0.0, 0.0, 0.5 * u * bracket)


@pytest.mark.parametrize("n", [3, 8, 12])
def test_gen_dirichlet_drift_matches_double_loop(n):
    """The broadcast coupling sum is the double loop bit for bit, on
    interior and face states, for the reduction and a random coupling, and
    for a single state (K, 1), whose sum must stay in order of beta too."""
    rng = np.random.default_rng(37)
    k = n - 1
    base = {"b": np.full(k, 4.0), "S": np.full(k, 0.5),
            "kappa": np.linspace(1.0, 2.0, k)}
    pts = [rng.dirichlet(np.ones(n), size=2000)[:, :-1]]
    pts += [face_points(f, k, 200, rng) for f in range(n)]
    y = np.ascontiguousarray(np.concatenate(pts).T)
    couplings = {"reduction": dict(base, c=reduction_coupling(base["kappa"])),
                 "random": dict(base, c=np.triu(rng.normal(size=(k - 1, k - 1))))}
    for name, params in couplings.items():
        for states in (y, y[:, :1].copy()):
            got = gen_dirichlet_process(**params).drift(states)
            ref = _reference_nested_drift(params, states)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), name


@pytest.mark.filterwarnings("error")
def test_gen_dirichlet_zero_intermediate_remainder():
    """At N = 4 states whose first nesting remainder is positive and whose
    second is exactly zero, the nested drift raises SingularNesting, alone
    and in a batch, and the diffusion degenerates to exact zeros, for the
    reduction and a random coupling, with no warning."""
    rng = np.random.default_rng(41)
    base = {"b": np.full(3, 4.0), "S": np.full(3, 0.5),
            "kappa": np.array([1.0, 1.5, 2.0])}
    couplings = [reduction_coupling(base["kappa"]), np.triu(rng.normal(size=(2, 2)))]
    y = np.array([[0.5, 0.0], [0.5, 1.0], [0.0, 0.0]])  # (K, M): two states
    for c in couplings:
        proc = gen_dirichlet_process(**base, c=c)
        for states in (y, y[:, 0].copy(), y[:, 1].copy()):
            with pytest.raises(SingularNesting, match="drift is undefined"):
                proc.drift(states)
            d = proc.diffusion_diag(states)
            assert d.shape == states.shape
            assert np.all(d == 0.0) and not np.any(np.signbit(d))


def test_gen_dirichlet_triangularity_enforced():
    with pytest.raises(InvalidParameter):
        gen_dirichlet_process(b=np.ones(3), S=np.full(3, 0.5), kappa=np.ones(3),
                              c=np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(InvalidParameter):
        gen_dirichlet_process(b=np.ones(3), S=np.full(3, 0.5), kappa=np.ones(3),
                              c=np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_gen_dirichlet_reduction_params():
    npt.assert_array_equal(reduction_coupling(np.array([1.0, 2.0, 3.0])),
                           [[1.0, 1.0], [0.0, 2.0]])


def test_broken_processes():
    cd = broken_process("constant_diffusion")
    y = np.array([0.0, 0.5])
    npt.assert_array_equal(cd.diffusion_diag(y), [0.1, 0.1])
    od = broken_process("outward_drift")
    npt.assert_array_equal(od.drift(y), [-1.0, -1.0])
    with pytest.raises(InvalidParameter):
        broken_process("nonsense")


_RATES = {"b": [2.0, 2.0], "S": [0.5, 0.5], "kappa": [1.0, 1.0]}


@pytest.mark.parametrize("field,params", [
    ("b", dict(_RATES, b=[[2.0, 2.0]])),
    ("S", dict(_RATES, S=[0.5])),
    ("kappa", dict(_RATES, kappa=[1.0, 1.0, 1.0])),
    ("b", dict(_RATES, b=[2.0, 0.0])),
    ("kappa", dict(_RATES, kappa=[-1.0, 1.0])),
    ("S", dict(_RATES, S=[0.5, 1.0])),
    ("S", dict(_RATES, S=[0.0, 0.5])),
    ("b", dict(_RATES, b=[True, 2.0])),
    ("kappa", dict(_RATES, kappa=np.array([True, True]))),
])
def test_rate_vectors_refused_by_name(field, params):
    """The Dirichlet families' shape, length, range and bool checks name
    the vector that failed."""
    for make in (dirichlet_process, gen_dirichlet_process):
        with pytest.raises(InvalidParameter) as err:
            make(**params)
        assert err.value.field == field


@pytest.mark.parametrize("field,make", [
    ("b", lambda: beta_process(b=True, S=0.5, kappa=1.0)),
    ("S", lambda: beta_process(b=2.0, S=True, kappa=1.0)),
    ("kappa", lambda: beta_process(b=2.0, S=0.5, kappa=np.True_)),
    ("omega", lambda: wright_fisher_process([True, 1.0, 1.0])),
    # and a flag is a bool: "false" counted as true, [0] was accepted
    ("dirichlet_invariant", lambda: dirichlet_process(
        b=[4.0, 2.0], S=[0.5, 0.5], kappa=[1.0, 1.0], dirichlet_invariant="false")),
    ("dirichlet_invariant", lambda: dirichlet_process(
        b=[2.0, 2.0], S=[0.5, 0.5], kappa=[1.0, 1.0], dirichlet_invariant=[0])),
])
def test_bools_are_not_parameters(field, make):
    with pytest.raises(InvalidParameter) as err:
        make()
    assert err.value.field == field


@pytest.mark.filterwarnings("error")
def test_gen_dirichlet_diffusion_undefined_past_the_unit_sum_face():
    """One ulp past the unit-sum face at N = 4, the second nesting
    remainder is exactly zero while the last is not: the diffusion's
    numerator is non-zero against an infinite prefactor, and it raises."""
    proc = gen_dirichlet_process(b=np.full(3, 4.0), S=np.full(3, 0.5),
                                 kappa=np.ones(3), c="reduction")
    y = np.array([[0.25], [0.75], [2.0 ** -52]])
    cy, cy_last, _ = _gen_dirichlet_terms(y)
    assert cy[1, 0] == 0.0 and cy_last[0] != 0.0
    with pytest.raises(SingularNesting, match="diffusion is undefined"):
        proc.diffusion_diag(y)
