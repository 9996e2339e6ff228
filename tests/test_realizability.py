import dataclasses
import functools
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from simplexdiff import (DegenerateState, MomentSet, RandomSource,
                         SingularNesting, ToleranceSet, UnsupportedProcess,
                         analytic_stationary, audit_boundary,
                         audit_covariance_structure, audit_moment_bounds,
                         batch_statistics, beta_process, broken_process,
                         dirichlet_moments, dirichlet_process,
                         estimate_moments, gen_dirichlet_process,
                         wright_fisher_process)
from simplexdiff.core import ProcessDefinition, component_sum
from simplexdiff.realizability import polynomial_generator


def named_processes():
    return [
        beta_process(b=2.0, S=0.5, kappa=1.0),
        wright_fisher_process(np.array([1.0, 1.0, 1.0])),
        dirichlet_process(b=np.array([2.0, 2.0]),
                          S=np.array([0.5, 0.5]),
                          kappa=np.array([1.0, 1.0])),
        gen_dirichlet_process(
            b=np.array([2.0, 2.0]), S=np.array([0.5, 0.5]),
            kappa=np.array([1.0, 1.0]), c=np.array([[1.0]])),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_named_processes_pass(seed):
    for proc in named_processes():
        report = audit_boundary(proc, 300, RandomSource(seed, 1))
        assert report.overall_pass, f"{proc.name}: {report.table()}"


def test_constant_diffusion_fails_every_diffusion_check():
    proc = broken_process("constant_diffusion")
    report = audit_boundary(proc, 100, RandomSource(0, 1))
    assert not report.overall_pass
    diff_checks = [c for c in report.checks if "diffusion" in c.constraint]
    assert diff_checks
    for c in diff_checks:
        assert not c.passed
        assert c.violation >= 0.09


def test_outward_drift_fails_on_zero_faces():
    proc = broken_process("outward_drift")
    report = audit_boundary(proc, 100, RandomSource(0, 1))
    assert not report.overall_pass
    failed = [c for c in report.checks if not c.passed]
    assert all("drift" in c.constraint for c in failed)
    assert any(c.constraint.startswith("zero-face") for c in failed)


def test_audit_judges_the_diagonal_a_run_evaluates():
    """A realizable diffusion matrix beside a diagonal that is 0.1 on every
    face fails: every step and snapshot uses the diagonal, not the matrix."""
    dirichlet = dirichlet_process(b=[2.0, 2.0], S=[0.5, 0.5], kappa=[1.0, 1.0])
    matrix = dataclasses.replace(dirichlet, diffusion_diag=None,
                                 diffusion=wright_fisher_process(
                                     np.ones(3)).diffusion)
    assert audit_boundary(matrix, 100, RandomSource(0, 1)).overall_pass
    proc = dataclasses.replace(matrix,
                               diffusion_diag=lambda y: np.full(y.shape, 0.1))
    report = audit_boundary(proc, 100, RandomSource(0, 1))
    failed = {c.constraint for c in report.checks if not c.passed}
    assert failed == {c.constraint for c in report.checks
                      if "diffusion" in c.constraint}
    # a diagonal's row sums are its entries: one check judges both
    constraints = [c.constraint for c in report.checks]
    assert set(constraints) >= {"unit-sum-face:drift-componentwise",
                                "unit-sum-face:diffusion-row-sums"}
    assert "unit-sum-face:diffusion-entries" not in constraints


def test_worst_location_is_on_boundary():
    proc = broken_process("outward_drift")
    report = audit_boundary(proc, 100, RandomSource(4, 1))
    for c in report.checks:
        if not c.passed:
            y = np.asarray(c.location)
            # distance to the nearest zero face, and to the unit-sum face
            d = max(min(np.min(y), (1.0 - y.sum()) / np.sqrt(len(y))), 0.0)
            assert d <= 1e-14


def test_audit_determinism():
    proc = wright_fisher_process(np.array([1.0, 2.0, 3.0]))
    r1 = audit_boundary(proc, 200, RandomSource(6, 1))
    r2 = audit_boundary(proc, 200, RandomSource(6, 1))
    assert [c.violation for c in r1.checks] == [c.violation for c in r2.checks]


def test_evaluation_failure_wrapped():
    def bad(y):
        raise RuntimeError("boom")

    proc = ProcessDefinition(dimension=3, drift=bad, diffusion=bad, name="bad")
    with pytest.raises(DegenerateState,
                       match="^drift/diffusion raised on zero-face-1: boom$"):
        audit_boundary(proc, 10, RandomSource(0, 1))


def test_report_serialization():
    proc = beta_process(b=2.0, S=0.5, kappa=1.0)
    report = audit_boundary(proc, 50, RandomSource(0, 1))
    d = report.to_dict()
    assert d["overall_pass"] is True
    assert len(d["checks"]) == len(report.checks)
    assert "PASS" in report.table()


def test_moment_bounds_degenerate_pass():
    m = estimate_moments(np.tile([0.2, 0.3, 0.5], (10, 1)))
    assert audit_moment_bounds(m).overall_pass


def test_moment_bounds_two_point_pass():
    m = estimate_moments(np.array([[1.0, 0.0], [0.0, 1.0]]))
    npt.assert_allclose(np.diagonal(m.covariance), 0.25)
    assert audit_moment_bounds(m).overall_pass


def test_moment_bounds_out_of_range_mean_fails():
    m = estimate_moments(np.tile([0.2, 0.3, 0.5], (10, 1)))
    m.mean = np.array([1.2, 0.3, -0.5])
    report = audit_moment_bounds(m)
    assert not report.overall_pass
    failed = {c.constraint for c in report.checks if not c.passed}
    assert "means-in-[0,1]" in failed


def test_covariance_structure_valid_ensemble():
    rng = np.random.default_rng(21)
    states = rng.dirichlet([1.0, 2.0, 3.0], size=3000)
    m = estimate_moments(states)
    report = audit_covariance_structure(m)
    assert report.overall_pass
    # the identity is sample-wise, so the residual is roundoff, not noise
    assert max(c.violation for c in report.checks) <= 1e-12


def test_covariance_structure_judges_the_identities_exactly():
    """The identities hold state by state, so states that sum to
    1 + eps Y_1 fail down to eps = 1e-6 (row sums 2.0e-5 to 2.0e-8, which
    three standard errors let pass), and the recorded violation is the
    largest |row sum|."""
    states = np.random.default_rng(21).dirichlet([1.0, 2.0, 3.0], size=3000)
    for eps in (1e-3, 1e-4, 1e-6):
        m = estimate_moments(states * (1.0 + eps * states[:, :1]))
        assert not audit_covariance_structure(m).overall_pass, eps
    m = estimate_moments(states)
    rows = np.abs(m.covariance_row_sums())
    check = audit_covariance_structure(m).checks[0]
    assert check.constraint == "covariance-row-sums-zero"
    assert check.violation == np.max(rows)
    npt.assert_array_equal(check.location, [np.argmax(rows) + 1])


def test_covariance_structure_non_simplex_fails():
    rng = np.random.default_rng(22)
    states = rng.uniform(0.0, 1.0, size=(3000, 3))
    m = estimate_moments(states)
    report = audit_covariance_structure(m)
    assert not report.overall_pass


def test_stacked_moment_audits_match_each_snapshot():
    """Judged stacked, every snapshot gets the violation, location and pass
    that auditing it alone gives, bit for bit; so do the derived skewness
    and kurtosis, NaN where a variance is below the guard."""
    rng = np.random.default_rng(23)
    sets = [estimate_moments(rng.dirichlet([1.0, 2.0, 3.0], size=500))
            for _ in range(5)]
    sets += [estimate_moments(rng.uniform(0.0, 1.0, size=(500, 3))),
             estimate_moments(np.tile([0.2, 0.3, 0.5], (500, 1)))]
    sets[2].mean = np.array([1.2, 0.3, -0.5])
    stacked = MomentSet.stack(sets)
    for i, m in enumerate(sets):
        assert stacked.skewness[i].tobytes() == m.skewness.tobytes()
        assert stacked.kurtosis[i].tobytes() == m.kurtosis.tobytes()
    for audit in (audit_moment_bounds, audit_covariance_structure):
        whole = audit(stacked).checks
        for i, m in enumerate(sets):
            alone = audit(m).checks
            assert [c.constraint for c in whole] == [c.constraint for c in alone]
            for w, a in zip(whole, alone):
                assert w.violation[i] == a.violation, (w.constraint, i)
                assert w.passed[i] == a.passed, (w.constraint, i)
                if a.location is not None:
                    npt.assert_array_equal(w.location[i], a.location)
    assert not audit_moment_bounds(stacked).overall_pass
    assert not audit_covariance_structure(stacked).overall_pass


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceSet(diffusion_zero_tol=0.0)
    with pytest.raises(ValueError):
        audit_boundary(named_processes()[0], 0, RandomSource(0, 1))


def _audited_processes():
    """Every benchmark family, at N = 2, 3 and 8, and both negative controls."""
    def rates(n):
        return {"b": [4.0] * (n - 1), "S": [0.5] * (n - 1), "kappa": [1.0] * (n - 1)}

    procs = {"beta": beta_process(b=2.0, S=0.5, kappa=1.0),
             "broken_constant_diffusion": broken_process("constant_diffusion"),
             "broken_outward_drift": broken_process("outward_drift")}
    for n in (3, 8):
        procs[f"wright_fisher_{n}"] = wright_fisher_process([1.0] * n)
        procs[f"dirichlet_{n}"] = dirichlet_process(dirichlet_invariant=True,
                                                    **rates(n))
        procs[f"gen_dirichlet_{n}"] = gen_dirichlet_process(c="reduction",
                                                            **rates(n))
    return procs


#: sha256 of audit_boundary(proc, 1000, RandomSource(1, 1)).to_dict() as
#: JSON (indent 2, as audit.json holds it) for each process of
#: _audited_processes.  A change to the face samples, a closure's values on
#: a face or at the generator's nodes and fit states, or the checks' order,
#: names, violations or locations moves them; such a change must update
#: them and say so.
AUDIT_SHA256 = {
    "beta": "3ca3ef7abf9bd2cc4fc9631fed66d72772f75f8bf27e56954c65e4a844ac4015",
    "broken_constant_diffusion":
        "7c9f88830a49112aee9124d32ef62e577c89584dbf95d591f8524e07fd706472",
    "broken_outward_drift":
        "d2f7f435e753f6562bbd38179f339b36348b45324efdffe375e218bd832567c2",
    "dirichlet_3": "932eb252c01ce97a286a32b007f8207528884e929218c5c0105de1e97e1374ce",
    "dirichlet_8": "a46bc2e404ea9fe8dd7256cdc502d5aa28b7dcdf795a6d15423847ac3344f7cb",
    "gen_dirichlet_3":
        "f5e81357a35881c08d1074becd71f1a14f714868b65e8d497947d012fda0da0f",
    "gen_dirichlet_8":
        "e9c7970a8a32ca584c107f8fcb0110e6e2be785c1ba726065b922bdc2ffd5d12",
    "wright_fisher_3":
        "740a195d06a5ef5bf92859aeeaa58f8515e6dcdf4858dc2f3fe783748f898135",
    "wright_fisher_8":
        "71cd79e177dc7c44027ff22adc4effc3c615a7cf6955b7591cb405c094ddf950",
}


@pytest.mark.parametrize("name", sorted(AUDIT_SHA256))
def test_audit_outputs_pinned(name):
    proc = _audited_processes()[name]
    report = audit_boundary(proc, 1000, RandomSource(1, 1))
    text = json.dumps(report.to_dict(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == AUDIT_SHA256[name]
    assert report.overall_pass is not name.startswith("broken")


def _off_vertex_drift(delta):
    """Dirichlet (b = 4, S = 1/2, kappa = 1, N = 3) with delta (1e-3 - y_2)
    added to drift component 1.  On zero-face-1 that component is
    Y_3 + delta (1e-3 - y_2), negative only within about delta of the vertex
    e_2, where q_{2->1} = -0.999 delta."""
    proc = dirichlet_process([4.0, 4.0], [0.5, 0.5], [1.0, 1.0])

    def drift(y):
        out = proc.drift(y)
        out[0] += delta * (1e-3 - y[1])
        return out
    return dataclasses.replace(proc, drift=drift)


@pytest.mark.parametrize("delta", [1e-4, 1e-5])
def test_exact_audit_fails_a_negative_rate_the_faces_miss(delta):
    """The face samples rarely come that close to a vertex, so the sampled
    checks pass at 19 or more of 20 seeds; the generator's rate q_{2->1}
    fails at every seed."""
    proc = _off_vertex_drift(delta)
    q, _, residual = polynomial_generator(proc)
    assert residual <= 1e-14
    npt.assert_allclose(q[0, 1], -0.999 * delta, rtol=1e-12)
    faces_pass = 0
    for seed in range(1, 21):
        report = audit_boundary(proc, 1000, RandomSource(seed, 1))
        assert report.exact and not report.overall_pass
        rates = report.checks[-2]
        assert rates.constraint == "generator:drift-rates-non-negative"
        assert not rates.passed and rates.location == [1, 2]
        assert rates.violation == -q[0, 1]
        faces_pass += all(c.passed for c in report.checks[:-2])
    assert faces_pass >= 19


def test_audit_is_exact_where_the_closures_fit_a_generator():
    """Beta, Wright-Fisher and Dirichlet fit (Q, alpha) and audit exactly,
    appending the generator's checks; the nested process is not polynomial
    and keeps the sampled audit; both broken controls still fail, the
    outward drift on its generator's rates too."""
    procs = _audited_processes()
    for name, proc in procs.items():
        report = audit_boundary(proc, 300, RandomSource(1, 1))
        exact = name not in ("gen_dirichlet_3", "gen_dirichlet_8",
                             "broken_constant_diffusion")
        assert report.exact is exact, name
        generator = [c for c in report.checks
                     if c.constraint.startswith("generator:")]
        assert len(generator) == (2 if exact else 0), name
        assert report.overall_pass is not name.startswith("broken"), name
        if report.exact:
            assert report.fit_residual <= 1e-14
    assert audit_boundary(procs["gen_dirichlet_3"], 300,
                          RandomSource(1, 1)).fit_residual is None
    assert audit_boundary(procs["broken_constant_diffusion"], 300,
                          RandomSource(1, 1)).fit_residual > 0.1
    outward = audit_boundary(procs["broken_outward_drift"], 300, RandomSource(1, 1))
    assert not outward.checks[-2].passed and outward.checks[-1].passed


def test_exact_audit_peak_memory_at_the_largest_dimension():
    """At N = 64 the generator's C(64, 2) edge midpoints are evaluated
    samples_per_face at a time, so the exact audit's peak stays within the
    97.6 MB that the sampled audit alone reached."""
    proc = wright_fisher_process(np.ones(64))
    tracemalloc.start()
    try:
        report = audit_boundary(proc, 1000, RandomSource(1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exact and report.overall_pass
    assert peak <= 97.6e6, peak / 1e6


# The paper's constraints on polynomial fields, and the (Q, alpha) form they
# leave.  Filipovic & Larsson, "Polynomial diffusions and applications in
# finance", Finance Stoch. 20 (2016), characterise polynomial diffusions on
# the unit simplex this way: the drift is a rate matrix Q, a(Y) = Q Y, and
# the diffusion a sum of pair pieces alpha_ij Y_i Y_j (e_i - e_j)(e_i - e_j)^T,
# in full coordinates.  Every check below is an identity up to roundoff, so
# the fixed interior states the read-off evaluates decide no verdict.

def _monomials(k, degree):
    """Exponents, (count, k), of every monomial of degree <= degree in k
    variables."""
    return np.array([e for e in itertools.product(range(degree + 1), repeat=k)
                     if sum(e) <= degree])


def _p2_nodes(vertices):
    """The vertices and edge midpoints of the simplex the rows span."""
    return np.vstack([vertices] + [(vertices[i] + vertices[j]) / 2 for i, j in
                                   itertools.combinations(range(len(vertices)), 2)])


def _face_points(vertices):
    """A face's P2 nodes plus three fixed points inside it."""
    weights = np.arange(1.0, len(vertices) + 1.0)
    inner = np.array([np.ones_like(weights), weights, weights[::-1]])
    inner /= inner.sum(axis=1)[:, None]
    return np.vstack([_p2_nodes(vertices), inner @ vertices])


def _field_map(y, entries, exps):
    """(K, K, unknowns): the map from the coefficients of the symmetric field
    (one polynomial per entry (a, b), a <= b, over exps) to its value at y."""
    k = y.shape[0]
    out = np.zeros((k, k, len(entries), len(exps)))
    values = np.prod(y ** exps, axis=1)
    for i, (a, b) in enumerate(entries):
        out[a, b, i] = out[b, a, i] = values
    return out.reshape(k, k, -1)


def _realizable_fields(n, diagonal=False, degree=2, unit_sum=True):
    """The fields, symmetric (K, K) with entries of degree <= degree in the
    reduced state, whose row a vanishes on the face y_a = 0 and, with
    unit_sum, whose row sums vanish on the face sum(y) = 1: (dimension of
    that space, its null-space basis as columns, the constraints' singular
    values)."""
    k = n - 1
    exps = _monomials(k, degree)
    entries = [(a, b) for a in range(k) for b in range(a, k) if a == b or not diagonal]
    vertices = np.vstack([np.zeros(k), np.eye(k)])  # e_N, then e_1 ... e_K
    rows = [_field_map(y, entries, exps)[a]
            for a in range(k) for y in _face_points(np.delete(vertices, a + 1, axis=0))]
    if unit_sum:
        rows += [_field_map(y, entries, exps).sum(axis=1)
                 for y in _face_points(vertices[1:])]
    _, s, vt = np.linalg.svd(np.vstack(rows))
    rank = int(np.sum(s > 1e-9 * s[0]))
    return vt.shape[0] - rank, vt[rank:].T, s, (entries, exps)


def _pair_pieces(n, pairs):
    """The reduced (K, K) blocks of Y_i Y_j (e_i - e_j)(e_i - e_j)^T for each
    (i, j) in pairs, evaluated at the P2 nodes of the simplex: one column
    per pair."""
    k = n - 1
    nodes = _p2_nodes(np.eye(n))
    cols = []
    for i, j in pairs:
        e = np.eye(n)[i] - np.eye(n)[j]
        cols.append(np.concatenate([
            (y[i] * y[j] * np.outer(e, e))[:k, :k].ravel() for y in nodes]))
    return np.array(cols).T, nodes[:, :k]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_realizable_diffusion_is_coupled_and_nonlinear(n):
    """The abstract's "must be coupled and nonlinear" as a rank count.  The
    face conditions leave C(N, 2) dimensions of quadratic fields, spanned by
    the pair pieces; K for diagonal ones, each alpha_a Y_a Y_N, coupled
    through Y_N; and none at all for affine fields, diagonal or not."""
    k = n - 1
    all_pairs = list(itertools.combinations(range(n), 2))
    star = [(a, n - 1) for a in range(k)]
    for diagonal, pairs in ((False, all_pairs), (True, star)):
        dim, basis, s, (entries, exps) = _realizable_fields(n, diagonal)
        assert dim == len(pairs) == (k if diagonal else n * (n - 1) // 2)
        # the rank is not a tolerance's call: no singular value near the cut
        assert not np.any((s > 1e-13 * s[0]) & (s < 1e-6 * s[0])), s
        # P2 nodes fix a quadratic, so equal values there mean equal fields
        pieces, nodes = _pair_pieces(n, pairs)
        found = np.concatenate([np.einsum("abu,ud->abd", _field_map(y, entries, exps),
                                          basis).reshape(k * k, -1) for y in nodes])
        assert np.linalg.matrix_rank(pieces) == dim
        assert np.linalg.matrix_rank(np.hstack([found, pieces])) == dim
        # control: without the unit-sum face more fields pass
        assert _realizable_fields(n, diagonal, unit_sum=False)[0] > dim
        assert _realizable_fields(n, diagonal, degree=1)[0] == 0
        assert _realizable_fields(n, diagonal, degree=1, unit_sum=False)[0] > 0


def _constant_ratio_dirichlet(b, kappa, ratio):
    """The Dirichlet process with (1 - S) b / kappa = ratio for every
    component, which has a Dirichlet invariant law."""
    b, kappa = np.asarray(b, float), np.asarray(kappa, float)
    return dirichlet_process(b, 1.0 - ratio * kappa / b, kappa)


def _varying_dirichlet():
    """A Dirichlet process whose (1 - S) b / kappa varies: 2, 1.05, 0.8 / 3."""
    return dirichlet_process([4.0, 3.0, 2.0], [0.5, 0.3, 0.6], [1.0, 2.0, 3.0])


#: polynomial processes with a Dirichlet invariant law
_POLYNOMIAL = {
    "beta": lambda: beta_process(2.0, 0.5, 1.0),
    "wright_fisher_4": lambda: wright_fisher_process([1.0, 2.0, 3.0, 4.0]),
    "wright_fisher_8": lambda: wright_fisher_process(np.ones(8)),
    "dirichlet_4": lambda: _constant_ratio_dirichlet(
        [4.0, 3.0, 2.0], [1.0, 2.0, 3.0], 0.5),
    "dirichlet_8": lambda: _constant_ratio_dirichlet(
        np.arange(2.0, 9.0), np.linspace(1.0, 2.5, 7), 0.75),
}


def _named_polynomial(name):
    """The _POLYNOMIAL process of that name, or the varying-ratio Dirichlet."""
    return _varying_dirichlet() if name == "dirichlet_varying" else _POLYNOMIAL[name]()


def _moved(proc):
    """proc with q_{N->1} + 0.1: component 1 gains 0.1 Y_N from component N."""
    def drift(y):
        out = proc.drift(y)
        out[0] += 0.1 * (1.0 - component_sum(y))
        return out
    return dataclasses.replace(proc, drift=drift)


def _balance_gap(q, alpha, omega):
    """Largest |q_{j->i} - alpha_ij omega_i / 2| over i != j, relative to
    the largest rate: 0 under detailed balance with the Dirichlet(omega)
    law."""
    off = ~np.eye(len(omega), dtype=bool)
    return np.max(np.abs(q - alpha * omega[:, None] / 2.0)[off]) / np.max(q[off])


@pytest.mark.parametrize("name", [*_POLYNOMIAL, "dirichlet_varying"])
def test_polynomial_families_read_back_as_rates_and_pairs(name):
    """Each polynomial family is a rate matrix and non-negative pair weights:
    the (Q, alpha) read at the nodes rebuilds its closures at interior states,
    with Dirichlet's pairs a star on component N and Wright-Fisher's all 1."""
    proc = _named_polynomial(name)
    q, alpha, residual = polynomial_generator(proc)
    n = proc.dimension
    off = ~np.eye(n, dtype=bool)
    assert residual <= 1e-14
    assert np.all(q[off] >= 0.0) and np.all(alpha >= 0.0)
    npt.assert_array_equal(alpha, alpha.T)
    npt.assert_array_equal(np.diag(alpha), 0.0)
    if name.startswith("wright_fisher"):
        npt.assert_array_equal(alpha[off], 1.0)
    else:  # beta is the N = 2 Dirichlet process
        star = np.zeros((n, n), dtype=bool)
        star[:-1, -1] = star[-1, :-1] = True
        assert np.all(alpha[star] > 0.0) and np.all(alpha[~star] == 0.0)


@pytest.mark.parametrize("name", _POLYNOMIAL)
def test_detailed_balance_gives_the_invariant_dirichlet(name):
    """q_{j->i} = alpha_ij omega_i / 2 for every pair, omega the process's
    invariant_dirichlet; one rate moved by 0.1 breaks it."""
    proc = _POLYNOMIAL[name]()
    q, alpha, _ = polynomial_generator(proc)
    assert _balance_gap(q, alpha, proc.invariant_dirichlet) <= 1e-12
    q, alpha, residual = polynomial_generator(_moved(proc))
    assert residual <= 1e-14
    assert _balance_gap(q, alpha, proc.invariant_dirichlet) >= 0.1 / np.max(q) - 1e-12


def test_varying_ratio_dirichlet_has_no_invariant_dirichlet():
    """With (1 - S) b / kappa varying, the pairs (a, N) ask for different
    omega_N = 2 q_{a->N} / alpha_aN, so no Dirichlet law balances them, and
    the process states none."""
    proc = _varying_dirichlet()
    assert proc.invariant_dirichlet is None
    q, alpha, _ = polynomial_generator(proc)
    omega_n = 2.0 * q[-1, :-1] / alpha[:-1, -1]
    npt.assert_allclose(omega_n, [2.0, 1.05, 0.8 / 3.0], rtol=1e-14)


@pytest.mark.parametrize("n", [3, 8])
def test_nested_process_is_not_polynomial(n):
    """Every nesting remainder is 0 at a vertex, so the nested closures raise
    there and the read-off reports the process as not polynomial."""
    k = n - 1
    proc = gen_dirichlet_process(np.full(k, 2.0), np.full(k, 0.5), np.ones(k),
                                 c="reduction")
    with pytest.raises(SingularNesting):
        proc.drift(np.eye(k)[:, :1])
    assert polynomial_generator(proc) is None


def _moment_block(q, alpha, d):
    """(G_d, exponents): dm/dt = G_d m for the raw moments m_e = E[Y^e] of
    degree d in full coordinates, e over the exponent tuples in
    combinations_with_replacement order.  With a = Q Y and
    B = diag(P 1) - P, P = alpha * Y Y^T, the generator maps Y^e to
    sum_ij e_i (q_ij + (e_i - 1) alpha_ij / 2) Y^(e - 1_i + 1_j)
    - (e^T alpha e / 2) Y^e, of degree d again: G_d is exact, built by
    exponent arithmetic with no fit."""
    n = len(q)
    exps = [tuple(c.count(i) for i in range(n))
            for c in itertools.combinations_with_replacement(range(n), d)]
    index = {e: r for r, e in enumerate(exps)}
    g = np.zeros((len(exps), len(exps)))
    for r, e in enumerate(exps):
        g[r, r] -= 0.5 * np.dot(e, alpha @ e)
        for i in np.flatnonzero(e):
            for j in range(n):
                f = list(e)
                f[i] -= 1
                f[j] += 1
                g[r, index[tuple(f)]] += e[i] * (q[i, j] + 0.5 * (e[i] - 1) * alpha[i, j])
    return g, exps


def _exact_solution(rows, rhs):
    """The one x with rows @ x = rhs: rows has full column rank, and the
    overdetermined system holds to roundoff."""
    assert np.linalg.matrix_rank(rows) == rows.shape[1]
    x = np.linalg.lstsq(rows, rhs, rcond=None)[0]
    assert np.max(np.abs(rows @ x - rhs)) <= 1e-13
    return x


def _stationary_raw(g, exps):
    """The stationary raw moments of one degree d: G_d m = 0, normalized by
    sum_e multinom(e) m_e = E[(sum Y)^d] = 1."""
    d = sum(exps[0])
    multinom = [math.factorial(d) / math.prod(map(math.factorial, e)) for e in exps]
    return _exact_solution(np.vstack([g, multinom]), np.eye(len(exps) + 1)[-1])


def _stationary_moments(q, alpha):
    """The stationary mean m and second moment S = E[Y Y^T] of the closed
    hierarchy, from the degree-1 and degree-2 blocks (G_1 is Q)."""
    n = len(q)
    s = np.zeros((n, n))
    s[np.triu_indices(n)] = _stationary_raw(*_moment_block(q, alpha, 2))
    return _stationary_raw(*_moment_block(q, alpha, 1)), s + np.triu(s, 1).T


@functools.lru_cache(maxsize=None)
def _named_block(name, d):
    """_moment_block of the named process, built once for every test."""
    return _moment_block(*polynomial_generator(_named_polynomial(name))[:2], d)


def _diagonal(m, exps):
    """The entries of m at the pure powers Y_i^d, i = 1..N, of its degree d."""
    n, d = len(exps[0]), sum(exps[0])
    return m[[exps.index(tuple(d * (j == i) for j in range(n))) for i in range(n)]]


def _dirichlet_raw(omega, exps):
    """E[Y^e] under Dirichlet(omega): prod_i (omega_i)^(e_i) / (omega_0)^(d),
    with rising factorials (x)^(k) = x (x + 1) ... (x + k - 1)."""
    def rising(x, k):
        return math.prod(x + i for i in range(k))
    return (np.array([math.prod(map(rising, omega, e)) for e in exps])
            / rising(omega.sum(), sum(exps[0])))


def _fixed_sample(n):
    """5,000 fixed Dirichlet states, (M, N), for the batch-rate tests."""
    return np.random.default_rng(11).dirichlet(np.linspace(0.5, 2.0, n), 5000)


def _relative_gap(got, exact):
    return np.max(np.abs(got - exact)) / np.max(np.abs(exact))


@pytest.mark.parametrize("name", _POLYNOMIAL)
def test_moment_hierarchy_is_stationary_at_the_invariant_dirichlet(name):
    """The first two moments close in full coordinates, dm/dt = Q m and
    dS/dt = Q S + S Q^T + diag((alpha * S) 1) - alpha * S; their stationary
    solution is the mean and covariance of invariant_dirichlet.  Control:
    q_{N->1} + 0.1 moves the stationary mean by more than 1e-3."""
    proc = _POLYNOMIAL[name]()
    exact = dirichlet_moments(proc.invariant_dirichlet)
    q, alpha, _ = polynomial_generator(proc)
    m, s = _stationary_moments(q, alpha)
    assert _relative_gap(m, exact.mean) <= 1e-12
    assert _relative_gap(s - np.outer(m, m), exact.covariance) <= 1e-12
    q, alpha, _ = polynomial_generator(_moved(proc))
    assert np.max(np.abs(_stationary_moments(q, alpha)[0] - exact.mean)) >= 1e-3


def test_moment_hierarchy_gives_varying_ratio_stationary_moments():
    """The varying-ratio Dirichlet process has no Dirichlet invariant law, so
    analytic_stationary refuses it, but the closed hierarchy still fixes its
    stationary mean and covariance: a point of the simplex, and a symmetric
    covariance whose rows sum to 0 (the unit sum).  No Dirichlet law has
    them: m_i (1 - m_i) / C_ii would be a_0 + 1 for every i."""
    proc = _varying_dirichlet()
    with pytest.raises(UnsupportedProcess):
        analytic_stationary(proc)
    q, alpha, _ = polynomial_generator(proc)
    m, s = _stationary_moments(q, alpha)
    cov = s - np.outer(m, m)
    assert np.all(m > 0.0) and abs(m.sum() - 1.0) <= 1e-14
    npt.assert_allclose(cov, cov.T, rtol=0, atol=1e-14)
    assert np.max(np.abs(cov.sum(axis=1))) <= 1e-14
    assert np.all(np.linalg.eigvalsh(cov)[1:] > 0.0)
    assert np.ptp(m * (1.0 - m) / np.diag(cov)) > 1.0


@pytest.mark.parametrize("name", [*_POLYNOMIAL, "dirichlet_varying"])
def test_batch_rates_are_the_moment_hierarchy(name):
    """On any sample, batch_statistics' one-batch mean and cov rates are the
    hierarchy's right-hand sides at the sample's moments: Q m and
    Q C + C Q^T + diag((alpha * S) 1) - alpha * S, C the covariance and S
    the second moment, on the reduced block.  No seed decides it."""
    proc = _named_polynomial(name)
    n, k = proc.dimension, proc.k
    q, alpha, _ = polynomial_generator(proc)
    states = _fixed_sample(n)
    mean = states.mean(axis=0)
    second = states.T @ states / len(states)
    cov = second - np.outer(mean, mean)
    cov_rate = (q @ cov + cov @ q.T + np.diag((alpha * second).sum(axis=1))
                - alpha * second)
    rates = batch_statistics(states, proc, 1)[1]
    assert np.max(np.abs(rates["mean"][0] - (q @ mean)[:k])) <= 1e-13
    assert np.max(np.abs(rates["cov"][0] - cov_rate[:k, :k])) <= 1e-13


@pytest.mark.parametrize("name", _POLYNOMIAL)
def test_moment_hierarchy_gives_every_dirichlet_moment_to_degree_four(name):
    """The degree-3 and degree-4 blocks, built from (Q, alpha), are
    stationary at every raw moment of invariant_dirichlet, mixed moments
    included: 20 and 35 at N = 4, 120 and 330 at N = 8.  Control:
    q_{N->1} + 0.1 moves the degree-3 moments by more than 1e-2 of the
    largest (at N = 8 they are themselves below 1e-2)."""
    omega = _POLYNOMIAL[name]().invariant_dirichlet
    for d in (3, 4):
        g, exps = _named_block(name, d)
        assert np.max(np.abs(_stationary_raw(g, exps) / _dirichlet_raw(omega, exps)
                             - 1.0)) <= 1e-11
    q, alpha, _ = polynomial_generator(_moved(_POLYNOMIAL[name]()))
    moved = _stationary_raw(*_moment_block(q, alpha, 3))
    assert _relative_gap(moved, _stationary_raw(*_named_block(name, 3))) >= 1e-2


@pytest.mark.parametrize("name", _POLYNOMIAL)
def test_moment_hierarchy_gives_the_central_third_and_fourth_moments(name):
    """The pure powers of the stationary blocks d = 1..4 give the diagonal
    central third and fourth moments of dirichlet_moments(invariant_dirichlet):
    the third over sd^3 (beta's are 0), the fourth relative to itself."""
    exact = dirichlet_moments(_POLYNOMIAL[name]().invariant_dirichlet)
    blocks = [_named_block(name, d) for d in (1, 2, 3, 4)]
    m1, m2, m3, m4 = (_diagonal(_stationary_raw(g, exps), exps) for g, exps in blocks)
    third = m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3
    fourth = m4 - 4.0 * m1 * m3 + 6.0 * m1 ** 2 * m2 - 3.0 * m1 ** 4
    sd = np.sqrt(np.diag(exact.covariance))
    assert np.max(np.abs(third - exact.third) / sd ** 3) <= 1e-10
    assert np.max(np.abs(fourth / exact.fourth - 1.0)) <= 1e-10


@pytest.mark.parametrize("name", [*_POLYNOMIAL, "dirichlet_varying"])
def test_batch_third_and_fourth_rates_are_the_moment_hierarchy(name):
    """batch_statistics' one-batch third and fourth rates are the time
    derivatives of the central moments mu_3 = M3 - 3 M1 M2 + 2 M1^3 and
    mu_4 = M4 - 4 M1 M3 + 6 M1^2 M2 - 3 M1^4, each dM_d/dt = G_d m_d
    taken at the sample's raw moments m_d of degree d: criterion 9's third
    and fourth forms, on the fixed sample of the mean and cov test."""
    proc = _named_polynomial(name)
    states = _fixed_sample(proc.dimension)
    m, dm = [], []
    for d in (1, 2, 3, 4):
        g, exps = _named_block(name, d)
        raw = np.array([np.prod(states ** np.array(e), axis=1).mean() for e in exps])
        m.append(_diagonal(raw, exps))
        dm.append(_diagonal(g @ raw, exps))
    (m1, m2, m3, _), (d1, d2, d3, d4) = m, dm
    third = d3 - 3.0 * (d1 * m2 + m1 * d2) + 6.0 * m1 ** 2 * d1
    fourth = (d4 - 4.0 * (d1 * m3 + m1 * d3) + 6.0 * (2.0 * m1 * d1 * m2 + m1 ** 2 * d2)
              - 12.0 * m1 ** 3 * d1)
    rates = batch_statistics(states, proc, 1)[1]
    assert np.max(np.abs(rates["third"][0] - third[:proc.k])) <= 1e-13
    assert np.max(np.abs(rates["fourth"][0] - fourth[:proc.k])) <= 1e-13


def _expm(a):
    """exp(a) by scaling and squaring a Taylor series: a / 2^j has row-sum
    norm <= 1/2, where 20 terms leave a remainder below 1e-24."""
    j = max(0, int(np.ceil(np.log2(2.0 * np.max(np.abs(a).sum(axis=1)) + 1e-300))))
    out = term = np.eye(len(a))
    for i in range(1, 21):
        term = term @ a / (2.0 ** j * i)
        out = out + term
    for _ in range(j):
        out = out @ out
    return out


def test_beta_mean_relaxes_as_the_exponential_of_q():
    """exp(Q t) m0 is the beta process's mean S + (y0 - S) e^{-b t / 2} in
    closed form."""
    b, S, y0 = 3.0, 0.3, 0.9
    q, _, _ = polynomial_generator(beta_process(b, S, 2.0))
    for t in (0.4, 0.8):
        mean = S + (y0 - S) * np.exp(-0.5 * b * t)
        npt.assert_allclose(_expm(q * t) @ [y0, 1.0 - y0], [mean, 1.0 - mean],
                            rtol=0, atol=1e-15)
