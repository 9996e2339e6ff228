import dataclasses
import functools
import hashlib
import itertools
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from simplexdiff import (EvaluationFailure, MomentSet, RandomSource,
                         SingularNesting, ToleranceSet, UnsupportedProcess,
                         analytic_stationary, audit_boundary,
                         audit_covariance_structure, audit_moment_bounds,
                         batch_statistics, beta_process, broken_process,
                         dirichlet_moments, dirichlet_process,
                         estimate_moments, gen_dirichlet_process,
                         wright_fisher_process)
from simplexdiff.core import ProcessDefinition, component_major, component_sum


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
    assert {c.constraint for c in report.checks} >= {
        "unit-sum-face:drift-componentwise", "unit-sum-face:diffusion-entries"}


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
    with pytest.raises(EvaluationFailure):
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
    tol = ToleranceSet(moment_stat_tol=2.0)
    for audit, args in ((audit_moment_bounds, ()),
                        (audit_covariance_structure, (tol,))):
        whole = audit(stacked, *args).checks
        for i, m in enumerate(sets):
            alone = audit(m, *args).checks
            assert [c.constraint for c in whole] == [c.constraint for c in alone]
            for w, a in zip(whole, alone):
                assert w.violation[i] == a.violation, (w.constraint, i)
                assert w.passed[i] == a.passed, (w.constraint, i)
                if a.location is not None:
                    npt.assert_array_equal(w.location[i], a.location)
    assert not audit_moment_bounds(stacked).overall_pass
    assert not audit_covariance_structure(stacked, tol).overall_pass


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
#: a face, or the checks' order, names, violations or locations moves them;
#: such a change must update them and say so.
AUDIT_SHA256 = {
    "beta": "e7fbf7239aaf0659d1384a5bf049b5d57c649cbfe1df4be93f0a02f712cc87a9",
    "broken_constant_diffusion":
        "31f595e8f2c627c161abd1fa1b452735b18b74258cc27fe347910d0f7a4f2e53",
    "broken_outward_drift":
        "402c9ff6a99fc4c696a5ae21adcd8bcbbb1f9b3936365fb33be5094266c6472e",
    "dirichlet_3": "7df9ff26293fee9c17e7c44d7c04e9379f3702f4ad405eed4b52920aaf09bbce",
    "dirichlet_8": "6fb31d48ce7ad48ac5553fb235aafe953e9caf91e1cab6e4067eb2a20aaf70ba",
    "gen_dirichlet_3":
        "dfaeb07e003a0124b0ad236264cb3cd617e4c5c1d4a3b0a9269fdeb9b8168e24",
    "gen_dirichlet_8":
        "22a448cbbcea836f3149e4ec6134fc54efdcc7b3c2c4000818351f9557797af1",
    "wright_fisher_3":
        "fc30abf446c872816facadb370ee5b988a81dff9d3ca43069c3af650a6b97fc5",
    "wright_fisher_8":
        "5423e7beadd629ae5799a5eb5c911f914a61ed60a7d2985ec4d62b7860393242",
}


@pytest.mark.parametrize("name", sorted(AUDIT_SHA256))
def test_audit_outputs_pinned(name):
    proc = _audited_processes()[name]
    report = audit_boundary(proc, 1000, RandomSource(1, 1))
    text = json.dumps(report.to_dict(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == AUDIT_SHA256[name]
    assert report.overall_pass is not name.startswith("broken")


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


def diffusion_matrices(proc):
    """proc's diffusion closure; for a diagonal process, one that gives the
    (K, K, ...) matrices with the diagonals diffusion_diag(y), zero elsewhere."""
    if proc.diffusion is not None:
        return proc.diffusion

    def diffusion(y):
        d = proc.diffusion_diag(y)
        out = np.zeros((d.shape[0],) + d.shape)
        idx = np.arange(d.shape[0])
        out[idx, idx] = d
        return out
    return diffusion


def _full(proc, states):
    """Drift (N, M) and diffusion (N, N, M) in full coordinates at (M, N)
    states: a_N = -sum(a), and B bordered so that its rows and columns sum
    to 0."""
    y = component_major(states[:, :-1])
    a, b = proc.drift(y), diffusion_matrices(proc)(y)
    a = np.vstack([a, -a.sum(axis=0)])
    b = np.concatenate([b, -b.sum(axis=0, keepdims=True)], axis=0)
    return a, np.concatenate([b, -b.sum(axis=1, keepdims=True)], axis=1)


def polynomial_generator(proc):
    """(Q, alpha, residual) of proc in full coordinates, or None where the
    closures are undefined at the nodes (not polynomial).

    Q[i, j] = q_{j->i} = a_i(e_j), the drift at the vertices, so that
    a(Y) = Q Y; alpha[i, j] = 4 B_ii at the midpoint of edge (i, j).  The
    residual is the largest difference between the closures and
    a = Q Y, B = diag(P 1) - P with P = alpha * Y Y^T at 400 Dirichlet(1)
    states."""
    n = proc.dimension
    pairs = list(itertools.combinations(range(n), 2))
    try:
        q = _full(proc, np.eye(n))[0]
        mid = _full(proc, np.array([(np.eye(n)[i] + np.eye(n)[j]) / 2
                                    for i, j in pairs]))[1]
        states = np.random.default_rng(0).dirichlet(np.ones(n), 400)
        a, b = _full(proc, states)
    except SingularNesting:
        return None
    alpha = np.zeros((n, n))
    for p, (i, j) in enumerate(pairs):
        alpha[i, j] = alpha[j, i] = 4.0 * mid[i, i, p]
    y = states.T
    pieces = alpha[:, :, None] * y[:, None] * y[None]
    fit = np.eye(n)[:, :, None] * pieces.sum(axis=1)[:, None] - pieces
    residual = max(np.max(np.abs(a - q @ y)), np.max(np.abs(b - fit)))
    return q, alpha, residual


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
