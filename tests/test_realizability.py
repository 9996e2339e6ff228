import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest

from simplexdiff import (EvaluationFailure, MomentSet, RandomSource, ToleranceSet,
                         audit_boundary, audit_covariance_structure,
                         audit_moment_bounds, beta_process, broken_process,
                         dirichlet_process,
                         estimate_moments, gen_dirichlet_process,
                         wright_fisher_process)
from simplexdiff.core import ProcessDefinition


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
