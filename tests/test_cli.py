import ctypes
import dataclasses
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest
import yaml

import simplexdiff.cli as cli
import simplexdiff.integrator as integrator
from simplexdiff.cli import FMT, load_config, main


def write_config(path, **overrides):
    cfg = {
        "schema_version": 1,
        "process": {"name": "beta",
                    "params": {"b": 2.0, "S": 0.5, "kappa": 1.0}},
        "integrator": {"dt": 1e-3, "t_end": 1.0, "record_every": 200},
        "ensemble": {"size": 500,
                     "initial": {"kind": "delta", "point": [0.9, 0.1]}},
        "seed": 7,
        "audit": {"samples_per_face": 100},
    }
    cfg.update(overrides)
    with open(path, "w") as f:
        yaml.safe_dump(cfg, f)
    return cfg


def test_check_valid_dirichlet(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, process={
        "name": "dirichlet",
        "params": {"b": [2.0, 2.0], "S": [0.5, 0.5], "kappa": [1.0, 1.0]}})
    code = main(["check", "--config", str(cfg_path),
                 "--outdir", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "audit.json").read_text())
    assert report["overall_pass"] is True


def test_check_broken_fails_listing_every_face(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, process={
        "name": "broken", "params": {"style": "constant_diffusion", "n": 3}})
    code = main(["check", "--config", str(cfg_path),
                 "--outdir", str(tmp_path / "out")])
    assert code == 1
    report = json.loads((tmp_path / "out" / "audit.json").read_text())
    faces = {c["constraint"].split(":")[0] for c in report["checks"]}
    assert faces == {"zero-face-1", "zero-face-2", "unit-sum-face"}


def test_reduction_needs_dirichlet_invariant_base(tmp_path):
    """c: "reduction" refuses a base whose (1 - S) b / kappa varies, and a
    key the process does not take."""
    varying = {"b": [2.0, 2.0], "S": [0.5, 0.4], "kappa": [1.0, 1.0]}
    typo = {"b": [2.0, 2.0], "S": [0.5, 0.5], "kappa": [1.0, 1.0], "kapa": [9, 9]}
    for i, params in enumerate((varying, typo)):
        cfg_path = tmp_path / f"run{i}.yaml"
        write_config(cfg_path, process={
            "name": "gen_dirichlet", "params": dict(params, c="reduction")})
        assert main(["check", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / "out")]) == 2, params
        assert not (tmp_path / "out" / "audit.json").exists()


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, simplexdiff.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


# Records mallopt lookups through ctypes, runs {run}, then asks glibc
# whether a 20 MiB array, below the CLI's 32 MiB mmap threshold, was mmapped.
_HEAP_PROBE = """import ctypes
seen = []

class CDLL(ctypes.CDLL):
    def __getattr__(self, name):
        seen.append(name)
        return super().__getattr__(name)

ctypes.CDLL = CDLL
import numpy as np
{run}

class Info(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Info
before = mallinfo2().hblks
probe = np.ones(20 << 20, dtype=np.uint8)
print("mallopt" in seen, mallinfo2().hblks - before)
"""

_LIBRARY_RUN = """from simplexdiff import (Ensemble, IntegratorConfig, RandomSource,
                         simulate, wright_fisher_process)
simulate(wright_fisher_process([1.0, 1.0, 1.0]),
         Ensemble.from_uniform(3, 20000, np.random.default_rng(1)),
         IntegratorConfig(dt=1e-3), t_end=0.01, record_every=5,
         rng=RandomSource(1))"""


@pytest.mark.parametrize("run,expected", [
    pytest.param(_LIBRARY_RUN, "False 1", id="library"),
    pytest.param("import simplexdiff.cli\nsimplexdiff.cli.main([])", "True 0",
                 id="cli")])
def test_heap_policy_is_set_by_main_only(run, expected):
    """import simplexdiff plus simulate leave glibc's allocator alone; main
    raises the mmap threshold."""
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("needs glibc >= 2.33 for mallinfo2")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    # glibc's defaults, whatever the caller's MALLOC_* tunables
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _HEAP_PROBE.format(run=run)],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == expected


def test_main_sets_heap_thresholds(tmp_path, monkeypatch):
    """main sets the mmap, then the trim threshold; a libc without mallopt
    is left alone and the run goes on."""
    calls = []

    class Mallopt:
        def __call__(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(cli.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=Mallopt()))
    assert main([]) == 2
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    assert main(["check", "--config", str(cfg_path),
                 "--outdir", str(tmp_path / "out")]) == 0


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("process: [unclosed\n  nope")
    assert main(["check", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.yaml"
    assert main(["check", "--config", str(missing)]) == 2
    wrong_schema = tmp_path / "schema.yaml"
    wrong_schema.write_text("schema_version: 99\nprocess: {name: beta}\nseed: 1\n")
    assert main(["check", "--config", str(wrong_schema)]) == 2


def test_single_particle_ensemble_exits_2(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    cfg = write_config(cfg_path, ensemble={
        "size": 1, "initial": {"kind": "delta", "point": [0.9, 0.1]}})
    with pytest.raises(cli.ConfigError, match=">= 2"):
        cli.build_ensemble(cfg, 2, np.random.default_rng(0))
    assert main(["simulate", "--config", str(cfg_path),
                 "--outdir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out" / "moments.csv").exists()
    # the section is rejected before the boundary audit runs
    assert not (tmp_path / "out" / "audit.json").exists()


_INTEGRATOR = {"dt": 1e-3, "t_end": 1.0, "record_every": 200}


def test_invalid_integrator_exits_2_before_audit(tmp_path):
    """Every numeric setting is read and checked before anything is written,
    the output directory included."""
    cases = [("integrator", {"dt": 0.0, "t_end": 1.0}),
             ("integrator", dict(_INTEGRATOR, record_every=0)),
             ("integrator", dict(_INTEGRATOR, record_every="ten")),
             ("integrator", dict(_INTEGRATOR, t_end=-1.0)),
             ("integrator", dict(_INTEGRATOR, max_resample=[1])),
             ("integrator", dict(_INTEGRATOR, record_every=2.5)),
             ("integrator", dict(_INTEGRATOR, record_every=True)),
             ("integrator", dict(_INTEGRATOR, max_resample=9.9)),
             ("integrator", 5),
             ("ensemble", {"size": "ten", "initial": {"kind": "uniform"}}),
             ("ensemble", {"size": 10.5, "initial": {"kind": "uniform"}}),
             ("audit", {"samples_per_face": 0}),
             ("audit", {"samples_per_face": 100, "drift_sign_tol": "tight"}),
             ("compare", {"tol_multiplier": "abc"}),
             ("compare", {"stat_tol": float("nan")}),
             ("compare", {"stationary_window": [0.5]}),
             ("compare", {"stationary_window": "12"}),
             ("compare", {"stationary_window": [float("nan"), 1.0]}),
             ("compare", {"stationary_window": [0.04, 0.01]}),
             ("compare", {"stationary_window": [True, 2.0]}),
             ("compare", {"stationary_window": [0.5, 1.0, 2.0]}),
             ("output", {"dump_every": "often"}),
             ("output", {"dump_every": 2.5}),
             ("output", {"dump_every": True}),
             ("ensemble", {"size": 500, "initial": "delta"}),
             ("ensemble", {"size": 500,
                           "initial": {"kind": "delta", "point": "abc"}}),
             ("ensemble", {"size": 500, "initial": {
                 "kind": "delta", "point": [float("nan"), 1.0]}}),
             ("ensemble", {"size": 2, "initial": {
                 "kind": "list", "states": [[0.5, 0.5], [0.2, 0.3, 0.5]]}}),
             ("process", {"name": "wright_fisher",
                          "params": {"omega": "abc"}}),
             ("process", {"name": "beta",
                          "params": {"b": 2.0, "S": 0.5, "kappa": "abc"}}),
             ("process", {"name": "beta",
                          "params": {"b": float("inf"), "S": 0.5, "kappa": 1.0}}),
             ("process", {"name": "beta",
                          "params": {"b": 2.0, "S": 0.5, "kappa": float("inf")}}),
             ("process", {"name": "wright_fisher",
                          "params": {"omega": [1.0, float("nan")]}}),
             ("process", {"name": "dirichlet", "params": {
                 "b": [float("inf")], "S": [0.5], "kappa": [1.0]}}),
             ("process", {"name": "dirichlet", "params": {
                 "b": [10 ** 400], "S": [0.5], "kappa": [1.0]}}),
             ("process", {"name": "gen_dirichlet", "params": {
                 "b": [2.0], "S": [float("nan")], "kappa": [1.0]}}),
             ("seed", "abc"),
             ("seed", 1.5),
             ("seed", True),
             # an unknown key would otherwise be read as its default
             ("integrator", dict(_INTEGRATOR, recrod_every=10)),
             ("integrator", dict(_INTEGRATOR, boundary_policy="bounce")),
             ("integrator", dict(_INTEGRATOR, max_resample=-1)),
             ("sede", 7),
             ("compare", {"stat_tolerance": 5}),
             ("sweep", {"grid": [{"integrator": {"dt": 2e-3, "dt_": 1}}]}),
             # ensemble.initial takes only its kind's keys
             ("ensemble", {"size": 500, "initial": {
                 "kind": "uniform", "piont": [0.3, 0.3, 0.4],
                 "states": [[1.0, 0.0, 0.0]]}}),
             ("ensemble", {"size": 500, "initial": {
                 "kind": "delta", "point": [0.9, 0.1], "states": [[0.9, 0.1]]}}),
             ("ensemble", {"size": 2, "initial": {
                 "kind": "list", "states": [[0.9, 0.1], [0.5, 0.5]],
                 "point": [0.9, 0.1]}}),
             ("ensemble", {"size": 500, "initial": {"kind": ["delta"]}})]
    for i, (section, values) in enumerate(cases):
        cfg_path = tmp_path / f"run{i}.yaml"
        write_config(cfg_path, **{section: values})
        commands = {"compare": ["compare"], "output": ["simulate"],
                    "sweep": ["sweep"]}.get(section, ["simulate", "compare"])
        for command in commands:
            out = tmp_path / f"{command}{i}"
            assert main([command, "--config", str(cfg_path),
                         "--outdir", str(out)]) == 2, (section, values, command)
            assert not out.exists(), (section, values, command)
    # an integral float is a count
    size = cli.setting({"ensemble": {"size": 10000.0}}, "ensemble", "size", 1, int)
    assert size == 10000 and type(size) is int
    # the error names the section and the key, for check as well
    cfg = write_config(tmp_path / "typo.yaml", integrator={"recrod_every": 10})
    args = cli.make_parser().parse_args(["check", "--config", "-"])
    with pytest.raises(cli.ConfigError, match=r"'integrator\.recrod_every'"):
        cli.read_run(cfg, args, "check")
    cfg = write_config(tmp_path / "initial.yaml", ensemble={
        "size": 500, "initial": {"kind": "uniform", "piont": [0.3, 0.3, 0.4]}})
    args = cli.make_parser().parse_args(["simulate", "--config", "-"])
    with pytest.raises(cli.ConfigError, match=r"'ensemble\.initial\.piont'"):
        cli.read_run(cfg, args, "simulate")


def test_simulate_outputs(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, output={"dump_every": 500})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path),
                 "--outdir", str(out)]) == 0
    assert (out / "moments.csv").exists()
    assert (out / "run_meta.json").exists()
    assert (out / "ensemble_0.5.csv").exists()
    assert (out / "ensemble_1.csv").exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["seed"] == 7
    assert meta["violation_count"] == 0
    header = (out / "moments.csv").read_text().splitlines()[0]
    assert header.startswith("t,mean_1,mean_2,cov_1_1")


def test_simulate_final_mean_near_target(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path,
                 integrator={"dt": 1e-3, "t_end": 6.0, "record_every": 1000},
                 ensemble={"size": 2000,
                           "initial": {"kind": "delta", "point": [0.9, 0.1]}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path),
                 "--outdir", str(out)]) == 0
    rows = (out / "moments.csv").read_text().splitlines()
    final_mean = float(rows[-1].split(",")[1])
    se = np.sqrt(1.0 / 12.0 / 2000.0)
    assert abs(final_mean - 0.5) < 3.0 * se + 0.4 * np.exp(-6.0)


def test_simulate_refuses_failed_audit_unless_skipped(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, process={
        "name": "broken", "params": {"style": "outward_drift", "n": 3}},
        ensemble={"size": 50, "initial": {"kind": "uniform"}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path),
                 "--outdir", str(out)]) == 1
    assert not (out / "moments.csv").exists()
    assert main(["simulate", "--config", str(cfg_path),
                 "--outdir", str(out), "--skip-audit"]) == 0
    assert (out / "moments.csv").exists()


def test_clip_left_past_a_face_fails_simulate(tmp_path, monkeypatch, capsys):
    """A clipped column left 1e-9 past a face is a realizability violation:
    simulate records the count in run_meta.json and exits 1."""
    clip = integrator._clip_renormalize

    def leaky(ys):
        out = clip(ys)
        out[0, 0] = -1e-9
        return out

    monkeypatch.setattr(integrator, "_clip_renormalize", leaky)
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path,
                 process={"name": "beta",
                          "params": {"b": 0.1, "S": 0.5, "kappa": 1.0}},
                 integrator={"dt": 1e-2, "t_end": 1e-2, "record_every": 1,
                             "boundary_policy": "clip_renormalize"},
                 ensemble={"size": 200, "initial": {
                     "kind": "delta", "point": [0.001, 0.999]}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path),
                 "--outdir", str(out)]) == 1
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["clipped_steps"] > 0
    assert meta["violation_count"] > 0
    assert (f"{meta['violation_count']} realizability violations recorded"
            in capsys.readouterr().err)


def test_csv_roundtrip_bytes(tmp_path):
    """Every CSV value is written at FMT: moments.csv, a particle dump, and
    sweep.csv with a passing point and with a failed audit's NaN row."""
    cfg_path = tmp_path / "run.yaml"
    grid = {"grid": [{"integrator": {"dt": 2e-3}}]}
    write_config(cfg_path, output={"dump_every": 500}, sweep=grid)
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg_path), "--outdir", str(out)])
    main(["sweep", "--config", str(cfg_path), "--outdir", str(out)])
    write_config(cfg_path, sweep=grid, process={
        "name": "broken", "params": {"style": "constant_diffusion", "n": 2}})
    main(["sweep", "--config", str(cfg_path), "--outdir", str(out / "nan")])
    assert "nan" in (out / "nan" / "sweep.csv").read_text()
    for name in ("moments.csv", "ensemble_0.5.csv", "sweep.csv",
                 "nan/sweep.csv"):
        text = (out / name).read_text()
        lines = text.splitlines()
        assert len(lines) > 1, name
        rebuilt = [lines[0]]
        for line in lines[1:]:
            rebuilt.append(",".join(FMT % float(x) for x in line.split(",")))
        assert "\n".join(rebuilt) + "\n" == text, name


def test_threads_flag_does_not_change_results(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    outs = []
    for i, threads in enumerate(("1", "8")):
        out = tmp_path / f"out{i}"
        assert main(["simulate", "--config", str(cfg_path),
                     "--outdir", str(out), "--threads", threads]) == 0
        outs.append((out / "moments.csv").read_bytes())
    assert outs[0] == outs[1]


def test_seed_override_changes_results(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(cfg_path), "--outdir", str(out1)])
    main(["simulate", "--config", str(cfg_path), "--outdir", str(out2),
          "--seed", "8"])
    assert (out1 / "moments.csv").read_bytes() != (out2 / "moments.csv").read_bytes()


def test_outdir_env_var(tmp_path, monkeypatch):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    envdir = tmp_path / "from_env"
    monkeypatch.setenv("SIMPLEXDIFF_OUTDIR", str(envdir))
    assert main(["check", "--config", str(cfg_path)]) == 0
    assert (envdir / "audit.json").exists()


# a beta run that relaxes by t = 4 and passes every compare check
_STATIONARY_BETA = {
    "integrator": {"dt": 1e-3, "t_end": 8.0, "record_every": 800},
    "ensemble": {"size": 2000, "initial": {"kind": "delta", "point": [0.9, 0.1]}},
    "compare": {"stationary_window": [4.0, 8.0]}}


def test_compare_beta_stationary(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, **_STATIONARY_BETA)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg_path),
                 "--outdir", str(out)]) == 0
    result = json.loads((out / "compare.json").read_text())
    assert result["overall_pass"] is True
    assert result["rate_check"]["form_pass"]["third"] is True
    var_check = [c for c in result["stationary"]["checks"]
                 if c["quantity"] == "cov[1,1]"][0]
    assert var_check["residual"] <= var_check["threshold"]
    audit = result["moment_audit"]
    assert audit["overall_pass"] is True
    assert {c["constraint"] for c in audit["checks"]} >= {
        "means-sum-to-one", "covariance-row-sums-zero", "covariance-symmetry"}


#: sha256 of compare's compare.json and moments.csv for _STATIONARY_BETA
#: and a Wright-Fisher run from its invariant law, both passing.  A change
#: to the draws, the step, the statistics or their summation order moves
#: them, by one ulp of a window average too; such a change must update them
#: and say so.
COMPARE_SHA256 = {
    "beta": ("f54d40fea795682bce4815adf4e50ae337d16e9daea55e778625eab9e544b0f8",
             "b70fe287749eb6da5a78dea381ad0811c1183945ebb3b5e8a08c3a7e5c37028a"),
    "wright_fisher": (
        "ac4c1e5524ed1bb0c1694e01b68b58735baa86f2a01b19064c891af2cced1efc",
        "ab6c48bbf3197f4bb24003ebefc9a57f68bf6891c8ba4eaf9f758f3715ff86ed"),
}
_COMPARE_PINNED = {
    "beta": _STATIONARY_BETA,
    "wright_fisher": {
        "process": {"name": "wright_fisher",
                    "params": {"omega": [1.0, 1.0, 1.0]}},
        "integrator": {"dt": 1e-3, "t_end": 1.0, "record_every": 100},
        "ensemble": {"size": 1000, "initial": {"kind": "uniform"}}},
}


@pytest.mark.parametrize("family", sorted(COMPARE_SHA256))
def test_compare_outputs_pinned(tmp_path, family):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, **_COMPARE_PINNED[family])
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg_path),
                 "--outdir", str(out)]) == 0
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("compare.json", "moments.csv"))
    assert got == COMPARE_SHA256[family]


def test_compare_fails_on_recorded_violations(tmp_path, monkeypatch, capsys):
    """A run that records realizability violations fails compare, as it fails
    simulate: exit 1, the count on stderr and overall_pass false."""
    simulate = cli.simulate

    def violating(*args, **kwargs):
        traj = simulate(*args, **kwargs)
        traj.violation_count = 3
        return traj

    monkeypatch.setattr(cli, "simulate", violating)
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, **_STATIONARY_BETA)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg_path),
                 "--outdir", str(out)]) == 1
    assert "3 realizability violations recorded" in capsys.readouterr().err
    result = json.loads((out / "compare.json").read_text())
    assert result["overall_pass"] is False
    assert json.loads((out / "run_meta.json").read_text())["violation_count"] == 3


def test_compare_json_carries_the_benchmark_verdict_keys(tmp_path,
                                                        monkeypatch):
    """The benchmark judges each compare call from compare.json: every
    verdict key it reads is written, and its check_outputs accepts a run."""
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, compare={"stationary_window": [0.5, 1.0]})
    out = tmp_path / "out"
    code = main(["compare", "--config", str(cfg_path), "--outdir", str(out)])
    result = json.loads((out / "compare.json").read_text())
    assert type(result["rate_check"]["overall_pass"]) is bool
    assert result["stationary"]["available"] is True
    assert type(result["stationary"]["overall_pass"]) is bool
    assert type(result["moment_audit"]["overall_pass"]) is bool
    assert result["overall_pass"] is (code == 0)
    assert set(result["rate_check"]) == {"overall_pass", "form_pass",
                                         "n_checks", "failures"}
    assert list(result["rate_check"]["form_pass"]) == ["mean", "cov", "third",
                                                       "fourth"]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    measure = pytest.importorskip("measure")  # the benchmark also needs scipy
    failure, invalid, verdicts, _ = measure.check_outputs(str(out), code, "", 6)
    assert failure is None and not invalid
    assert verdicts == (not result["rate_check"]["overall_pass"]) + (
        not result["stationary"]["overall_pass"])


def test_compare_fails_on_moment_audit(tmp_path, monkeypatch):
    """compare.json keeps each moment constraint's worst violation over the
    snapshots and its time, and a failing moment audit makes compare exit 1."""
    audit = cli.audit_moment_bounds

    def shifted(m):
        mean = m.mean.copy()
        mean[2] += 0.25  # the snapshot at t = 1.6: means sum to 1.5
        return audit(dataclasses.replace(m, mean=mean))

    monkeypatch.setattr(cli, "audit_moment_bounds", shifted)
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, **_STATIONARY_BETA)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg_path),
                 "--outdir", str(out)]) == 1
    result = json.loads((out / "compare.json").read_text())
    assert result["rate_check"]["overall_pass"] is True
    assert result["stationary"]["overall_pass"] is True
    assert result["moment_audit"]["overall_pass"] is result["overall_pass"] is False
    failed = [c for c in result["moment_audit"]["checks"] if not c["passed"]]
    assert [(c["constraint"], c["t"]) for c in failed] == [("means-sum-to-one", 1.6)]
    assert failed[0]["violation"] == pytest.approx(0.5)


def test_compare_writes_counters_and_builds_no_dumps(tmp_path, monkeypatch):
    """compare writes simulate's trajectory counters and asks for no dumps."""
    dump_requests = []
    simulate = cli.simulate

    def recording(*args, **kwargs):
        dump_requests.append(kwargs.get("dump_every"))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate", recording)
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, output={"dump_every": 500})
    metas = {}
    for command in ("simulate", "compare"):
        out = tmp_path / command
        main([command, "--config", str(cfg_path), "--outdir", str(out)])
        metas[command] = json.loads((out / "run_meta.json").read_text())
        assert any(out.glob("ensemble_*.csv")) == (command == "simulate")
    assert dump_requests == [500, None]
    for key in ("violation_count", "particle_steps", "modified_steps",
                "clipped_steps"):
        assert metas["compare"][key] == metas["simulate"][key], key
    assert metas["compare"]["particle_steps"] == 500 * 1000


def test_compare_too_few_snapshots_exits_2(tmp_path, capsys):
    """compare's needs of the run's shape are checked before the audit: at
    least three snapshots and one inside a given stationary window
    (InsufficientSnapshots), and a start point with the process's N
    components (ConfigError); read_run raises each, and main exits 2 with
    its message."""
    args = cli.make_parser().parse_args(["compare", "--config", "-"])
    cases = [
        ({"integrator": {"dt": 1e-2, "t_end": 0.02, "record_every": 100}},
         cli.InsufficientSnapshots, r"need >= 3 snapshots, got 2"),
        ({"integrator": {"dt": 1e-2, "t_end": 0.05, "record_every": 2},
          "compare": {"stationary_window": [0.025, 0.035]}},
         cli.InsufficientSnapshots,
         r"no snapshots inside the stationary window \[0.025, 0.035\]"),
        ({"compare": {"stationary_window": [2.0, 3.0]}},
         cli.InsufficientSnapshots,
         r"no snapshots inside the stationary window \[2.0, 3.0\]"),
        ({"ensemble": {"size": 500, "initial": {"kind": "delta",
                                                "point": [0.3, 0.3, 0.4]}}},
         cli.ConfigError, r"initial states have 3 components, the process has 2")]
    for i, (overrides, error, message) in enumerate(cases):
        cfg_path = tmp_path / f"run{i}.yaml"
        cfg = write_config(cfg_path, **overrides)
        with pytest.raises(error, match=f"^{message}$"):
            cli.read_run(cfg, args, "compare")
        out = tmp_path / f"out{i}"
        assert main(["compare", "--config", str(cfg_path),
                     "--outdir", str(out)]) == 2, overrides
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
        assert not (out / "audit.json").exists(), overrides
    # the point's length is the simulate command's to check too
    assert main(["simulate", "--config", str(tmp_path / "run3.yaml"),
                 "--outdir", str(tmp_path / "sim")]) == 2
    assert not (tmp_path / "sim" / "audit.json").exists()
    # a window holding the single snapshot at t = 0.04 passes the check
    cfg_path = tmp_path / "edge.yaml"
    write_config(cfg_path, integrator={"dt": 1e-2, "t_end": 0.05,
                                       "record_every": 2},
                 compare={"stationary_window": [0.04, 0.04]})
    assert main(["compare", "--config", str(cfg_path),
                 "--outdir", str(tmp_path / "edge")]) in (0, 1)
    result = json.loads((tmp_path / "edge" / "compare.json").read_text())
    assert result["stationary"]["window"] == [0.04, 0.04]


def test_sweep_empty_grid_exits_2(tmp_path):
    """So does a sweep section or grid entry that is not a mapping, or a
    later point that is invalid, before the first point writes anything."""
    for i, sweep in enumerate((
            {"grid": []}, [1, 2], {"grid": [{}, 5]}, {"grid": 5},
            {"grid": [{}, {"integrator": {"dt": -1}}]},
            {"grid": [{}, {"compare": {"stationary_window": [2.0, 3.0]}}]})):
        cfg_path = tmp_path / f"run{i}.yaml"
        write_config(cfg_path, sweep=sweep)
        out = tmp_path / f"out{i}"
        assert main(["sweep", "--config", str(cfg_path),
                     "--outdir", str(out)]) == 2, sweep
        assert not (out / "point_000").exists(), sweep
        assert not (out / "sweep.csv").exists(), sweep


def _sweep_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == ("point,dt,passed,max_stationary_residual,"
                        "var1_residual,var1_threshold,runtime_s")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def test_sweep_s_grid_means_track_target(tmp_path):
    """dt is left at its default 1e-3, which sweep.csv writes."""
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path,
                 integrator={"t_end": 6.0, "record_every": 600},
                 ensemble={"size": 1000,
                           "initial": {"kind": "delta", "point": [0.9, 0.1]}},
                 compare={"stationary_window": [3.0, 6.0]},
                 sweep={"grid": [
                     {"process": {"params": {"b": 2.0, "S": s, "kappa": 1.0}}}
                     for s in (0.3, 0.5, 0.7)]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path),
                 "--outdir", str(out)]) == 0
    rows = _sweep_rows(out / "sweep.csv")
    assert [r[:3] for r in rows] == [[i, 1e-3, 1] for i in range(3)]
    for i, s in enumerate((0.3, 0.5, 0.7)):
        result = json.loads((out / f"point_{i:03d}" / "compare.json").read_text())
        mean_check = [c for c in result["stationary"]["checks"]
                      if c["quantity"] == "mean[1]"][0]
        assert mean_check["oracle"] == pytest.approx(s)
        assert mean_check["passed"]


def test_sweep_failed_audit_point_gets_nan_row(tmp_path):
    """A point whose boundary audit fails writes no compare.json: its row
    has passed 0 and NaN residuals, the sweep goes on and exits 1."""
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path,
                 process={"name": "broken",
                          "params": {"style": "constant_diffusion", "n": 2}},
                 sweep={"grid": [{"integrator": {"dt": 2e-3}},
                                 {"integrator": {"dt": 4e-3}}]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path),
                 "--outdir", str(out)]) == 1
    rows = _sweep_rows(out / "sweep.csv")
    assert [r[:3] for r in rows] == [[0, 2e-3, 0], [1, 4e-3, 0]]
    assert all(np.isnan(r[3:6]).all() for r in rows)
    for i in range(2):
        assert (out / f"point_{i:03d}" / "audit.json").exists()
        assert not (out / f"point_{i:03d}" / "compare.json").exists()


def test_load_config_requires_keys(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("schema_version: 1\nseed: 3\n")
    from simplexdiff.errors import ConfigError
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_benchmark_tracer_hooks_resolve(tmp_path, monkeypatch):
    """The benchmark's tracer patches simplexdiff's entry points by name: a
    traced compare still records drift calls, snapshots and normal draws,
    and counts the same draws and resample rounds whether the integrator's
    helper thread draws the normals ahead or not."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    tracing = importlib.import_module("tracing")
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path,
                 process={"name": "wright_fisher",
                          "params": {"omega": [1.0, 1.0, 1.0]}},
                 integrator={"dt": 1e-3, "t_end": 0.02, "record_every": 5},
                 ensemble={"size": 200, "initial": {
                     "kind": "delta", "point": [1 / 3, 1 / 3, 1 / 3]}})
    monkeypatch.setattr(integrator, "DRAW_AHEAD_MIN", 0)
    counts = []
    for cpus in (1, 2):
        monkeypatch.setattr(integrator, "_cpus", lambda: cpus)
        tracer = tracing.Tracer()
        outdir = tmp_path / f"out{cpus}"
        with tracer.patched():
            code = cli.main(["compare", "--config", str(cfg_path),
                             "--outdir", str(outdir)])
        assert code in (0, 1)
        # the traced process is a dataclasses.replace copy: it keeps its oracle
        result = json.loads((outdir / "compare.json").read_text())
        assert result["stationary"]["available"] is True
        metrics = tracing.layer_metrics(tracer.spans, 0, 0)
        for name in ("processes.drift_calls", "statistics.snapshots",
                     "integrator.normals_drawn"):
            assert metrics[name] > 0, name
        # 20 steps, a snapshot every 5th and at step 0; one drift call a step
        assert metrics["statistics.snapshots"] == 5
        assert metrics["processes.evals_per_step"] == 1.0
        counts.append((metrics["integrator.normals_drawn"],
                       metrics["integrator.resample_rounds"]))
    assert counts[0] == counts[1]


def test_memory_tool_measures_each_phase(tmp_path, monkeypatch):
    """tools/phase_memory.py's phase_peaks runs a step, a snapshot and an
    audit through the library's current signatures, on a small run."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(root, "tools"))
    phase_memory = importlib.import_module("phase_memory")
    cfg = write_config(tmp_path / "run.yaml",
                       process={"name": "wright_fisher",
                                "params": {"omega": [1.0, 1.0, 1.0]}},
                       ensemble={"size": 200, "initial": {
                           "kind": "delta", "point": [1 / 3, 1 / 3, 1 / 3]}})
    args = cli.make_parser().parse_args(["simulate", "--config", "-"])
    peaks, state = phase_memory.phase_peaks(cli.read_run(cfg, args, "simulate"))
    assert list(peaks) == ["step", "snapshot", "audit"]
    assert all(peak > 0 for peak in peaks.values()), peaks
    assert state == 2 * 200 * 8  # the (K, M) state owns its memory


def test_benchmark_configs_build():
    """Every config the benchmark writes reads as a compare run of its family."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = dont_write
    args = cli.make_parser().parse_args(["compare", "--config", "-"])
    for name, spec in workloads.WORKLOADS.items():
        for family, (_, point) in spec["families"].items():
            run = cli.read_run(workloads.family_config(name, family, 1), args,
                               "compare")
            assert (run.proc.name, run.proc.dimension) == (family, len(point)), name


def test_clip_spellings_are_one_behaviour(tmp_path):
    """boundary_policy: clip_renormalize is max_resample: 0, byte for byte,
    whatever max_resample it is given beside it, on a run that clips."""
    base = {"process": {"name": "dirichlet", "params": {
                "b": [0.5, 1.0], "S": [0.5, 0.3], "kappa": [1.0, 1.0]}},
            "ensemble": {"size": 500, "initial": {
                "kind": "delta", "point": [0.1, 0.1, 0.8]}},
            "seed": 5, "output": {"dump_every": 50}}
    integ = {"dt": 4e-3, "t_end": 0.8, "record_every": 20}
    spellings = {"policy": dict(integ, boundary_policy="clip_renormalize"),
                 "policy-7": dict(integ, boundary_policy="clip_renormalize",
                                  max_resample=7),
                 "zero": dict(integ, max_resample=0)}
    outputs = {}
    for name, spelling in spellings.items():
        cfg_path = tmp_path / f"{name}.yaml"
        write_config(cfg_path, integrator=spelling, **base)
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg_path),
                     "--outdir", str(out)]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        files = sorted(p.name for p in out.iterdir()
                       if p.name not in ("run_meta.json", "audit.json"))
        outputs[name] = ({key: meta[key] for key in (
            "violation_count", "particle_steps", "modified_steps",
            "clipped_steps")}, {f: (out / f).read_bytes() for f in files})
    counters, files = outputs["zero"]
    assert counters["clipped_steps"] > 0
    assert "moments.csv" in files and len(files) > 2  # dumps as well
    assert outputs["policy"] == outputs["zero"]
    assert outputs["policy-7"] == outputs["zero"]


def test_readme_config_schema_reads():
    """The README's schema block reads for every command and lists every
    key of cli.SCHEMA, section by section, so the two cannot drift apart."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as f:
        text = f.read()
    section = text.split("### Config schema (schema_version 1)", 1)[1]
    cfg = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
    for command in ("check", "simulate", "compare", "sweep"):
        args = cli.make_parser().parse_args([command, "--config", "-"])
        cli.read_run(cfg, args, command)
    documented = {name: set(cfg[name] if name else cfg) for name in cli.SCHEMA}
    assert documented == {name: set(keys) for name, keys in cli.SCHEMA.items()}


@pytest.mark.parametrize("command,section,values,key", [
    # a k = 0 negative control passed its own audit with exit 0
    ("check", "process", {"name": "broken", "params": {
        "style": "outward_drift", "n": 1}}, "dimension"),
    ("check", "process", {"name": "broken", "params": {
        "style": "outward_drift", "n": True}}, "dimension"),
    # a bool was read as 1.0
    ("check", "process", {"name": "beta", "params": {
        "b": True, "S": 0.5, "kappa": 1.0}}, "b:"),
    ("check", "process", {"name": "beta", "params": {
        "b": 2.0, "S": True, "kappa": 1.0}}, "S:"),
    ("check", "process", {"name": "wright_fisher", "params": {
        "omega": [True, 1, 1]}}, "omega:"),
    ("simulate", "ensemble", {"size": 500, "initial": {
        "kind": "delta", "point": [True, 0]}}, "ensemble.initial.point"),
    ("simulate", "ensemble", {"size": 2, "initial": {
        "kind": "list", "states": [[0.5, 0.5], [True, False]]}},
     "ensemble.initial.states"),
    ("simulate", "ensemble", {"size": 3, "initial": {
        "kind": "list", "states": [[0.5, 0.5], [0.2, 0.8]]}},
     "ensemble size 3 does not match 2 listed states"),
])
def test_refused_inputs_exit_2_naming_the_key(tmp_path, capsys, command,
                                             section, values, key):
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, **{section: values})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--outdir", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_run_failure_exits_1(tmp_path, capsys):
    """A library error during a run exits 1 with 'failure:' on stderr: here
    the nested drift, undefined at a start state whose second nesting
    remainder is zero, stops the first snapshot."""
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path, process={"name": "gen_dirichlet", "params": {
                     "b": [4.0] * 3, "S": [0.5] * 3, "kappa": [1.0] * 3,
                     "c": "reduction"}},
                 ensemble={"size": 10, "initial": {
                     "kind": "delta", "point": [0.5, 0.5, 0.0, 0.0]}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--outdir", str(out),
                 "--skip-audit"]) == 1
    assert capsys.readouterr().err.startswith("failure: drift is undefined")
    assert not (out / "moments.csv").exists()


def test_raising_snapshot_exits_1(tmp_path, monkeypatch, capsys):
    """A drift that raises a foreign error on its first call, at the snapshot
    at t = 0 (the audit skipped), exits 1 with one failure line naming the
    snapshot, not a traceback."""
    def boom(y):
        raise RuntimeError("boom")
    build = cli.build_process
    monkeypatch.setattr(cli, "build_process",
                        lambda cfg: dataclasses.replace(build(cfg), drift=boom))
    cfg_path = tmp_path / "run.yaml"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg_path), "--outdir", str(out),
                 "--skip-audit"]) == 1
    assert capsys.readouterr().err == (
        "failure: snapshot at t=0.0: evaluation failed: boom\n")
    assert not (out / "moments.csv").exists()
