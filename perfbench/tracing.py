"""Span tracing around simplexdiff's public entry points, from outside src/.

Each wrapped call records a span (name, start, end, parent span) in memory.
Layers are the package modules; the wrapped entry points are:

- processes:     the drift, diffusion and noise-factor closures of every
                 process that ``cli.build_process`` returns
- integrator:    ``simulate`` and ``RandomSource.normals``
- statistics:    ``estimate_moments``, ``estimate_rates``,
                 ``batch_statistics``, ``cross_validate_rates`` and
                 ``analytic_stationary``
- realizability: ``audit_boundary``
- cli:           ``main``, the config builders and the file writers

Ensemble construction in ``core`` runs inside ``cli.build_ensemble`` and so
counts as ``cli.config_s``.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

import simplexdiff.cli as cli
import simplexdiff.integrator as integrator
import simplexdiff.statistics as statistics

# per-layer metric name -> unit, in report order
UNITS = {
    "processes.drift_calls": "count",
    "processes.drift_s": "s",
    "processes.noise_factor_calls": "count",
    "processes.noise_factor_s": "s",
    "processes.diffusion_matrix_calls": "count",
    "processes.diffusion_matrix_s": "s",
    "processes.evals_per_step": "calls/step",
    "integrator.normals_drawn": "count",
    "integrator.normals_s": "s",
    "integrator.resample_rounds": "count",
    "integrator.accepted_ratio": "ratio",
    "integrator.step_us": "us",
    "integrator.self_s": "s",
    "integrator.modified_steps": "count",
    "integrator.clipped_steps": "count",
    "integrator.violation_count": "count",
    "statistics.snapshots": "count",
    "statistics.snapshot_ms": "ms",
    "statistics.estimate_moments_s": "s",
    "statistics.estimate_rates_s": "s",
    "statistics.batch_statistics_s": "s",
    "statistics.cross_validate_s": "s",
    "statistics.oracle_s": "s",
    "statistics.rate_checks_failed": "count",
    "realizability.audit_s": "s",
    "realizability.audit_points": "count",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly between traced rounds at one seed
EXACT_COUNTS = ("processes.drift_calls", "integrator.normals_drawn",
                "integrator.resample_rounds", "integrator.modified_steps",
                "cli.bytes_written")

_SNAPSHOT_SPANS = ("statistics.estimate_moments", "statistics.estimate_rates",
                   "statistics.batch_statistics")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    rows: int = 0            # normals drawn, or particles in the state argument
    result: object = None    # kept only for simulate (its Trajectory)


class Tracer:
    """In-memory span recorder; one instance per traced round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        def call(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name == "integrator.simulate":
                span.result, span.rows = out, args[1].size
            elif name == "integrator.normals":
                span.rows = out.size
            elif name == "processes.drift":
                span.rows = args[0].shape[0] if args[0].ndim > 1 else 1
            return out
        return call

    def wrap_process(self, proc):
        """A copy of a ProcessDefinition whose closures record spans."""
        fields = {"drift": self.wrap("processes.drift", proc.drift),
                  "diffusion": self.wrap("processes.diffusion_matrix",
                                         proc.diffusion)}
        for name in ("diffusion_diag", "diffusion_factor"):
            fn = getattr(proc, name)
            if fn is not None:
                fields[name] = self.wrap("processes.noise_factor", fn)
        return dataclasses.replace(proc, **fields)

    @contextlib.contextmanager
    def patched(self):
        """Patch simplexdiff's entry points to record here; undo on exit."""
        build_process = cli.build_process
        wrap = self.wrap
        patches = [
            (cli, "main", wrap("cli.main", cli.main)),
            (cli, "load_config", wrap("cli.config", cli.load_config)),
            (cli, "build_process", wrap(
                "cli.config", lambda cfg: self.wrap_process(build_process(cfg)))),
            (cli, "build_ensemble", wrap("cli.config", cli.build_ensemble)),
            (cli, "build_integrator", wrap("cli.config", cli.build_integrator)),
            (cli, "build_tolerances", wrap("cli.config", cli.build_tolerances)),
            (cli, "write_moments_csv", wrap("cli.write", cli.write_moments_csv)),
            (cli, "write_ensemble_csv", wrap("cli.write", cli.write_ensemble_csv)),
            (cli, "write_run_meta", wrap("cli.write", cli.write_run_meta)),
            (cli, "audit_boundary", wrap("realizability.audit", cli.audit_boundary)),
            (cli, "simulate", wrap("integrator.simulate", cli.simulate)),
            (integrator.RandomSource, "normals",
             wrap("integrator.normals", integrator.RandomSource.normals)),
            (cli, "cross_validate_rates",
             wrap("statistics.cross_validate", cli.cross_validate_rates)),
            (cli, "analytic_stationary",
             wrap("statistics.oracle", cli.analytic_stationary)),
        ]
        for name in _SNAPSHOT_SPANS:
            attr = name.split(".")[1]
            patches.append((statistics, attr, wrap(name, getattr(statistics, attr))))
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, fn in patches:
                setattr(obj, attr, fn)
            yield self
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)


def layer_metrics(spans: list, bytes_written: int, rate_checks_failed: int) -> dict:
    """Per-layer metrics of one traced round (every operation of a workload once).

    Call counts and times cover every call.  The step-derived figures
    (evals_per_step, resample_rounds, accepted_ratio, step_us and the
    trajectory counters) cover the simulate calls that returned a
    Trajectory, since an aborted run reports no step count.
    """
    total: dict = {}
    calls: dict = {}
    child = [0.0] * len(spans)
    for s in spans:
        d = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + d
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.parent >= 0:
            child[s.parent] += d

    def self_time(name):
        return sum(s.end - s.start - child[i]
                   for i, s in enumerate(spans) if s.name == name)

    completed = {i for i, s in enumerate(spans)
                 if s.name == "integrator.simulate" and s.result is not None}
    steps = particle_steps = modified = clipped = violations = 0
    step_time = 0.0
    for i in completed:
        traj = spans[i].result
        steps += traj.particle_steps // spans[i].rows
        particle_steps += traj.particle_steps
        modified += traj.modified_steps
        clipped += traj.clipped_steps
        violations += traj.violation_count
        step_time += spans[i].end - spans[i].start
    drift_in_steps = normal_calls = proposals = snapshots = 0
    snapshot_time = 0.0
    audit_points = normals_drawn = 0
    for s in spans:
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.name == "integrator.normals":
            normals_drawn += s.rows
        if s.name == "processes.drift" and parent == "realizability.audit":
            audit_points += s.rows
        if s.parent not in completed:
            continue
        if s.name == "processes.drift":
            drift_in_steps += 1
            proposals += s.rows
        elif s.name == "integrator.normals":
            normal_calls += 1
        elif s.name in _SNAPSHOT_SPANS:
            snapshots += s.name == "statistics.estimate_moments"
            snapshot_time += s.end - s.start
    step_time -= snapshot_time
    return {
        "processes.drift_calls": calls.get("processes.drift", 0),
        "processes.drift_s": total.get("processes.drift", 0.0),
        "processes.noise_factor_calls": calls.get("processes.noise_factor", 0),
        "processes.noise_factor_s": total.get("processes.noise_factor", 0.0),
        "processes.diffusion_matrix_calls": calls.get("processes.diffusion_matrix", 0),
        "processes.diffusion_matrix_s": total.get("processes.diffusion_matrix", 0.0),
        "processes.evals_per_step": drift_in_steps / steps if steps else 0.0,
        "integrator.normals_drawn": normals_drawn,
        "integrator.normals_s": total.get("integrator.normals", 0.0),
        "integrator.resample_rounds": normal_calls - steps,
        "integrator.accepted_ratio": particle_steps / proposals if proposals else 0.0,
        "integrator.step_us": 1e6 * step_time / steps if steps else 0.0,
        "integrator.self_s": self_time("integrator.simulate"),
        "integrator.modified_steps": modified,
        "integrator.clipped_steps": clipped,
        "integrator.violation_count": violations,
        "statistics.snapshots": snapshots,
        "statistics.snapshot_ms": 1e3 * snapshot_time / snapshots if snapshots else 0.0,
        "statistics.estimate_moments_s": total.get("statistics.estimate_moments", 0.0),
        "statistics.estimate_rates_s": total.get("statistics.estimate_rates", 0.0),
        "statistics.batch_statistics_s": total.get("statistics.batch_statistics", 0.0),
        "statistics.cross_validate_s": total.get("statistics.cross_validate", 0.0),
        "statistics.oracle_s": total.get("statistics.oracle", 0.0),
        "statistics.rate_checks_failed": rate_checks_failed,
        "realizability.audit_s": total.get("realizability.audit", 0.0),
        "realizability.audit_points": audit_points,
        "cli.config_s": total.get("cli.config", 0.0),
        "cli.write_s": total.get("cli.write", 0.0),
        "cli.bytes_written": bytes_written,
        "cli.self_s": self_time("cli.main"),
    }
