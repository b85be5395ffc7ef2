"""Spans around the program's layers, recorded from outside the program.

`Tracer.install()` replaces the module attributes through which the layers
call each other (`subclust.harness.solve`, `subclust.cli.cluster`,
`subclust.solvers.singular_value_threshold`, ...) with wrappers that record a
span per call; `Tracer.restore()` puts the originals back. The modules import
names directly, so a wrapper has to sit at the attribute its caller looks up.

A span has a name, a start, an end (integer nanoseconds) and a parent span.
Spans stay in memory until the run writes them out. `layer_metrics` turns
them into the per-layer numbers of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from subclust import cli, data, harness, solvers, spectral

SOLVERS = solvers.SOLVERS
AFFINITIES = harness.AFFINITY_ROWS


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    phase: str  # "setup" or "run"
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _solver_span(solver, *args, **kwargs) -> str:
    return f"solvers.{solver}"


def _affinity_span(method, *args, **kwargs) -> str:
    return f"affinity.{method}"


def _solver_report(span: Span, result) -> None:
    report = result.report
    span.attrs.update(
        iterations=report.iterations,
        converged=bool(report.converged),
        objective=report.objective,
        residual=report.primal_residual,
    )


def _svt_zero(span: Span, result) -> None:
    span.attrs["zero"] = not result.any()


# (module, attribute its caller looks up, span name or a function of the call's
# arguments giving it, observer of the call's result)
HOOKS = (
    (harness, "run_grid", "harness.run_grid", None),
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness, "emit_table", "harness.emit_table", None),
    (harness, "solve", _solver_span, _solver_report),
    (harness, "build_affinity", _affinity_span, None),
    (harness, "spectral_embed", "spectral.embed", None),
    (harness, "kmeans", "spectral.kmeans", None),
    (harness, "clustering_accuracy", "spectral.accuracy", None),
    (harness, "load_dataset", "data.load", None),
    (harness, "prepare_dataset", "data.prepare", None),
    (cli, "main", "cli.main", None),
    (cli, "run_experiment", "harness.run_experiment", None),
    (cli, "solve", _solver_span, _solver_report),
    (cli, "build_affinity", _affinity_span, None),
    (cli, "cluster", "spectral.cluster", None),
    (cli, "prepare_dataset", "data.prepare", None),
    (cli, "save_matrix_binary", "data.save", None),
    (cli, "save_labels", "data.save", None),
    (spectral, "spectral_embed", "spectral.embed", None),
    (spectral, "kmeans", "spectral.kmeans", None),
    (solvers, "singular_value_threshold", "solvers.svt", _svt_zero),
    (data, "generate_synthetic", "data.generate", None),
    (data, "prepare_dataset", "data.prepare", None),
    (data, "save_dataset", "data.save", None),
)


class Tracer:
    """Records spans while installed; a context manager restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def _wrap(self, original, name, observe):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span_name = name(*args, **kwargs) if callable(name) else name
            span = Span(len(self.spans), span_name, parent, self.phase, time.perf_counter_ns())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if observe is not None:
                observe(span, result)
            return result

        return traced

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, observe in HOOKS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, observe))
        return self

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the time its child spans cover, in nanoseconds."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0, span.start_ns
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start_ns):
            start = max(child.start_ns, reach)
            if child.end_ns > start:
                covered += child.end_ns - start
                reach = child.end_ns
        out[span.id] = span.end_ns - span.start_ns - covered
    return out


def layer_metrics(spans: list[Span], units: int, setup_passes: int) -> dict[str, float]:
    """Per-layer numbers: timed-section spans per unit, set-up spans per set-up pass.

    A layer that runs in both phases (only `data.prepare` can) adds its per-pass
    set-up share to its per-unit share.
    """
    run = [s for s in spans if s.phase == "run"]
    setup = [s for s in spans if s.phase == "setup"]
    selfs = self_times(spans)

    def named(group, *names):
        return [s for s in group if s.name in names]

    def seconds(group, *names):
        return sum(s.seconds for s in named(group, *names))

    def mean_attr(group, attr):
        values = [float(s.attrs[attr]) for s in group]
        return sum(values) / len(values) if values else 0.0

    def self_seconds(group, *names):
        return sum(selfs[s.id] for s in named(group, *names)) / 1e9

    m = {}
    for solver in SOLVERS:
        m[f"solvers.{solver}_s"] = seconds(run, f"solvers.{solver}") / units
    m["solvers.solve_calls"] = len(named(run, *(f"solvers.{s}" for s in SOLVERS))) / units
    svt = named(run, "solvers.svt")
    m["solvers.svt_calls"] = len(svt) / units
    m["solvers.svt_s"] = seconds(run, "solvers.svt") / units
    m["solvers.svt_zero_frac"] = sum(s.attrs["zero"] for s in svt) / len(svt) if svt else 0.0
    for solver in ("lrrsc", "ssc"):
        solves = named(run, f"solvers.{solver}")
        m[f"solvers.{solver}_iters"] = mean_attr(solves, "iterations")
        m[f"solvers.{solver}_converged"] = mean_attr(solves, "converged")
        m[f"solvers.{solver}_objective"] = mean_attr(solves, "objective")
        m[f"solvers.{solver}_residual"] = mean_attr(solves, "residual")
    for method in AFFINITIES:
        m[f"affinity.{method}_s"] = seconds(run, f"affinity.{method}") / units
    m["affinity.calls"] = len(named(run, *(f"affinity.{a}" for a in AFFINITIES))) / units
    for stage in ("kmeans", "embed"):
        m[f"spectral.{stage}_s"] = seconds(run, f"spectral.{stage}") / units
        m[f"spectral.{stage}_calls"] = len(named(run, f"spectral.{stage}")) / units
    m["spectral.cluster_s"] = seconds(run, "spectral.cluster") / units
    m["spectral.accuracy_s"] = seconds(run, "spectral.accuracy") / units
    m["data.generate_s"] = seconds(setup, "data.generate") / setup_passes
    m["data.prepare_s"] = (
        seconds(setup, "data.prepare") / setup_passes + seconds(run, "data.prepare") / units
    )
    m["data.load_s"] = seconds(run, "data.load") / units
    m["data.load_calls"] = len(named(run, "data.load")) / units
    m["data.save_s"] = seconds(run, "data.save") / units
    m["harness.self_s"] = self_seconds(run, "harness.run_grid", "harness.run_experiment") / units
    m["harness.emit_s"] = seconds(run, "harness.emit_table") / units
    m["cli.self_s"] = self_seconds(run, "cli.main") / units
    return m
