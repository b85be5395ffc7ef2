"""Measure one workload: set up, time units for a fixed span, check every output.

`measure` returns a record holding the end-to-end metrics (untraced run) or
the per-layer metrics (traced run), the environment, every sample taken and
every failed cell with its reason. `run.py` is the command-line entry.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import platform
import resource
import statistics
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import CliWorkload, GridWorkload, Shape

ROOT = Path(__file__).resolve().parent.parent
SETUP_PASSES = 5  # set-up is repeated and its median reported
MIN_UNITS = 2  # at least one repeat, so every run checks that outputs repeat bytewise
HOLDOUT_SEED = 7919  # kept out of development; a perf claim is confirmed on it

# Shapes follow the paper's datasets: subspace count, ambient dimension, noise,
# presets and d/n are the paper-shaped ones; points per subspace, PCA and
# subspace dimension are halved so that a unit fits several times into one
# run, and the trial count keeps each layer's share of a unit. See README.md.
WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload("grid-yaleb", "yaleb", Shape(10, 4, 2016, 32, 0.075, 30, 5)),
        GridWorkload("grid-ar", "ar", Shape(20, 3, 2016, 13, 0.065, 60, 5)),
        CliWorkload("run-usps", "usps", Shape(10, 5, 256, 50, 0.08, None, 10)),
    )
}

# A seconds-long shape that runs each workload's code path (warm-up and tests).
SMOKE_SHAPE = Shape(3, 2, 20, 8, 0.01, 6, 2)


def smoke(workload):
    """The same workload on the smoke shape (no PCA when the workload has none)."""
    shape = SMOKE_SHAPE if workload.shape.pca_dim else replace(SMOKE_SHAPE, pca_dim=None)
    return type(workload)(workload.name, workload.preset, shape)


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _warm_up(workload, workdir: str) -> None:
    """Start the BLAS pool and finish lazy imports before anything is timed."""
    a = np.random.default_rng(0).standard_normal((300, 300))
    np.linalg.svd(a @ a.T)
    w = smoke(workload)
    state = w.setup(0, workdir)
    w.check(state, w.execute(state))


def _run_unit(workload, state, checks: list, tracer=None) -> float:
    """Time one unit (traced when a tracer is given), then check its outputs."""
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        outputs = workload.execute(state)
        elapsed = time.perf_counter() - t0
    checks.append(workload.check(state, outputs))
    return elapsed


def _unit_loop(run_unit, seconds: float, min_units: int) -> list[float]:
    """Run units while the next one is expected to end within `seconds`."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(run_unit())
        elapsed = time.perf_counter() - start
        if len(samples) >= min_units and elapsed + statistics.median(samples) > seconds:
            return samples


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    _warm_up(workload, workdir)
    tracer = tracing.Tracer()
    setup_samples, setup_digests = [], []
    with tracer if trace else contextlib.nullcontext():
        for _ in range(SETUP_PASSES):
            t0 = time.perf_counter()
            state = workload.setup(seed, workdir)
            setup_samples.append(time.perf_counter() - t0)
            setup_digests.append(workload.setup_digest(state))

    checks: list = []
    base, layers = [], None
    if trace:
        # untraced and traced units alternate; the untraced ones are the base
        # of the tracing overhead
        tracer.phase = "run"
        modes = itertools.cycle((None, tracer))
        both = _unit_loop(lambda: _run_unit(workload, state, checks, next(modes)), seconds, MIN_UNITS)
        base, samples = both[0::2], both[1::2]
        layers = tracing.layer_metrics(tracer.spans, len(samples), SETUP_PASSES)
        layers["trace.overhead_frac"] = statistics.median(samples) / statistics.median(base) - 1
    else:
        samples = _unit_loop(lambda: _run_unit(workload, state, checks), seconds, MIN_UNITS)

    problems = [p for c in checks for p in c.problems]
    if len(set(setup_digests)) != 1:
        problems.append("set-up passes made different inputs from one seed")
    if len({c.digest for c in checks}) != 1:
        problems.append("repeated units gave outputs that are not byte-identical")
    first = checks[0]
    # An operation is one cell of the workload. Every unit re-runs every cell,
    # and the repeat check above makes all units agree bytewise, failures and
    # their reasons included; so each cell counts once, and the same code and
    # seed give the same count however many units fit into `seconds`.
    attempted = first.attempted
    failed = len(first.failures)
    means = list(first.cell_means.values())
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "shape": asdict(workload.shape),
        "env": environment(),
        "setup_samples_s": setup_samples,
        "unit_samples_s": samples,
        "untraced_samples_s": base,  # traced run only: the base of the overhead
        "digest": first.digest,
        "cell_means": first.cell_means,
        "failures": first.failures,
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "run_s": statistics.median(samples),
            "setup_s": statistics.median(setup_samples),
            "acc_mean_pct": sum(means) / len(means) if means else 0.0,
            "failed_cell_frac": failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "per_layer": layers,
        "spans": [s.__dict__ for s in tracer.spans],
    }


def result_line(record: dict, spec: dict) -> dict:
    """The result line: exactly the metrics BENCHMARK.json lists for this mode."""
    group = "per_layer" if record["trace"] else "end_to_end"
    values = record[group]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]
        },
    }
