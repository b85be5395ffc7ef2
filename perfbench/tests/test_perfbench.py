"""Tests of the benchmark itself: smoke shapes, so the whole file runs in seconds.

Run from the repository root:  python -m pytest perfbench/tests -q
No test here gates on a timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(group):
    return [m["name"] for m in SPEC[group]]


def test_workloads_match_benchmark_json():
    assert list(bench.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_smoke_run_is_correct_and_emits_the_end_to_end_metrics(name, tmp_path):
    record = bench.measure(bench.smoke(bench.WORKLOADS[name]), 0, 0.0, False, str(tmp_path))
    assert record["correct"], record["problems"]
    assert len(record["unit_samples_s"]) == bench.MIN_UNITS
    assert record["attempted"] >= 1
    line = bench.result_line(record, SPEC)
    assert list(line["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert record["env"]["numpy"] and record["env"]["blas_threads"] is not None


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_smoke_run_restores_wrappers_and_reports_layers(name, tmp_path):
    originals = [(m, attr, getattr(m, attr)) for m, attr, _, _ in tracing.HOOKS]
    record = bench.measure(bench.smoke(bench.WORKLOADS[name]), 0, 0.0, True, str(tmp_path))
    assert all(getattr(m, attr) is fn for m, attr, fn in originals)
    assert record["correct"], record["problems"]
    assert list(bench.result_line(record, SPEC)["metrics"]) == _names("per_layer")
    spans = [tracing.Span(**s) for s in record["spans"]]
    assert spans and all(t >= 0 for t in tracing.self_times(spans).values())
    layers = record["per_layer"]
    assert layers["solvers.solve_calls"] > 0 and layers["spectral.kmeans_calls"] > 0
    assert layers["data.generate_s"] > 0


def test_operation_counts_do_not_depend_on_how_many_units_fit(tmp_path):
    workload = bench.smoke(bench.WORKLOADS["run-usps"])
    short = bench.measure(workload, 0, 0.0, False, str(tmp_path))
    longer = bench.measure(workload, 0, 2.0, False, str(tmp_path))
    assert len(longer["unit_samples_s"]) > len(short["unit_samples_s"])
    assert short["attempted"] == longer["attempted"] == 8
    assert short["failed"] == longer["failed"] == len(short["failures"])


def test_cli_workload_counts_every_load_and_solve(tmp_path):
    record = bench.measure(bench.smoke(bench.WORKLOADS["run-usps"]), 0, 0.0, True, str(tmp_path))
    # the dump path loads and solves once more than run_experiment does
    assert record["per_layer"]["solvers.solve_calls"] == 16
    assert record["per_layer"]["data.load_calls"] == 16


def test_tracer_restores_originals_after_an_exception():
    originals = [(m, attr, getattr(m, attr)) for m, attr, _, _ in tracing.HOOKS]
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert tracing.HOOKS[0][0].run_grid is not originals[0][2]
            1 / 0
    assert all(getattr(m, attr) is fn for m, attr, fn in originals)


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        tracing.Span(0, "parent", None, "run", 0, 100),
        tracing.Span(1, "child", 0, "run", 10, 30),
        tracing.Span(2, "child", 0, "run", 50, 90),
        tracing.Span(3, "grandchild", 2, "run", 60, 70),
    ]
    assert tracing.self_times(spans) == {0: 40, 1: 20, 2: 30, 3: 10}


def test_grid_check_rejects_a_tampered_table(tmp_path):
    workload = bench.smoke(bench.WORKLOADS["grid-yaleb"])
    state = workload.setup(0, str(tmp_path))
    grid, csv = workload.execute(state)
    assert workload.check(state, (grid, csv)).problems == []
    lines = csv.splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[2], "0.00", 1)
    assert workload.check(state, (grid, "\n".join(lines) + "\n")).problems


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10.0] * 10, [8.0] * 10, "lower", "improved"),
        ([10.0, 10.1] * 5, [10.2, 10.0] * 5, "lower", "no worse than the bound"),
        ([10.0] * 10, [12.0] * 10, "lower", "worse"),
        ([80.0] * 10, [85.0] * 10, "higher", "improved"),
        ([8.0, 12.0] * 5, [9.0, 13.0] * 5, "lower", "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    row = compare.verdict(parent, change, list(zip(parent, change)), better, 0.1)
    assert row["verdict"] == expected


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-yaleb", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
