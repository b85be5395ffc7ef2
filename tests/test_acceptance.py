"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criteria 5 and 6 need user-supplied benchmark data (see
README) and are skipped when SUBCLUST_DATA_DIR is not set.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from subclust import (
    AffinityConfig,
    DataMatrix,
    PresetTable,
    SyntheticSpec,
    build_affinity,
    build_knn_laplacian,
    build_sm,
    build_ssm,
    clustering_accuracy,
    default_solver_config,
    emit_table,
    generate_synthetic,
    load_dataset,
    normalize_columns,
    prepare_dataset,
    run_grid,
    solve_lrrsc,
    solve_lsr,
    solve_smr,
    solve_ssc,
)


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def _random_unit_columns(seed, d, n):
    rng = np.random.default_rng(seed)
    return normalize_columns(DataMatrix(rng.standard_normal((d, n))))


def _benchmark_dataset(name):
    """Load a user-supplied benchmark, or None when unavailable."""
    root = os.environ.get("SUBCLUST_DATA_DIR")
    if not root:
        return None
    root = Path(root)
    labels = root / f"{name}.labels"
    if not labels.exists():
        return None
    binary = root / f"{name}.bin"
    csv = root / f"{name}.csv"
    if binary.exists():
        return load_dataset(binary, labels, "binary")
    if csv.exists():
        return load_dataset(csv, labels, "csv")
    return None


def _prepared_benchmark(name):
    ds = _benchmark_dataset(name)
    if ds is None:
        pytest.skip(f"benchmark data for {name!r} not available (set SUBCLUST_DATA_DIR)")
    pipeline = PresetTable.builtin().pipeline(name)
    return prepare_dataset(ds, pipeline["pca_dim"], True), pipeline


def test_criterion_1_oracle_suite():
    with criterion("1 (oracle suite)"):
        t0 = time.perf_counter()

        # LSR: normal-equation residual on 50 random instances
        for seed in range(50):
            X = DataMatrix(np.random.default_rng(seed).standard_normal((5, 8)))
            lam = 0.1
            C = solve_lsr(X, default_solver_config("lsr", lam=lam))
            G = X.values.T @ X.values
            resid = np.max(np.abs((G + lam * np.eye(8)) @ C.values - G))
            assert resid <= 1e-8, f"LSR residual {resid:.2e} on seed {seed}"

        # SMR: stationarity residual on random instances
        for seed in range(20):
            X = _random_unit_columns(seed, 6, 10)
            cfg = default_solver_config("smr", lam=1.0)
            C = solve_smr(X, cfg)
            G = X.values.T @ X.values
            L_hat = build_knn_laplacian(X, 4, 0.01)
            resid = np.max(np.abs(cfg.lam * (G @ C.values) + C.values @ L_hat - cfg.lam * G))
            assert resid <= 1e-6 * max(1.0, np.abs(G).max())

        # SSC: exact zero diagonal and feasibility at convergence
        spec = SyntheticSpec(2, 2, 10, 15, 0.0, seed=5)
        subspaces = prepare_dataset(generate_synthetic(spec), normalize=True)
        for X in (subspaces.matrix, _random_unit_columns(1, 8, 25)):
            C = solve_ssc(X, default_solver_config("ssc", max_iter=20000))
            assert np.all(np.diag(C.values) == 0.0)
            assert C.report.converged
            assert C.report.primal_residual <= 2e-4

        # LRRSC: exact symmetry and relative feasibility at convergence
        for seed in range(5):
            X = _random_unit_columns(seed, 8, 12)
            cfg = default_solver_config("lrrsc")
            C = solve_lrrsc(X, cfg)
            assert np.max(np.abs(C.values - C.values.T)) <= 1e-10
            assert C.report.converged
            assert C.report.primal_residual <= 1e-4
            # the objective's l2,1 term, (objective - ||C||_*) / lam, against the fit
            fit_l21 = np.sum(np.linalg.norm(X.values - X.values @ C.values, axis=0))
            nuclear = np.sum(np.linalg.svd(C.values, compute_uv=False))
            reported = (C.report.objective - nuclear) / cfg.lam
            assert abs(fit_l21 - reported) <= 1e-3 * max(1.0, reported)

        # clustering accuracy equals the k! brute-force oracle exactly
        for seed in range(200):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(2, 7))
            n = int(rng.integers(k, 60))
            pred = rng.integers(0, k, n)
            truth = rng.integers(0, k, n)
            best = 0
            for perm in itertools.permutations(range(k)):
                mapped = np.take(perm, pred)
                best = max(best, int((mapped == truth).sum()))
            assert clustering_accuracy(pred, truth) == 100.0 * best / n

        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"


ACCEPTANCE_SPEC = SyntheticSpec(
    num_subspaces=5, subspace_dim=3, ambient_dim=50, points_per_subspace=30,
    noise_sigma=0.0, seed=7,
)


def test_criterion_2_noiseless_end_to_end():
    with criterion("2 (noiseless 16-combination recovery)"):
        t0 = time.perf_counter()
        ds = prepare_dataset(generate_synthetic(ACCEPTANCE_SPEC), normalize=True)
        grid = run_grid(ds, trials=20, master_seed=2024)
        assert not grid.errors, grid.errors
        assert len(grid.cells) == 16
        for key, cell in grid.cells.items():
            assert cell.mean >= 99.0, f"{key} mean {cell.mean:.2f} < 99"
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"end-to-end run took {elapsed:.1f}s"


def test_criterion_3_affinity_properties():
    with criterion("3 (affinity property suite)"):
        cfg = AffinityConfig(k_top=4, alpha=1.5)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            C = rng.standard_normal((9, 9))
            X = normalize_columns(DataMatrix(rng.standard_normal((6, 9))))
            for method in ("sm", "ssm", "svdm", "ipm"):
                W = build_affinity(method, C, X, cfg).values
                assert np.max(np.abs(W - W.T)) <= 1e-12, method
                assert W.min() >= 0.0, method
                assert np.all(np.isfinite(W)), method

            # top-k with k = n keeps everything
            full = build_ssm(C, AffinityConfig(k_top=9)).values
            assert np.array_equal(full, build_sm(C).values)

            # scale invariance where the construction is scale-free
            svdm_a = build_affinity("svdm", C, X, cfg).values
            svdm_b = build_affinity("svdm", 3.0 * C, X, cfg).values
            assert np.max(np.abs(svdm_a - svdm_b)) <= 1e-10


def test_criterion_4_determinism():
    with criterion("4 (byte-identical grid runs)"):
        spec = SyntheticSpec(3, 3, 24, 12, 0.0, seed=4)
        outputs = []
        for _ in range(2):
            ds = prepare_dataset(generate_synthetic(spec), normalize=True)
            grid = run_grid(ds, trials=20, master_seed=99)
            outputs.append(emit_table(grid, "csv").encode())
        assert outputs[0] == outputs[1]


def _preset_cell_mean(ds, pipeline, dataset_name, solver, affinity, trials=20, master_seed=0):
    presets = PresetTable.builtin()
    grid = run_grid(
        ds, presets, trials=trials, master_seed=master_seed,
        preset_name=dataset_name, n_clusters=pipeline["n_clusters"],
    )
    cell = grid.cells.get((solver, affinity))
    assert cell is not None, grid.errors.get((solver, affinity))
    return cell.mean, grid


def test_criterion_5_benchmark_reproduction():
    targets = [
        ("yaleb", "lrrsc", "ssm", 93.59, 5.0),
        ("usps", "lrrsc", "svdm", 90.30, 5.0),
        ("ar", "lrrsc", "ssm", 81.00, 6.0),
    ]
    available = [(n, s, a, v, tol) for n, s, a, v, tol in targets if _benchmark_dataset(n)]
    if not available:
        pytest.skip("no benchmark data available (set SUBCLUST_DATA_DIR)")
    with criterion("5 (benchmark preset reproduction)"):
        for name, solver, affinity, value, tol in available:
            ds, pipeline = _prepared_benchmark(name)
            mean, _ = _preset_cell_mean(ds, pipeline, name, solver, affinity)
            print(f"  {name} {solver}+{affinity}: mean={mean:.2f} target={value}+/-{tol}")
            assert abs(mean - value) <= tol


def test_criterion_6_qualitative_ordering():
    if _benchmark_dataset("yaleb") is None:
        pytest.skip("yaleb benchmark data not available (set SUBCLUST_DATA_DIR)")
    with criterion("6 (best/worst combination ordering)"):
        ds, pipeline = _prepared_benchmark("yaleb")
        _, grid = _preset_cell_mean(ds, pipeline, "yaleb", "lrrsc", "ssm")
        means = {key: cell.mean for key, cell in grid.cells.items()}
        assert len(means) == 16, grid.errors
        best = max(means, key=means.get)
        worst = min(means, key=means.get)
        print(f"  best={best} ({means[best]:.2f}), worst={worst} ({means[worst]:.2f})")
        assert best == ("lrrsc", "ssm")
        assert worst == ("ssc", "ssm")
