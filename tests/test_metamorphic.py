"""Metamorphic tests: reordering the samples reorders every stage's output.

Permuting the columns of X by P must give PCA output Y P, coefficients
P^T C P and affinities P^T W P, up to rounding: the products sum in another
order. Each bound sits a few times above the largest difference measured on
these instances, noted beside it. Relabelling the truth must leave the
accuracy bitwise equal, and so must flipping the signs of rows of X, which
only PCA's sign rule chooses, leave C, W and every trial.
"""

from dataclasses import replace

import numpy as np
import pytest

from subclust import (
    AFFINITIES,
    AffinityConfig,
    DataMatrix,
    SyntheticSpec,
    build_affinity,
    clustering_accuracy,
    default_solver_config,
    generate_synthetic,
    pca_project,
    prepare_dataset,
    run_grid,
    solve,
)

# (solver, lam): lrrsc's closed form holds at lam = 10 on these instances, and
# its ADMM runs at lam = 2 and 0.05; at 0.05 C is about 4e-7
CELLS = [("lsr", None), ("smr", None), ("ssc", None), ("lrrsc", 10.0), ("lrrsc", 2.0), ("lrrsc", 0.05)]
C_BOUND = 1e-13  # measured up to 1.6e-14 (ssc)
W_BOUND = 1e-13  # measured up to 2.5e-14 (ipm on ssc's C)
# svdm's row cosines of lrrsc's C at lam = 0.05 keep only its relative
# precision: measured up to 1.6e-9
SVDM_SMALL_C_BOUND = 1e-8


def _instance(seed):
    ds = prepare_dataset(generate_synthetic(SyntheticSpec(4, 4, 30, 15, 0.05, seed=seed)))
    perm = np.random.default_rng(100 + seed).permutation(ds.matrix.n)
    return ds, perm


def _config(solver, lam):
    return default_solver_config(solver) if lam is None else default_solver_config(solver, lam=lam)


def _assert_no_top_k_tie(C, k_top, bound):
    """ssm keeps the smaller row index on an exact tie, which no reordering
    keeps; a column whose k-th and next magnitudes lie within the bound could
    swap them, so such an instance cannot test ssm."""
    mags = -np.sort(-np.abs(C), axis=0)
    live = mags[k_top - 1] > 0.0
    assert np.all(mags[k_top - 1, live] - mags[k_top, live] > 100 * bound)


class TestColumnPermutation:
    @pytest.mark.parametrize("shape", [(80, 40), (300, 60), (20, 50), (40, 40)])
    @pytest.mark.parametrize("seed", range(3))
    def test_pca_output_is_permuted(self, shape, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(shape) * rng.uniform(1.0, 20.0, size=(shape[0], 1))
        perm = rng.permutation(shape[1])
        Y = pca_project(DataMatrix(values), 10).values
        Y_perm = pca_project(DataMatrix(values[:, perm]), 10).values
        # measured up to 4.0e-14 * max|X|
        assert np.abs(Y[:, perm] - Y_perm).max() <= 2e-13 * np.abs(values).max()

    @pytest.mark.parametrize("solver, lam", CELLS)
    @pytest.mark.parametrize("seed", range(3))
    def test_coefficients_and_affinities_are_permuted(self, solver, lam, seed):
        ds, perm = _instance(seed)
        X_perm = DataMatrix(ds.matrix.values[:, perm])
        cfg = _config(solver, lam)
        C = solve(solver, ds.matrix, cfg)
        C_perm = solve(solver, X_perm, cfg)
        if solver == "lrrsc":
            assert (C.report.iterations == 1) == (lam == 10.0)
        block = np.ix_(perm, perm)
        assert np.abs(C.values[block] - C_perm.values).max() <= C_BOUND
        acfg = AffinityConfig()
        _assert_no_top_k_tie(C.values, acfg.k_top, C_BOUND)
        for affinity in AFFINITIES:
            W = build_affinity(affinity, C.values, ds.matrix, acfg)
            W_perm = build_affinity(affinity, C_perm.values, X_perm, acfg)
            bound = SVDM_SMALL_C_BOUND if (affinity, lam) == ("svdm", 0.05) else W_BOUND
            assert np.abs(W[block] - W_perm).max() <= bound, affinity


def _flip_rows(ds, seed):
    signs = np.where(np.random.default_rng(200 + seed).random(ds.matrix.d) < 0.5, -1.0, 1.0)
    return replace(ds, matrix=DataMatrix(signs[:, None] * ds.matrix.values))


class TestRowSigns:
    """Every stage depends on X only through X^T X, the s and Vt of its SVD,
    column norms and pairwise distances, so negating rows of X changes no bit
    of C, W or the accuracies."""

    @pytest.mark.parametrize("solver, lam", CELLS)
    @pytest.mark.parametrize("seed", range(3))
    def test_coefficients_and_affinities_are_bitwise_equal(self, solver, lam, seed):
        ds, _ = _instance(seed)
        X_flipped = _flip_rows(ds, seed).matrix
        cfg = _config(solver, lam)
        C = solve(solver, ds.matrix, cfg)
        C_flipped = solve(solver, X_flipped, cfg)
        assert C_flipped.values.tobytes() == C.values.tobytes()
        assert C_flipped.report == C.report
        for affinity in AFFINITIES:
            W = build_affinity(affinity, C.values, ds.matrix, AffinityConfig())
            W_flipped = build_affinity(affinity, C_flipped.values, X_flipped, AffinityConfig())
            assert W_flipped.tobytes() == W.tobytes(), affinity

    @pytest.mark.parametrize("seed", range(2))
    def test_grid_trials_are_equal(self, seed):
        ds, _ = _instance(seed)
        grid = run_grid(ds, trials=3, master_seed=seed)
        flipped = run_grid(_flip_rows(ds, seed), trials=3, master_seed=seed)
        assert flipped.errors == grid.errors
        assert {key: cell.per_trial for key, cell in flipped.cells.items()} == {
            key: cell.per_trial for key, cell in grid.cells.items()
        }


class TestRelabelledTruth:
    @pytest.mark.parametrize("seed", range(20))
    def test_accuracy_bitwise_equal(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 8))
        n = int(rng.integers(k, 60))
        pred = rng.integers(0, k, n)
        truth = rng.integers(0, k, n)
        relabel = rng.permutation(k) + int(rng.integers(0, 5))  # any distinct ids
        assert clustering_accuracy(pred, relabel[truth]) == clustering_accuracy(pred, truth)
