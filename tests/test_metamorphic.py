"""Metamorphic tests: reordering the samples reorders every stage's output.

Permuting the columns of X by P must give PCA output Y P, coefficients
P^T C P and affinities P^T W P, up to rounding: the products sum in another
order. Each bound sits a few times above the largest difference measured on
these instances, noted beside it. Relabelling the truth must leave the
accuracy bitwise equal. No stage fixes the sign of an eigenvector: flipping
the signs of rows of X, as a PCA row's sign may flip, must leave C, W and
every trial bitwise equal, and flipping columns of the spectral embedding
must leave every k-means label.
"""

from dataclasses import replace

import numpy as np
import pytest

import subclust.harness as harness
import subclust.spectral as spectral
from subclust import (
    AFFINITIES,
    AffinityConfig,
    DataMatrix,
    SyntheticSpec,
    build_affinity,
    cluster,
    clustering_accuracy,
    default_solver_config,
    generate_synthetic,
    kmeans,
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
        # a row's sign is eigh's, which the reordering may flip; aligned in
        # sign, measured up to 4.8e-14 * max|X|
        signs = np.where(np.sum(Y[:, perm] * Y_perm, axis=1) < 0, -1.0, 1.0)[:, None]
        assert np.abs(signs * Y[:, perm] - Y_perm).max() <= 2e-13 * np.abs(values).max()

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


def _flip_columns(E, seed):
    """E with a random set of its columns negated, at least one of them."""
    flips = np.random.default_rng(300 + seed).random(E.shape[1]) < 0.5
    flips[seed % E.shape[1]] = True
    return np.where(flips, -E, E)


def _flipping_embed(seed):
    """spectral_embed with _flip_columns applied to its output."""
    embed = spectral.spectral_embed
    return lambda W, n_clusters: _flip_columns(embed(W, n_clusters), seed)


class TestEmbeddingColumnSigns:
    """k-means sees its points only through products of two entries of one
    column (the -2 p.c GEMM, |c|^2), squared differences and center means,
    which negate exactly, so the sign of an embedding column, which eigh
    chooses, changes no label."""

    SEEDS = [0, 1, 7, 42, 7919]

    @pytest.mark.parametrize("case", range(12))
    def test_kmeans_labels_of_unit_rows(self, case):
        rng = np.random.default_rng(400 + case)
        n, k = int(rng.integers(30, 401)), int(rng.integers(2, 21))
        points = rng.standard_normal((n, k)) + 3.0 * rng.standard_normal((k, k))[rng.integers(0, k, n)]
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        expected = kmeans(points, k, self.SEEDS)
        flipped = kmeans(_flip_columns(points, case), k, self.SEEDS)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(flipped, expected))

    @pytest.mark.parametrize("solver, affinity", [("lsr", "sm"), ("smr", "ipm"), ("ssc", "ssm")])
    @pytest.mark.parametrize("seed", range(3))
    def test_cluster_labels(self, solver, affinity, seed, monkeypatch):
        ds, _ = _instance(seed)
        C = solve(solver, ds.matrix, default_solver_config(solver))
        W = build_affinity(affinity, C.values, ds.matrix, AffinityConfig())
        E = spectral.spectral_embed(W, 4)
        expected = kmeans(E, 4, self.SEEDS)
        flipped = kmeans(_flip_columns(E, seed), 4, self.SEEDS)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(flipped, expected))
        labels = cluster(W, 4, seed).labels
        monkeypatch.setattr(spectral, "spectral_embed", _flipping_embed(seed))
        assert cluster(W, 4, seed).labels.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("seed", range(2))
    def test_grid_trials_are_equal(self, seed, monkeypatch):
        ds, _ = _instance(seed)
        grid = run_grid(ds, trials=3, master_seed=seed)
        monkeypatch.setattr(harness, "spectral_embed", _flipping_embed(seed))
        flipped = run_grid(ds, trials=3, master_seed=seed)
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
