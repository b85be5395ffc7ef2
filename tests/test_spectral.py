"""Spectral embedding, k-means, and clustering accuracy tests."""

import itertools

import numpy as np
import pytest

from subclust import (
    SyntheticSpec,
    cluster,
    clustering_accuracy,
    default_solver_config,
    generate_synthetic,
    kmeans,
    prepare_dataset,
    solve_ssc,
)
from subclust.affinity import build_sm
from subclust.errors import ConfigError, DataError
from subclust.spectral import spectral_embed


def _block_affinity(sizes, weights, rng=None, noise=0.0):
    n = sum(sizes)
    W = np.zeros((n, n))
    start = 0
    for size, w in zip(sizes, weights):
        W[start : start + size, start : start + size] = w
        start += size
    if noise:
        bump = rng.random((n, n)) * noise
        W += (bump + bump.T) / 2.0
    np.fill_diagonal(W, 1.0)
    return W


def brute_force_accuracy(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    k = int(max(pred.max(), truth.max())) + 1
    best = 0
    for perm in itertools.permutations(range(k)):
        mapped = np.array([perm[p] for p in pred])
        best = max(best, int((mapped == truth).sum()))
    return 100.0 * best / len(pred)


class TestEmbedding:
    def test_two_blocks_two_distinct_rows(self):
        W = _block_affinity([4, 5], [0.5, 0.9])
        E = spectral_embed(W, 2)
        assert np.abs(E[:4] - E[0]).max() <= 1e-8
        assert np.abs(E[4:] - E[4]).max() <= 1e-8
        assert np.linalg.norm(E[0] - E[4]) > 0.1

    def test_all_ones_collapses(self):
        W = np.ones((9, 9))
        E = spectral_embed(W, 2)
        assert np.abs(E - E[0]).max() <= 1e-8

    def test_permutation_equivariance_of_geometry(self):
        rng = np.random.default_rng(0)
        W = rng.random((14, 14))
        W = (W + W.T) / 2.0
        E1 = spectral_embed(W, 3)
        perm = rng.permutation(14)
        E2 = spectral_embed(W[np.ix_(perm, perm)], 3)
        D1 = np.linalg.norm(E1[:, None, :] - E1[None, :, :], axis=2)
        D2 = np.linalg.norm(E2[:, None, :] - E2[None, :, :], axis=2)
        assert np.abs(D1[np.ix_(perm, perm)] - D2).max() <= 1e-8

    def test_rows_unit_norm_except_isolated(self):
        rng = np.random.default_rng(1)
        W = rng.random((10, 10))
        W = (W + W.T) / 2.0
        W[3, :] = 0.0
        W[:, 3] = 0.0
        with pytest.warns(UserWarning, match="zero-degree"):
            E = spectral_embed(W, 3)
        norms = np.linalg.norm(E, axis=1)
        assert np.all(E[3] == 0.0)
        keep = np.arange(10) != 3
        assert np.abs(norms[keep] - 1.0).max() <= 1e-12

    def test_shape(self):
        W = _block_affinity([3, 3, 3], [1.0, 1.0, 1.0])
        E = spectral_embed(W, 3)
        assert E.shape == (9, 3)

    def test_n_clusters_exceeds_n(self):
        with pytest.raises(ConfigError):
            spectral_embed(np.ones((3, 3)), 4)

    def test_n_clusters_below_two(self):
        with pytest.raises(ConfigError, match="2..3"):
            spectral_embed(np.ones((3, 3)), 1)


class TestKMeans:
    def test_k_equals_n(self):
        pts = np.random.default_rng(2).standard_normal((6, 3))
        labels = kmeans(pts, 6, seed=0)
        assert sorted(labels.tolist()) == list(range(6))

    def test_separated_blobs(self):
        rng = np.random.default_rng(3)
        pts = np.vstack([rng.standard_normal((30, 2)), rng.standard_normal((30, 2)) + 100.0])
        labels = kmeans(pts, 2, seed=7)
        assert clustering_accuracy(labels, np.repeat([0, 1], 30)) == 100.0

    def test_deterministic(self):
        pts = np.random.default_rng(4).standard_normal((40, 3))
        a = kmeans(pts, 4, seed=11)
        b = kmeans(pts, 4, seed=11)
        assert np.array_equal(a, b)

    def test_seed_changes_runs(self):
        # different seeds explore different initializations on ambiguous data
        pts = np.random.default_rng(5).standard_normal((30, 2))
        results = {tuple(kmeans(pts, 5, seed=s).tolist()) for s in range(8)}
        assert len(results) > 1

    def test_k_out_of_range(self):
        pts = np.zeros((4, 2))
        with pytest.raises(ConfigError):
            kmeans(pts, 5, seed=0)


class TestCluster:
    def test_perfect_three_blocks(self):
        W = _block_affinity([5, 6, 7], [0.9, 0.7, 0.8])
        labels = cluster(W, 3, seed=0)
        truth = np.repeat([0, 1, 2], [5, 6, 7])
        assert clustering_accuracy(labels, truth) == 100.0

    def test_noiseless_ssc_sm_pipeline(self):
        spec = SyntheticSpec(3, 3, 30, 15, 0.0, seed=2)
        ds = prepare_dataset(generate_synthetic(spec), normalize=True)
        C = solve_ssc(ds.matrix, default_solver_config("ssc"))
        W = build_sm(C)
        labels = cluster(W, 3, seed=5)
        assert clustering_accuracy(labels, ds.truth) == 100.0

    def test_permutation_invariance_of_accuracy(self):
        rng = np.random.default_rng(6)
        W = _block_affinity([6, 6, 6], [0.9, 0.9, 0.9], rng=rng, noise=0.05)
        truth = np.repeat([0, 1, 2], 6)
        acc1 = clustering_accuracy(cluster(W, 3, seed=3), truth)
        perm = rng.permutation(18)
        acc2 = clustering_accuracy(cluster(W[np.ix_(perm, perm)], 3, seed=3), truth[perm])
        assert acc1 == acc2


class TestAccuracy:
    def test_identical_labels(self):
        labels = np.array([0, 1, 2, 1, 0])
        assert clustering_accuracy(labels, labels) == 100.0

    def test_renamed_labels(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        renamed = np.array([2, 2, 0, 0, 1, 1])
        assert clustering_accuracy(renamed, truth) == 100.0

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 40))
        pred = rng.integers(0, k, n)
        truth = rng.integers(0, k, n)
        assert clustering_accuracy(pred, truth) == brute_force_accuracy(pred, truth)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(8)
        pred = rng.integers(0, 4, 30)
        truth = rng.integers(0, 4, 30)
        assert clustering_accuracy(pred, truth) == clustering_accuracy(truth, pred)

    def test_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pred = rng.integers(0, 5, 25)
            truth = rng.integers(0, 5, 25)
            acc = clustering_accuracy(pred, truth)
            assert 0.0 <= acc <= 100.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            clustering_accuracy(np.array([0, 1]), np.array([0, 1, 1]))

    def test_unbalanced_cluster_counts(self):
        # pred has fewer clusters than truth; padding keeps the matching valid
        pred = np.array([0, 0, 0, 0])
        truth = np.array([0, 0, 1, 2])
        assert clustering_accuracy(pred, truth) == 50.0
