"""Spectral embedding, k-means, and clustering accuracy tests."""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import subclust.spectral as spectral
from subclust import (
    AffinityConfig,
    DataMatrix,
    SyntheticSpec,
    cluster,
    clustering_accuracy,
    default_solver_config,
    generate_synthetic,
    kmeans,
    prepare_dataset,
    solve_ssc,
)
from subclust.affinity import AFFINITIES, build_affinity, build_sm
from subclust.data import squared_distances
from subclust.errors import ConfigError, DataError
from subclust.spectral import _lloyd, _seed_restarts, spectral_embed


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


def _table(points):
    """The squared-distance table kmeans seeds from."""
    return squareform(pdist(points, "sqeuclidean"))


def _embed_out_of_place(W, n_clusters):
    """Reference spectral_embed of a valid W, each n x n step out of place."""
    degrees = W.sum(axis=1)
    isolated = degrees == 0.0
    inv_root = np.zeros(len(W))
    inv_root[~isolated] = 1.0 / np.sqrt(degrees[~isolated])
    sym = inv_root[:, None] * W * inv_root[None, :]
    sym = (sym + sym.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    top = eigvecs[:, -n_clusters:][:, ::-1].copy()
    top_vals = eigvals[-n_clusters:][::-1]
    top[:, np.abs(top_vals) <= 1e-12 * max(1.0, np.abs(eigvals).max())] = 0.0
    norms = np.linalg.norm(top, axis=1)
    embedding = top / np.where(norms > 0, norms, 1.0)[:, None]
    embedding[isolated, :] = 0.0
    return embedding


def _nearly_symmetric(seed, n=30):
    """A random W symmetric only within 1e-12, so its symmetrization rounds."""
    rng = np.random.default_rng(seed)
    W = rng.random((n, n))
    return (W + W.T) / 2.0 + 1e-14 * rng.random((n, n))


class TestEmbedding:
    @pytest.mark.parametrize(
        "W, n_clusters",
        [
            (_nearly_symmetric(0), 3),
            (_block_affinity([10, 12, 8], [0.9, 0.7, 0.8], np.random.default_rng(1), 0.05), 3),
            (np.ones((9, 9)), 2),
        ],
        ids=["nearly-symmetric", "blocks", "all-ones"],
    )
    def test_matches_out_of_place_bitwise(self, W, n_clusters):
        assert spectral_embed(W, n_clusters).tobytes() == _embed_out_of_place(W, n_clusters).tobytes()

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


def _defects(what, square):
    """The defects data.checked_matrix rejects in a matrix named what, with its messages.

    A matrix a stage needs square is also checked with a non-square 2-D one.
    """
    rows = [
        ("1-D", np.ones(3), f"{what} must be {'square' if square else '2-D'}, got shape (3,)"),
        ("empty", np.zeros((0, 0)), f"{what} is empty, got shape (0, 0)"),
    ]
    if square:
        rows.insert(0, ("non-square", np.ones((3, 4)), f"{what} must be square, got shape (3, 4)"))
    for name, bad in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        rows.append((name, np.where(np.eye(3) > 0, 1.0, bad), f"{what} contains non-finite entries"))
    return [pytest.param(matrix, message, id=name) for name, matrix, message in rows]


class TestAffinityCheck:
    """spectral_embed checks every W it receives, raw or built, and cluster through it."""

    @pytest.mark.parametrize(
        "consume",
        [lambda W: spectral_embed(W, 2), lambda W: cluster(W, 2)],
        ids=["spectral_embed", "cluster"],
    )
    @pytest.mark.parametrize(
        "W, message",
        [
            *_defects("affinity matrix", square=True),
            pytest.param(
                np.array([[0.0, 1.0], [2.0, 0.0]]), "affinity matrix is not symmetric", id="asymmetric"
            ),
            pytest.param(
                np.array([[0.0, -1.0], [-1.0, 0.0]]),
                "affinity matrix has negative entries",
                id="negative",
            ),
        ],
    )
    def test_defective_affinity_rejected(self, consume, W, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            consume(W)

    def test_overflowed_builder_output_rejected(self):
        with np.errstate(over="ignore"):
            W = build_sm(np.full((4, 4), 1e308))  # (|C| + |C|^T) / 2 is inf
        with pytest.raises(DataError, match="non-finite"):
            cluster(W, 2)


class TestMatrixCheck:
    """C, k-means' points and X pass the check W passes, with the same messages."""

    @pytest.mark.parametrize("method", AFFINITIES)
    @pytest.mark.parametrize("C, message", _defects("coefficient matrix", square=True))
    def test_defective_coefficients_rejected(self, method, C, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build_affinity(method, C, cfg=AffinityConfig(k_top=1))

    @pytest.mark.parametrize("points, message", _defects("point matrix", square=False))
    def test_defective_points_rejected(self, points, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            kmeans(points, 2, [0])

    @pytest.mark.parametrize("X, message", _defects("data matrix", square=False))
    def test_defective_data_matrix_rejected(self, X, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            DataMatrix(X)


class TestKMeans:
    def test_k_equals_n(self):
        pts = np.random.default_rng(2).standard_normal((6, 3))
        labels = kmeans(pts, 6, [0])[0]
        assert sorted(labels.tolist()) == list(range(6))

    def test_separated_blobs(self):
        rng = np.random.default_rng(3)
        pts = np.vstack([rng.standard_normal((30, 2)), rng.standard_normal((30, 2)) + 100.0])
        labels = kmeans(pts, 2, [7])[0]
        assert clustering_accuracy(labels, np.repeat([0, 1], 30)) == 100.0

    def test_deterministic(self):
        pts = np.random.default_rng(4).standard_normal((40, 3))
        a = kmeans(pts, 4, [11])[0]
        b = kmeans(pts, 4, [11])[0]
        assert np.array_equal(a, b)

    def test_seed_changes_runs(self):
        # different seeds explore different initializations on ambiguous data
        pts = np.random.default_rng(5).standard_normal((30, 2))
        results = {tuple(kmeans(pts, 5, [s])[0].tolist()) for s in range(8)}
        assert len(results) > 1

    def test_k_out_of_range(self):
        pts = np.zeros((4, 2))
        with pytest.raises(ConfigError):
            kmeans(pts, 5, [0])

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "a"])
    def test_bad_seed(self, seed):
        # True is no seed 1, and -1 and 1.5 must not reach default_rng
        pts = np.random.default_rng(6).standard_normal((8, 2))
        with pytest.raises(ConfigError, match="seed"):
            kmeans(pts, 2, [0, seed])
        with pytest.raises(ConfigError, match="seed"):
            cluster(_block_affinity([3, 3, 3], [0.9, 0.8, 0.7]), 3, seed=seed)

    def test_peak_at_n500(self):
        # the distance table and a batch's 100 Lloyd chains; with a copy of
        # the points per chain 6.9
        points = _unit_embedding(500, 10, 0)
        tracemalloc.start()
        try:
            kmeans(points, 10, range(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 8 * 500**2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points(self, bad):
        pts = np.random.default_rng(6).standard_normal((8, 2))
        pts[3, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            kmeans(pts, 2, [0])

    def test_overflowing_squared_distances(self):
        # at 1e155 the squared distances overflow, and the k-means++ cdf would
        # turn NaN; at 1e150 every distance, total and inertia is finite
        pts = np.random.default_rng(0).standard_normal((60, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"scale .*e\+155 overflow"):
                kmeans(pts * 1e155, 4, range(5))
            assert len(kmeans(pts * 1e150, 4, range(5))) == 5


def _ref_kmeans_plus_plus(points, k, rng):
    """k-means++ seeding as it was written first: rng.choice draws each center,
    or floor(u * n) of a double u where every point coincides with a center."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = int(rng.choice(n, p=closest / total))
        else:
            idx = int(rng.random() * n)
        centers[j] = points[idx]
        closest = np.minimum(closest, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _ref_assign(points, centers):
    d2 = (
        np.sum(points * points, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )
    labels = np.argmin(d2, axis=1)
    return labels, np.maximum(d2[np.arange(points.shape[0]), labels], 0.0)


def _ref_lloyd(points, k, rng):
    """Lloyd's iteration as it was written first: one mean per cluster."""
    centers = _ref_kmeans_plus_plus(points, k, rng)
    labels, dist = _ref_assign(points, centers)
    for _ in range(100):
        for j in range(k):
            mask = labels == j
            if np.any(mask):
                centers[j] = points[mask].mean(axis=0)
            else:
                centers[j] = points[int(np.argmax(dist))]
        new_labels, dist = _ref_assign(points, centers)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return labels, float(dist.sum())


def _ref_kmeans(points, k, seed):
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(10):
        labels, inertia = _ref_lloyd(points, k, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def _unit_embedding(n, k, seed):
    """Unit-norm rows around k directions, shaped like a spectral embedding."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((k, k))[rng.integers(0, k, n)] + 0.3 * rng.standard_normal((n, k))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _duplicates(seed):
    """40 points on 3 distinct positions, clustered with k = 5."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, 4))[rng.integers(0, 3, 40)], 5


def _underflowing_duplicates(seed):
    """30 points on 3 positions 1.5e-162 apart on a line, clustered with k = 4.

    The squared distance of neighbouring positions underflows to 0 and that
    of the outer two does not. So closest sums to 0 one step after a middle
    first center and two steps after an outer one: one batch mixes both draws.
    """
    positions = np.array([[0.0, 0.0], [1.5e-162, 0.0], [3e-162, 0.0]])
    return positions[np.random.default_rng(seed).integers(0, 3, 30)], 4


_REFERENCE_CASES = [
    pytest.param(_unit_embedding(260, 20, 0), 20, id="n260-k20"),
    pytest.param(_unit_embedding(260, 20, 1), 20, id="n260-k20-b"),
    pytest.param(_unit_embedding(320, 10, 2), 10, id="n320-k10"),
    pytest.param(_unit_embedding(320, 10, 3), 10, id="n320-k10-b"),
    # k above the 3 distinct points: once they are all centers, closest sums to
    # 0 and the draw takes floor(u * n) of its double u; a repeated center loses every
    # argmin tie, so its cluster is empty and gets re-seeded
    pytest.param(*_duplicates(4), id="duplicates"),
    pytest.param(*_duplicates(5), id="duplicates-b"),
    pytest.param(*_underflowing_duplicates(9), id="duplicates-underflow"),
    pytest.param(np.random.default_rng(6).standard_normal((12, 3)), 12, id="k-equals-n"),
    pytest.param(np.random.default_rng(7).standard_normal((30, 3)), 1, id="k-one"),
]


def _seed_and_lloyd(points, k, seeds):
    """Each seed's restart as one chain of a lockstep seeding and Lloyd run."""
    rngs = [np.random.default_rng(s) for s in seeds]
    rows = _seed_restarts(_table(points), k, rngs, 1)[:, 0]
    return _lloyd(points, points[rows])


class TestAgainstReferenceKMeans:
    """kmeans against the per-cluster loop and rng.choice draw it replaced:
    bitwise-equal labels for points of two or more columns, which every
    spectral embedding has."""

    @pytest.mark.parametrize("points, k", _REFERENCE_CASES)
    @pytest.mark.parametrize("seed", [0, 17])
    def test_same_labels(self, points, k, seed):
        assert kmeans(points, k, [seed])[0].tobytes() == _ref_kmeans(points, k, seed).tobytes()

    @pytest.mark.parametrize("points, k", _REFERENCE_CASES)
    def test_batch_same_labels_per_seed(self, points, k):
        seeds = [100 + i for i in range(10)]
        refs = [_ref_kmeans(points, k, seed).tobytes() for seed in seeds]
        for count in (1, 5, 10):
            batch = kmeans(points, k, seeds[:count])
            assert [labels.tobytes() for labels in batch] == refs[:count]

    def test_seeds_beyond_one_batch_equal_one_seed_calls(self):
        points = _unit_embedding(120, 6, 10)
        seeds = list(range(200, 225))  # a batch of 20 seeds, then one of 5
        singles = [kmeans(points, 6, [seed])[0].tobytes() for seed in seeds]
        assert [labels.tobytes() for labels in kmeans(points, 6, seeds)] == singles

    def test_batches_hold_at_most_twenty_seeds(self, monkeypatch):
        chains = []

        def counted(points, centers):
            chains.append(len(centers))
            return _lloyd(points, centers)

        monkeypatch.setattr(spectral, "_lloyd", counted)
        assert len(kmeans(_unit_embedding(40, 3, 11), 3, range(45))) == 45
        assert chains == [200, 200, 50]  # 10 restarts per seed

    @pytest.mark.parametrize("points, k", _REFERENCE_CASES)
    def test_lloyd_same_labels_and_inertia(self, points, k):
        labels, inertia = _seed_and_lloyd(points, k, range(3))
        for seed in range(3):
            ref_labels, ref_inertia = _ref_lloyd(points, k, np.random.default_rng(seed))
            assert labels[seed].tobytes() == ref_labels.tobytes()
            assert inertia[seed] == ref_inertia

    def test_one_column_inertia_within_rounding(self):
        # a one-column mean(axis=0) sums pairwise, bincount in index order, so
        # the centers may differ in the last bits
        points = np.random.default_rng(8).standard_normal((150, 1))
        labels, inertia = _seed_and_lloyd(points, 4, [0])
        ref_labels, ref_inertia = _ref_lloyd(points, 4, np.random.default_rng(0))
        assert np.array_equal(labels[0], ref_labels)
        assert inertia[0] == pytest.approx(ref_inertia, rel=1e-13)


class TestDistanceTable:
    @pytest.mark.parametrize("d", [1, 3, 20])
    @pytest.mark.parametrize("distinct", [1, 5, 40])
    def test_squared_distances_is_the_pdist_table(self, d, distinct):
        """The one table smr's kNN graph and k-means++ take, on 40 rows of
        which only distinct differ, is bitwise SciPy's."""
        rng = np.random.default_rng(d)
        points = rng.standard_normal((distinct, d))[rng.permutation(np.arange(40) % distinct)]
        table = squared_distances(points)
        assert table.tobytes() == _table(points).tobytes()
        # a transposed view, as the kNN graph passes X.values.T
        assert squared_distances(points.T.copy().T).tobytes() == table.tobytes()

    @staticmethod
    def _seeding_table(points, monkeypatch):
        """The table kmeans(points, 3, [0]) hands to _seed_restarts."""
        tables = []

        def spied(table, k, rngs, restarts):
            tables.append(table)
            return _seed_restarts(table, k, rngs, restarts)

        monkeypatch.setattr(spectral, "_seed_restarts", spied)
        kmeans(points, 3, [0])
        (table,) = tables
        return table

    @pytest.mark.parametrize("d", [1, 2, 8, 9, 20, 130])
    @pytest.mark.parametrize("rows_per_block", [1, 5])
    def test_rows_bitwise_equal_to_one_point_at_a_time(self, d, rows_per_block, monkeypatch):
        """Each row of the table kmeans seeds from is bitwise the in-order sum
        of squared coordinate differences, taken for rows_per_block points at
        a time: no row depends on which other points share its block."""
        n = 37  # 5 does not divide it: the last block is short
        points = np.random.default_rng(d).standard_normal((n, d))
        table = self._seeding_table(points, monkeypatch)
        for start in range(0, n, rows_per_block):
            diff = points[None, :, :] - points[start : start + rows_per_block, None, :]
            ref = np.zeros(diff.shape[:2])
            for j in range(d):
                ref += diff[:, :, j] ** 2
            assert table[start : start + rows_per_block].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 8, 9, 20, 130])
    @pytest.mark.parametrize("distinct", [1, 5, 37])
    def test_exactly_symmetric(self, d, distinct, monkeypatch):
        """The table kmeans seeds from, on 40 points of which only distinct
        differ: exactly symmetric, exact zeros on the diagonal and between
        duplicates, and each row within 1e-15 relative of the one-point sum
        (bitwise below d = 8, where numpy's pairwise sum starts to differ
        from pdist's in-order one)."""
        rng = np.random.default_rng(d)
        points = rng.standard_normal((distinct, d))[rng.permutation(np.arange(40) % distinct)]
        table = self._seeding_table(points, monkeypatch)
        assert table.tobytes() == np.ascontiguousarray(table.T).tobytes()
        same = np.all(points[:, None, :] == points[None, :, :], axis=2)
        assert np.all(np.diag(same)) and np.all(table[same] == 0.0)
        for i in range(len(points)):
            ref = np.sum((points - points[i]) ** 2, axis=1)
            assert np.all(np.abs(table[i] - ref) <= 1e-15 * ref)
            if d < 8:
                assert table[i].tobytes() == ref.tobytes()


class TestKMeansPlusPlusDraw:
    """The lockstep seeding draws what rng.choice(n, p=closest / total) draws
    and leaves each generator in the state a seeding of its own does, so later
    restarts and trials see the same stream."""

    @staticmethod
    def _random_case(case, d=None):
        """(points, k) of a random case, of 1 to 5 columns unless d is given;
        the rows are distinct."""
        rng = np.random.default_rng(case)
        n = int(rng.integers(2, 120))
        k = int(rng.integers(1, n + 1))
        return rng.standard_normal((n, d or int(rng.integers(1, 6)))), k

    @pytest.mark.parametrize(
        "case, d",
        [pytest.param(case, None, id=str(case)) for case in range(40)]
        # from d = 8 on, some table rows differ in the last bit from the
        # one-point sums that the reference draws from
        + [pytest.param(case, d, id=f"d{d}-{case}") for d in (8, 10, 20, 130) for case in range(5)],
    )
    def test_same_centers_and_generator_state(self, case, d):
        points, k = self._random_case(case, d)
        rngs = [np.random.default_rng(seed) for seed in range(5)]
        rows = _seed_restarts(_table(points), k, rngs, 1)[:, 0]
        for seed, chain_rows, new_rng in zip(range(5), rows, rngs):
            ref_rng = np.random.default_rng(seed)
            assert points[chain_rows].tobytes() == _ref_kmeans_plus_plus(points, k, ref_rng).tobytes()
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("case", range(40))
    def test_restarts_in_one_pass_equal_sequential_calls(self, case):
        # 10 restarts in one pass against 10 one-restart calls in sequence,
        # rows and generator states included
        points, k = self._random_case(case)
        table = _table(points)
        rngs = [np.random.default_rng(seed) for seed in range(5)]
        rows = _seed_restarts(table, k, rngs, 10)
        ref_rngs = [np.random.default_rng(seed) for seed in range(5)]
        ref = np.concatenate([_seed_restarts(table, k, ref_rngs, 1) for _ in range(10)], axis=1)
        assert rows.tobytes() == ref.tobytes()
        for rng, ref_rng in zip(rngs, ref_rngs):
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("k", [2, 9])
    def test_each_restart_draws_a_fixed_stream(self, k):
        # on 3 positions whose neighbours' squared distance underflows, closest
        # sums to 0 before some draws; a stalled chain takes floor(u * n) of
        # its double, so every generator draws integers(n) and k - 1 doubles
        # per restart, and each seed's labels do not depend on the others
        points, _ = _underflowing_duplicates(9)
        n, seeds = len(points), list(range(10, 20))
        table = _table(points)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        rows = _seed_restarts(table, k, rngs, 10)
        # closest before draw j is the running minimum of the chosen rows
        totals = np.minimum.accumulate(table[rows], axis=2).sum(axis=3)[:, :, :-1]
        assert np.any(totals == 0) and np.any(totals > 0)
        for seed, rng in zip(seeds, rngs):
            ref = np.random.default_rng(seed)
            for _ in range(10):
                ref.integers(n)
                ref.random(k - 1)
            assert rng.bit_generator.state == ref.bit_generator.state
        batch = kmeans(points, k, seeds)
        for seed, labels in zip(seeds, batch):
            assert labels.tobytes() == kmeans(points, k, [seed])[0].tobytes()


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
        W = build_sm(C.values)
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
