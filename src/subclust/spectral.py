"""Spectral clustering of an affinity matrix plus the accuracy metric.

The pipeline is the symmetric-normalized embedding (top eigenvectors
of D^{-1/2} W D^{-1/2}, rows renormalized) followed by k-means++ with
restarts. All randomness comes from an explicit seed, so runs are exactly
repeatable.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import LabelVector, checked_matrix, squared_distances
from .errors import DataError, lapack, require


def _affinity_values(W) -> np.ndarray:
    """W as float64, checked square, nonempty, finite, symmetric within 1e-12 and nonnegative."""
    values = checked_matrix(W, "affinity matrix", square=True)
    if np.max(np.abs(values - values.T)) > 1e-12:
        raise DataError("affinity matrix is not symmetric")
    if values.min() < 0:
        raise DataError("affinity matrix has negative entries")
    return values


def spectral_embed(W, n_clusters: int) -> np.ndarray:
    """Embed the graph nodes as rows of the leading eigenvectors of D^-1/2 W D^-1/2.

    W is an n x n array; one that is not square, nonempty, finite, symmetric
    within 1e-12 and nonnegative raises DataError. This is the one check of W
    in the pipeline: the affinity builders return an unchecked array. Needs
    2 <= n_clusters <= n. The rows are scaled to unit norm; zero-degree nodes
    get an all-zero row and a warning. A column's sign is the one eigh
    returns: k-means sees the points only through sign-free forms (distances,
    products of two entries of one column, center means), so flipping a
    column changes no label.
    """
    values = _affinity_values(W)
    n = values.shape[0]
    require("n_clusters", n_clusters, int, at_least=2, at_most=n)
    degrees = values.sum(axis=1)
    isolated = degrees == 0.0
    if np.any(isolated):
        warnings.warn(
            f"spectral_embed: {int(isolated.sum())} zero-degree node(s) get zero embeddings",
            stacklevel=2,
        )
    inv_root = np.zeros(n)
    inv_root[~isolated] = 1.0 / np.sqrt(degrees[~isolated])
    sym = inv_root[:, None] * values
    sym *= inv_root[None, :]
    sym += sym.T  # numpy buffers the overlapping transpose
    sym /= 2.0
    eigvals, eigvecs = lapack("eigendecomposition of the Laplacian", np.linalg.eigh, sym)
    top = eigvecs[:, -n_clusters:][:, ::-1].copy()
    top_vals = eigvals[-n_clusters:][::-1]
    # a numerically-zero eigenvalue spans an arbitrary basis; drop it
    top[:, np.abs(top_vals) <= 1e-12 * max(1.0, np.abs(eigvals).max())] = 0.0
    norms = np.linalg.norm(top, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    embedding = top / safe[:, None]
    embedding[isolated, :] = 0.0
    return embedding


def _seed_restarts(table: np.ndarray, k: int, rngs, restarts: int) -> np.ndarray:
    """restarts k-means++ seedings per generator; returns (len(rngs), restarts, k) rows.

    Each generator draws its restarts' streams up front, restart by restart:
    integers(n) for the first center, then k - 1 doubles. Then all chains
    step in one lockstep pass. Draw j with double u is that of
    rng.choice(n, p=closest / total), minus its validation of p, or
    floor(u * n) where closest sums to 0, that is where every point
    coincides with a chosen center. u * n rounds below n for every double
    u < 1, so that draw is uniform over the n points.
    """
    n = table.shape[0]
    rows = np.empty((len(rngs), restarts, k), dtype=np.intp)
    uniforms = np.empty((len(rngs), restarts, k - 1))
    for rng, chain_rows, chain_uniforms in zip(rngs, rows, uniforms):
        for r in range(restarts):
            chain_rows[r, 0] = rng.integers(n)
            chain_uniforms[r] = rng.random(k - 1)
    chains = len(rngs) * restarts
    flat, uniforms = rows.reshape(chains, k), uniforms.reshape(chains, k - 1)
    closest = table[flat[:, 0]]
    for j in range(1, k):
        totals = closest.sum(axis=1)
        drawn = totals > 0
        u = uniforms[:, j - 1]
        cdf = np.cumsum(closest[drawn] / totals[drawn, None], axis=1)
        cdf /= cdf[:, -1:]
        # each row's searchsorted(cdf, u, side="right"), as the cdf is nondecreasing
        flat[drawn, j] = np.count_nonzero(cdf <= u[drawn, None], axis=1)
        flat[~drawn, j] = (u[~drawn] * n).astype(np.intp)
        closest = np.minimum(closest, table[flat[:, j]])
    return rows


def _assign(scaled, norms, centers):
    """Each chain's labels and clamped squared distances to its nearest center.

    scaled is -2 * points and norms their squared row norms: per chain d2 has
    the bits of norms - (2 * points) @ centers.T + |centers|^2, subnormal
    products included.
    """
    d2 = np.matmul(scaled[None], centers.transpose(0, 2, 1))
    d2 += norms[:, None]
    d2 += np.sum(centers * centers, axis=2)[:, None, :]
    labels = np.argmin(d2, axis=2)
    dist = np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0]
    return labels, np.maximum(dist, 0.0)


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's iteration on a stack of chains' (k, d) centers, all in lockstep.

    Overwrites centers. A chain stops once its labels repeat, or after 100
    steps. Returns each chain's labels and inertia.
    """
    n, d = points.shape
    chains, k = centers.shape[:2]
    scaled, norms = -2.0 * points, np.sum(points * points, axis=1)
    columns = np.ascontiguousarray(points.T)
    # column j of the points once per active chain, refilled as bincount weights
    weights = np.empty((chains, n))
    out_labels = np.empty((chains, n), dtype=np.intp)
    out_dist = np.empty((chains, n))
    active = np.arange(chains)
    labels, dist = _assign(scaled, norms, centers)
    for _ in range(100):
        m = len(active)
        # bincount sums each cluster's rows in index order, as mean(axis=0) does
        # for two or more columns (one column it sums pairwise)
        bins = (labels + k * np.arange(m)[:, None]).ravel()
        counts = np.bincount(bins, minlength=m * k).reshape(m, k)
        sums = np.empty((m * k, d))
        for j in range(d):
            weights[:m] = columns[j]
            sums[:, j] = np.bincount(bins, weights=weights[:m].ravel(), minlength=m * k)
        present = counts > 0
        centers[present] = sums.reshape(m, k, d)[present] / counts[present, None]
        # re-seed the empty clusters at the chain's worst-served point
        worst = points[np.argmax(dist, axis=1)]
        centers[~present] = worst[np.nonzero(~present)[0]]
        new_labels, dist = _assign(scaled, norms, centers)
        done = np.all(new_labels == labels, axis=1)
        labels = new_labels
        out_labels[active[done]] = labels[done]
        out_dist[active[done]] = dist[done]
        keep = ~done
        active, labels, dist, centers = active[keep], labels[keep], dist[keep], centers[keep]
        if not len(active):
            break
    out_labels[active] = labels
    out_dist[active] = dist
    return out_labels, out_dist.sum(axis=1)


_SEEDS_PER_BATCH = 20  # bounds a call's memory at any number of seeds


def kmeans(points: np.ndarray, k: int, seeds: Sequence[int]) -> list[np.ndarray]:
    """k-means++ with 10 restarts per seed; returns each seed's best-inertia labels.

    The seedings draw from `squared_distances(points)`, the exact table
    smr's kNN graph takes. Seeds run in lockstep batches of 20:
    the seedings of a batch's 200 restarts take one pass over the table,
    and their Lloyd steps run as one stacked computation of about
    200 * n * (k + d) floats, at most 100 steps each. Each seed's labels
    are bitwise those of a call with that seed alone at the same BLAS
    thread count. points is an n x d array; points that are not 2-D,
    nonempty and finite, and points so large that n times 4 max|p|^2
    overflows, raise DataError, and a seed that is not an int >= 0
    ConfigError, all before any draw.
    """
    points = checked_matrix(points, "point matrix")
    n = points.shape[0]
    require("k", k, int, at_least=1, at_most=n)
    for seed in seeds:
        require("seed", seed, int, at_least=0)
    # bounds every squared distance, Lloyd's norms - 2 p.c + |c|^2, and n-term sums of them
    with np.errstate(over="ignore"):
        reach = 4.0 * n * np.max(np.sum(points * points, axis=1))
    if not np.isfinite(reach):
        raise DataError(
            f"points of scale {np.max(np.abs(points)):.3g} overflow their squared distances"
        )
    table = squared_distances(points)
    trials = []
    for start in range(0, len(seeds), _SEEDS_PER_BATCH):
        rngs = [np.random.default_rng(s) for s in seeds[start : start + _SEEDS_PER_BATCH]]
        # chain t * 10 + r is restart r of trial t
        rows = _seed_restarts(table, k, rngs, 10)
        labels, inertia = _lloyd(points, points[rows.reshape(-1, k)])
        # the first restart of least inertia, as a strict < scan picks
        best = inertia.reshape(-1, 10).argmin(axis=1)
        trials += list(labels.reshape(len(rngs), 10, -1)[np.arange(len(rngs)), best])
    return trials


def cluster(W, n_clusters: int, seed: int = 0) -> LabelVector:
    """Spectral embedding, which checks W, then k-means; returns predicted labels."""
    labels = kmeans(spectral_embed(W, n_clusters), n_clusters, [seed])[0]
    return LabelVector(labels=labels, k=n_clusters)


def _label_array(labels) -> np.ndarray:
    if isinstance(labels, LabelVector):
        return labels.labels
    return np.asarray(labels, dtype=np.int64).ravel()


def clustering_accuracy(pred, truth) -> float:
    """Percent of samples matched under the best one-to-one cluster pairing.

    The pairing is the optimal assignment on the contingency table, solved by
    the Hungarian method.
    """
    p = _label_array(pred)
    t = _label_array(truth)
    if p.size != t.size:
        raise DataError(f"label lengths differ: {p.size} vs {t.size}")
    if p.size == 0:
        raise DataError("empty label vectors")
    p_ids, p_idx = np.unique(p, return_inverse=True)
    t_ids, t_idx = np.unique(t, return_inverse=True)
    k = max(len(p_ids), len(t_ids))
    contingency = np.zeros((k, k), dtype=np.int64)
    np.add.at(contingency, (p_idx, t_idx), 1)
    rows, cols = linear_sum_assignment(contingency, maximize=True)
    matched = int(contingency[rows, cols].sum())
    return 100.0 * matched / p.size
