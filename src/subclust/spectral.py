"""Spectral clustering of an affinity matrix plus the accuracy metric.

The pipeline is the symmetric-normalized embedding (top eigenvectors
of D^{-1/2} W D^{-1/2}, rows renormalized) followed by k-means++ with
restarts. All randomness comes from an explicit seed, so runs are exactly
repeatable.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import linear_sum_assignment

from .affinity import AffinityMatrix
from .data import LabelVector, canonical_signs
from .errors import ConfigError, DataError, NumericalError


def _affinity_values(W) -> np.ndarray:
    if isinstance(W, AffinityMatrix):
        return W.values
    return AffinityMatrix(values=np.asarray(W, dtype=np.float64), method="sm").values


def spectral_embed(W, n_clusters: int) -> np.ndarray:
    """Embed the graph nodes as rows of the leading eigenvectors of D^-1/2 W D^-1/2.

    Needs 2 <= n_clusters <= n. The rows are scaled to unit norm; zero-degree
    nodes get an all-zero row and a warning.
    """
    values = _affinity_values(W)
    n = values.shape[0]
    if not 2 <= n_clusters <= n:
        raise ConfigError(f"n_clusters must be in 2..{n}, got {n_clusters}")
    degrees = values.sum(axis=1)
    isolated = degrees == 0.0
    if np.any(isolated):
        warnings.warn(
            f"spectral_embed: {int(isolated.sum())} zero-degree node(s) get zero embeddings",
            stacklevel=2,
        )
    inv_root = np.zeros(n)
    inv_root[~isolated] = 1.0 / np.sqrt(degrees[~isolated])
    sym = inv_root[:, None] * values * inv_root[None, :]
    sym = (sym + sym.T) / 2.0
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition of the Laplacian failed: {exc}") from exc
    top = eigvecs[:, -n_clusters:][:, ::-1].copy()
    top_vals = eigvals[-n_clusters:][::-1]
    # a numerically-zero eigenvalue spans an arbitrary basis; drop it
    top[:, np.abs(top_vals) <= 1e-12 * max(1.0, np.abs(eigvals).max())] = 0.0
    top = canonical_signs(top)
    norms = np.linalg.norm(top, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    embedding = top / safe[:, None]
    embedding[isolated, :] = 0.0
    return embedding


def _kmeans_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            probs = closest / total
            idx = int(rng.choice(n, p=probs))
        else:  # all remaining points coincide with a chosen center
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        closest = np.minimum(closest, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = (
        np.sum(points * points, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )
    labels = np.argmin(d2, axis=1)
    return labels, np.maximum(d2[np.arange(points.shape[0]), labels], 0.0)


def _lloyd(points, k, rng):
    centers = _kmeans_plus_plus(points, k, rng)
    labels, dist = _assign(points, centers)
    for _ in range(100):
        for j in range(k):
            mask = labels == j
            if np.any(mask):
                centers[j] = points[mask].mean(axis=0)
            else:  # re-seed an empty cluster at the worst-served point
                centers[j] = points[int(np.argmax(dist))]
        new_labels, dist = _assign(points, centers)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return labels, float(dist.sum())


def kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++ with 10 restarts; returns the labels of the best-inertia run.

    Each restart runs at most 100 Lloyd steps. Deterministic for fixed
    (points, k, seed).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ConfigError("points must be a 2-D array")
    if not 1 <= k <= points.shape[0]:
        raise ConfigError(f"k must be in 1..{points.shape[0]}, got {k}")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(10):
        labels, inertia = _lloyd(points, k, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def cluster(W, n_clusters: int, seed: int = 0) -> LabelVector:
    """Spectral embedding followed by k-means; returns predicted labels."""
    labels = kmeans(spectral_embed(W, n_clusters), n_clusters, seed=seed)
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
