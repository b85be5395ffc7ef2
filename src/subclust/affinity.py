"""Affinity matrix constructions from a coefficient matrix.

Four builders: plain symmetrization (sm), per-column top-k sparsification
followed by symmetrization (ssm), row-cosines of the skinny-SVD factor
(svdm), and coefficient inner products over the data norms (ipm). Every builder
takes C as an n x n array, a solver's C.values or any other, and raises
DataError unless it is square, nonempty and finite (data.checked_matrix, the
check X and W pass too). It returns an n x n float64 array that is exactly
symmetric and nonnegative. W is finite unless its arithmetic overflows;
spectral_embed, which consumes W, checks that W is finite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, checked_matrix
from .errors import ConfigError, DataError, lapack, require, require_one_of


@dataclass(frozen=True)
class AffinityConfig:
    """Knobs of the affinity builders; each builder reads only its own."""

    k_top: int = 5  # ssm: entries kept per column
    alpha: float = 1.0  # svdm/ipm exponent

    def __post_init__(self):
        require("k_top", self.k_top, int, at_least=1)
        require("alpha", self.alpha, float, above=0)


def build_sm(C: np.ndarray) -> np.ndarray:
    """W = (|C| + |C|^T) / 2."""
    cv = np.abs(checked_matrix(C, "coefficient matrix", square=True))
    return (cv + cv.T) / 2.0


def top_k_per_column(C: np.ndarray, k: int) -> np.ndarray:
    """Zero all but the k largest-magnitude entries of each column.

    Ties at the k-th magnitude keep the smaller row index, so the result is
    deterministic.
    """
    require("k_top", k, int, at_least=1, at_most=C.shape[0])
    out = np.zeros_like(C)
    order = np.argsort(-np.abs(C), axis=0, kind="stable")
    rows = order[:k, :]
    cols = np.broadcast_to(np.arange(C.shape[1]), rows.shape)
    out[rows, cols] = C[rows, cols]
    return out


def build_ssm(C: np.ndarray, cfg: AffinityConfig) -> np.ndarray:
    """Sparsify each column to its k_top largest magnitudes, then symmetrize."""
    cv = checked_matrix(C, "coefficient matrix", square=True)
    kept = np.abs(top_k_per_column(cv, cfg.k_top))
    return (kept + kept.T) / 2.0


def build_svdm(C: np.ndarray, cfg: AffinityConfig) -> np.ndarray:
    """Absolute row cosines of the skinny-SVD factor, raised to 2*alpha.

    The skinny SVD keeps singular values >= 1e-4 * sigma_1 and
    M = U*sqrt(S). Rows with zero norm yield zero affinities, including
    their diagonal.
    """
    cv = checked_matrix(C, "coefficient matrix", square=True)
    U, s = lapack("SVD of the coefficient matrix", np.linalg.svd, cv, full_matrices=False)[:2]
    keep = s >= 1e-4 * s[0]
    vectors = U[:, keep]
    del U
    vectors *= np.sqrt(s[keep])[None, :]  # rows of M = U * sqrt(S)
    norms = np.linalg.norm(vectors, axis=1)
    # the n x n steps run in place, each the same operation as out of place
    cos = vectors @ vectors.T
    del vectors
    cos += cos.T  # numpy buffers the overlapping transpose
    cos /= 2.0
    # rows this far below scale are SVD noise; their direction is meaningless
    live = norms > 1e-8 * norms.max()
    nz = np.outer(live, live)
    np.abs(cos, out=cos)
    np.divide(cos, np.outer(norms, norms), out=cos, where=nz)
    cos[~nz] = 0.0
    np.clip(cos, 0.0, 1.0, out=cos)
    cos **= 2.0 * cfg.alpha
    return cos


def build_ipm(C: np.ndarray, X: DataMatrix | None, cfg: AffinityConfig) -> np.ndarray:
    """Absolute inner products of coefficient columns over the data norms, to power alpha.

    W_ij = (|c_i^T c_j| / (||x_i|| * ||x_j||))^alpha. Pairs with a zero
    denominator are set to zero with a warning.
    """
    cv = checked_matrix(C, "coefficient matrix", square=True)
    n = cv.shape[0]
    if X is None:
        raise ConfigError("ipm needs the data matrix")
    if X.n != n:
        raise DataError(f"data matrix has {X.n} samples but C is {n}x{n}")
    norms = np.linalg.norm(X.values, axis=0)
    gram = cv.T @ cv
    gram = (gram + gram.T) / 2.0
    denom = np.outer(norms, norms)
    degenerate = denom == 0.0
    if np.any(degenerate):
        warnings.warn(
            "ipm: zero-norm columns produce zero affinities", stacklevel=2
        )
    ratio = np.zeros((n, n))
    np.divide(np.abs(gram), denom, out=ratio, where=~degenerate)
    return ratio**cfg.alpha


# name -> builder called as (C, X, cfg); the adapters drop what a builder does not read
_AFFINITIES = {
    "sm": lambda C, X, cfg: build_sm(C),
    "ssm": lambda C, X, cfg: build_ssm(C, cfg),
    "svdm": lambda C, X, cfg: build_svdm(C, cfg),
    "ipm": build_ipm,
}
AFFINITIES = tuple(_AFFINITIES)


def build_affinity(
    method: str, C: np.ndarray, X: DataMatrix | None = None, cfg: AffinityConfig | None = None
) -> np.ndarray:
    """Dispatch to one of the four affinity builders by name."""
    builder = _AFFINITIES[require_one_of("affinity", method, AFFINITIES)]
    return builder(C, X, cfg or AffinityConfig())
