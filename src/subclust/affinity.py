"""Affinity matrix constructions from a coefficient matrix.

Four builders: plain symmetrization (sm), per-column top-k sparsification
followed by symmetrization (ssm), row-cosines of the skinny-SVD factor
(svdm), and coefficient inner products over the data norms (ipm). Every builder
returns an n x n float64 array that is exactly symmetric and nonnegative. It is
finite unless its arithmetic overflows; spectral_embed, which consumes W,
checks that W is finite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import DataMatrix
from .errors import ConfigError, DataError, NumericalError, require, require_one_of
from .solvers import CoefficientMatrix


@dataclass(frozen=True)
class AffinityConfig:
    """Knobs of the affinity builders; each builder reads only its own."""

    k_top: int = 5  # ssm: entries kept per column
    alpha: float = 1.0  # svdm/ipm exponent

    def __post_init__(self):
        require("k_top", self.k_top, int, at_least=1)
        require("alpha", self.alpha, float, above=0)


def _coeff_values(C) -> np.ndarray:
    """C's values; a raw array must be square and finite, as every solver's C is."""
    if isinstance(C, CoefficientMatrix):
        return C.values
    cv = np.asarray(C, dtype=np.float64)
    if cv.ndim != 2 or cv.shape[0] != cv.shape[1]:
        raise DataError(f"coefficient matrix must be square, got shape {cv.shape}")
    if not np.all(np.isfinite(cv)):
        raise DataError("coefficient matrix contains non-finite entries")
    return cv


def build_sm(C) -> np.ndarray:
    """W = (|C| + |C|^T) / 2."""
    cv = np.abs(_coeff_values(C))
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


def build_ssm(C, cfg: AffinityConfig) -> np.ndarray:
    """Sparsify each column to its k_top largest magnitudes, then symmetrize."""
    cv = _coeff_values(C)
    kept = np.abs(top_k_per_column(cv, cfg.k_top))
    return (kept + kept.T) / 2.0


def build_svdm(C, cfg: AffinityConfig) -> np.ndarray:
    """Absolute row cosines of the skinny-SVD factor, raised to 2*alpha.

    The skinny SVD keeps singular values >= 1e-4 * sigma_1 and
    M = U*sqrt(S). Rows with zero norm yield zero affinities, including
    their diagonal.
    """
    cv = _coeff_values(C)
    try:
        U, s = np.linalg.svd(cv, full_matrices=False)[:2]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the coefficient matrix failed: {exc}") from exc
    n = cv.shape[0]
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((n, n))
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


def build_ipm(C, X: DataMatrix | None, cfg: AffinityConfig) -> np.ndarray:
    """Absolute inner products of coefficient columns over the data norms, to power alpha.

    W_ij = (|c_i^T c_j| / (||x_i|| * ||x_j||))^alpha. Pairs with a zero
    denominator are set to zero with a warning.
    """
    cv = _coeff_values(C)
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
    method: str, C, X: DataMatrix | None = None, cfg: AffinityConfig | None = None
) -> np.ndarray:
    """Dispatch to one of the four affinity builders by name."""
    builder = _AFFINITIES[require_one_of("affinity", method, AFFINITIES)]
    return builder(C, X, cfg or AffinityConfig())
