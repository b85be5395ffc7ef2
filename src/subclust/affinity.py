"""Affinity matrix constructions from a coefficient matrix.

Four builders: plain symmetrization (sm), per-column top-k sparsification
followed by symmetrization (ssm), row-cosines of the skinny-SVD factor
(svdm), and normalized coefficient inner products (ipm). Every builder
returns a symmetric, nonnegative, finite matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import DataMatrix
from .errors import ConfigError, DataError, NumericalError
from .solvers import CoefficientMatrix

AFFINITIES = ("sm", "ssm", "svdm", "ipm")


@dataclass(frozen=True)
class AffinityConfig:
    """Knobs of the affinity builders; each builder reads only its own."""

    k_top: int = 5  # ssm: entries kept per column
    alpha: float = 1.0  # svdm/ipm exponent
    ipm_denominator: str = "data_norms"  # ipm: "data_norms" or "coeff_norms"

    def __post_init__(self):
        if self.k_top < 1:
            raise ConfigError("k_top must be >= 1")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.ipm_denominator not in ("data_norms", "coeff_norms"):
            raise ConfigError("ipm_denominator must be 'data_norms' or 'coeff_norms'")


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric nonnegative n x n similarity matrix for spectral clustering."""

    values: np.ndarray
    method: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DataError(f"affinity matrix must be square, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("affinity matrix contains non-finite entries")
        if np.max(np.abs(v - v.T)) > 1e-12:
            raise DataError("affinity matrix is not symmetric")
        if v.min() < 0:
            raise DataError("affinity matrix has negative entries")
        if self.method not in AFFINITIES:
            raise ConfigError(f"unknown affinity method {self.method!r}")
        object.__setattr__(self, "values", v)


def _coeff_values(C) -> np.ndarray:
    if isinstance(C, CoefficientMatrix):
        return C.values
    return np.asarray(C, dtype=np.float64)


def build_sm(C) -> AffinityMatrix:
    """W = (|C| + |C|^T) / 2."""
    cv = np.abs(_coeff_values(C))
    return AffinityMatrix(values=(cv + cv.T) / 2.0, method="sm")


def top_k_per_column(C: np.ndarray, k: int) -> np.ndarray:
    """Zero all but the k largest-magnitude entries of each column.

    Ties at the k-th magnitude keep the smaller row index, so the result is
    deterministic.
    """
    n = C.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"k_top must be in 1..{n}, got {k}")
    out = np.zeros_like(C)
    order = np.argsort(-np.abs(C), axis=0, kind="stable")
    rows = order[:k, :]
    cols = np.broadcast_to(np.arange(C.shape[1]), rows.shape)
    out[rows, cols] = C[rows, cols]
    return out


def build_ssm(C, cfg: AffinityConfig) -> AffinityMatrix:
    """Sparsify each column to its k_top largest magnitudes, then symmetrize."""
    cv = _coeff_values(C)
    kept = np.abs(top_k_per_column(cv, cfg.k_top))
    return AffinityMatrix(values=(kept + kept.T) / 2.0, method="ssm")


def build_svdm(C, cfg: AffinityConfig) -> AffinityMatrix:
    """Absolute row cosines of the skinny-SVD factor, raised to 2*alpha.

    The skinny SVD keeps singular values >= 1e-4 * sigma_1 and
    M = U*sqrt(S). Rows with zero norm yield zero affinities, including
    their diagonal.
    """
    cv = _coeff_values(C)
    try:
        U, s, _ = np.linalg.svd(cv, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the coefficient matrix failed: {exc}") from exc
    n = cv.shape[0]
    if s.size == 0 or s[0] == 0.0:
        return AffinityMatrix(values=np.zeros((n, n)), method="svdm")
    keep = s >= 1e-4 * s[0]
    root = np.sqrt(s[keep])
    vectors = U[:, keep] * root[None, :]  # rows of M = U * sqrt(S)
    gram = vectors @ vectors.T
    gram = (gram + gram.T) / 2.0
    norms = np.linalg.norm(vectors, axis=1)
    # rows this far below scale are SVD noise; their direction is meaningless
    live = norms > 1e-8 * norms.max()
    denom = np.outer(norms, norms)
    nz = np.outer(live, live)
    cos = np.zeros((n, n))
    cos[nz] = np.abs(gram[nz]) / denom[nz]
    np.clip(cos, 0.0, 1.0, out=cos)
    W = cos ** (2.0 * cfg.alpha)
    W[~nz] = 0.0
    return AffinityMatrix(values=W, method="svdm")


def build_ipm(C, X: DataMatrix | None, cfg: AffinityConfig) -> AffinityMatrix:
    """Normalized absolute inner products of coefficient columns, to power alpha.

    data_norms mode divides |c_i^T c_j| by ||x_i||*||x_j||; coeff_norms mode
    divides by ||c_i||*||c_j|| and does not need X. Pairs with a zero
    denominator are set to zero with a warning.
    """
    cv = _coeff_values(C)
    n = cv.shape[0]
    if cfg.ipm_denominator == "data_norms":
        if X is None:
            raise ConfigError("ipm with data_norms needs the data matrix")
        if X.n != n:
            raise DataError(f"data matrix has {X.n} samples but C is {n}x{n}")
        norms = np.linalg.norm(X.values, axis=0)
    else:
        norms = np.linalg.norm(cv, axis=0)
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
    W = ratio**cfg.alpha
    W[degenerate] = 0.0
    return AffinityMatrix(values=W, method="ipm")


def build_affinity(
    method: str, C, X: DataMatrix | None = None, cfg: AffinityConfig | None = None
) -> AffinityMatrix:
    """Dispatch to one of the four affinity builders by name."""
    cfg = cfg or AffinityConfig()
    if method == "sm":
        return build_sm(C)
    if method == "ssm":
        return build_ssm(C, cfg)
    if method == "svdm":
        return build_svdm(C, cfg)
    if method == "ipm":
        return build_ipm(C, X, cfg)
    raise ConfigError(f"unknown affinity method {method!r}, expected one of {AFFINITIES}")
