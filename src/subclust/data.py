"""Dataset representation, file I/O, preprocessing, and synthetic data.

Conventions: a data matrix is d x n with one sample per column. CSV files on
disk hold one sample per row and are transposed at load; the binary matrix
format stores the in-memory column orientation directly.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import DataError, lapack, require, require_one_of

BINARY_MAGIC = b"SSCB"
BINARY_VERSION = 0x01
FORMATS = ("csv", "binary")
# rows per block where a d x n pass over the data would otherwise need a d x n
# temporary: the synthetic noise draw and wide PCA
_ROW_BLOCK = 256


def checked_matrix(values, what: str, square: bool = False) -> np.ndarray:
    """values as float64; DataError unless 2-D (square if asked), nonempty and finite.

    The one check of every matrix a stage receives: X, C, W and k-means' points.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or (square and v.shape[0] != v.shape[1]):
        raise DataError(f"{what} must be {'square' if square else '2-D'}, got shape {v.shape}")
    if v.size == 0:
        raise DataError(f"{what} is empty, got shape {v.shape}")
    # max propagates nan and shows +inf, min shows -inf: no temporary of v's size
    if not (np.isfinite(v.max()) and np.isfinite(v.min())):
        raise DataError(f"{what} contains non-finite entries")
    return v


@dataclass(frozen=True)
class DataMatrix:
    """A d x n real matrix whose columns are data points."""

    values: np.ndarray

    def __post_init__(self):
        v = checked_matrix(self.values, "data matrix")
        if v.shape[1] < 2:
            raise DataError(f"data matrix needs n >= 2 samples, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelVector:
    """Integer cluster labels in 0..k-1, one per sample."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.k < 1:
            raise DataError(f"label vector needs k >= 1, got k={self.k}")
        if lab.size == 0:
            raise DataError("label vector is empty")
        if lab.min() < 0 or lab.max() >= self.k:
            raise DataError(f"labels must lie in 0..{self.k - 1}")
        object.__setattr__(self, "labels", lab)

    def __len__(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class Dataset:
    """A data matrix with its ground-truth labels."""

    matrix: DataMatrix
    truth: LabelVector

    def __post_init__(self):
        if self.matrix.n != len(self.truth):
            raise DataError(
                f"matrix has {self.matrix.n} samples but labels have {len(self.truth)}"
            )


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a random union-of-subspaces instance."""

    num_subspaces: int
    subspace_dim: int
    ambient_dim: int
    points_per_subspace: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require("num_subspaces", self.num_subspaces, int, at_least=1)
        require("subspace_dim", self.subspace_dim, int, at_least=1)
        require("points_per_subspace", self.points_per_subspace, int, at_least=self.subspace_dim)
        spanned = self.num_subspaces * self.subspace_dim  # what independent subspaces need
        require("ambient_dim", self.ambient_dim, int, at_least=spanned)
        require("noise_sigma", self.noise_sigma, float, at_least=0)
        require("seed", self.seed, int, at_least=0)


def remap_labels(raw: np.ndarray) -> LabelVector:
    """Map arbitrary integer labels onto contiguous 0..k-1 (sorted order)."""
    raw = np.asarray(raw, dtype=np.int64).ravel()
    uniq, contiguous = np.unique(raw, return_inverse=True)
    return LabelVector(labels=contiguous, k=len(uniq))


def _loadtxt(path, what: str, **kwargs) -> np.ndarray:
    """np.loadtxt(path); a malformed file or one with no data raises DataError naming path."""
    try:
        with warnings.catch_warnings():  # an empty file is the DataError below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(path, **kwargs)
    except ValueError as exc:
        raise DataError(f"malformed {what} file {path}: {exc}") from exc
    if values.size == 0:
        raise DataError(f"{what} file {path} contains no data")
    return values


def load_matrix_binary(path) -> np.ndarray:
    """Read a matrix in the SSCB binary format (see save_matrix_binary)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 13 or blob[:4] != BINARY_MAGIC:
        raise DataError(f"{path} is not an SSCB binary matrix file")
    if blob[4] != BINARY_VERSION:
        raise DataError(f"unsupported SSCB version {blob[4]} in {path}")
    d, n = struct.unpack("<II", blob[5:13])
    expected = 13 + 8 * d * n
    if len(blob) != expected:
        raise DataError(
            f"{path}: expected {expected} bytes for a {d}x{n} matrix, got {len(blob)}"
        )
    if d * n == 0:
        raise DataError(f"binary matrix file {path} contains no data")
    flat = np.frombuffer(blob, dtype="<f8", offset=13)
    # column-major like the transposed CSV rows, so both copies normalize alike
    return flat.reshape((d, n), order="F").copy(order="F")


def save_matrix_binary(values: np.ndarray, path) -> None:
    """Write magic 'SSCB', version byte, u32-LE dims, then f64-LE column-major data."""
    values = np.asarray(values, dtype=np.float64)
    d, n = values.shape
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(bytes([BINARY_VERSION]))
        fh.write(struct.pack("<II", d, n))
        # no copy where values is already little-endian, so tobytes makes the one copy
        fh.write(values.astype("<f8", copy=False).tobytes(order="F"))


def load_dataset(matrix_path, labels_path, format: str = "csv") -> Dataset:
    """Load a dataset from a matrix file plus a one-integer-per-line labels file.

    Labels are remapped to contiguous 0..k-1. CSV matrices are transposed so
    that samples end up as columns.
    """
    if require_one_of("format", format, FORMATS) == "csv":
        # one sample per row on disk -> columns in memory
        values = _loadtxt(matrix_path, "CSV matrix", delimiter=",", ndmin=2).T
    else:
        values = load_matrix_binary(matrix_path)
    truth = remap_labels(_loadtxt(labels_path, "labels", dtype=np.int64, ndmin=1))
    matrix = DataMatrix(values)
    if matrix.n != len(truth):
        raise DataError(
            f"matrix {matrix_path} has {matrix.n} samples but "
            f"{labels_path} has {len(truth)} labels"
        )
    return Dataset(matrix=matrix, truth=truth)


def save_labels(labels: LabelVector, path) -> None:
    """Write labels as one integer per line."""
    np.savetxt(path, labels.labels, fmt="%d")


def save_dataset(ds: Dataset, matrix_path, labels_path, format: str = "csv") -> None:
    """Write a dataset; load_dataset inverts this (bit-exactly for binary)."""
    if require_one_of("format", format, FORMATS) == "csv":
        # %.17g round-trips IEEE doubles exactly
        np.savetxt(matrix_path, ds.matrix.values.T, delimiter=",", fmt="%.17g")
    else:
        save_matrix_binary(ds.matrix.values, matrix_path)
    save_labels(ds.truth, labels_path)


def squared_distances(points: np.ndarray) -> np.ndarray:
    """The n x n table of exact squared Euclidean distances between the rows of points.

    pdist sums each pair's squared differences in order, unlike a Gram-matrix GEMM, so
    the table is exactly symmetric and duplicates are exactly 0 apart; smr's kNN graph
    and the k-means++ draws rest on this summation order."""
    return squareform(pdist(points, "sqeuclidean"))


def pca_project(X: DataMatrix, target_dim: int) -> DataMatrix:
    """Project onto the top principal directions of the mean-centered data.

    Returns a target_dim x n matrix whose rows are ordered by decreasing
    variance. The directions come from the eigendecomposition of the smaller
    Gram matrix of the centered d x n data c: for d > n that is c^T c, whose
    eigenpair (lambda, v) gives the unit direction u = c v / sqrt(lambda) (the
    snapshot method of eigenfaces) and the row u^T c = sqrt(lambda) v^T;
    otherwise c c^T, whose eigenvector u gives the row u^T c. For d > n no
    d x n copy of c is formed: c^T c is summed over blocks of 256 rows. A
    direction whose eigenvalue is at most max(d, n) * eps * the largest one
    lies past the numerical rank; its row is exactly zero. A row's sign is
    the one eigh returns, which no later stage can tell: they see rows only
    through X^T X, column norms, distances and the s and Vt of X's SVD. c
    is first scaled by an exact power of two so that the Gram matrix can
    neither overflow nor underflow, and the result is scaled back exactly.
    """
    require("target_dim", target_dim, int, at_least=1, at_most=min(X.d, X.n))
    values = X.values
    mean = values.mean(axis=1, keepdims=True)
    # rounding is monotone, so max(x_i - m_i) is fl(max(x_i) - m_i): the
    # extremes of c come from those of X, without a d x n difference
    peak = max(
        np.max(values.max(axis=1, keepdims=True) - mean),
        np.max(mean - values.min(axis=1, keepdims=True)),
    )
    exponent = int(np.frexp(peak)[1])
    if X.d <= X.n:
        centered = values - mean
        np.ldexp(centered, -exponent, out=centered)
        gram = centered @ centered.T
    else:
        gram = np.zeros((X.n, X.n))
        for start in range(0, X.d, _ROW_BLOCK):
            block = values[start : start + _ROW_BLOCK] - mean[start : start + _ROW_BLOCK]
            np.ldexp(block, -exponent, out=block)
            gram += block.T @ block
    evals, evecs = lapack("eigendecomposition of the PCA Gram matrix", np.linalg.eigh, gram)
    evals, evecs = evals[::-1][:target_dim], evecs[:, ::-1][:, :target_dim]
    rank = np.count_nonzero(evals > max(X.d, X.n) * np.finfo(np.float64).eps * evals[0])
    evals, evecs = evals[:rank], evecs[:, :rank]
    Y = np.zeros((target_dim, X.n))
    Y[:rank] = evecs.T @ centered if X.d <= X.n else np.sqrt(evals)[:, None] * evecs.T
    return DataMatrix(np.ldexp(Y, exponent))


def normalize_columns(X: DataMatrix) -> DataMatrix:
    """Scale every nonzero column to unit l2 norm; zero columns pass through.

    A column whose plain norm overflows, or falls below sqrt(tiny) where its
    squares lose precision, is first divided by its largest magnitude; every
    other column is divided by its plain norm alone.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X.values, axis=0)
    peak = np.max(np.abs(X.values), axis=0)
    zero = peak == 0.0
    if np.any(zero):
        warnings.warn(
            f"normalize_columns: {int(zero.sum())} zero column(s) left unchanged",
            stacklevel=2,
        )
    out_of_range = ~zero & ((norms < np.sqrt(np.finfo(np.float64).tiny)) | np.isinf(norms))
    # dividing the other columns by 1.0 keeps their bits and the memory layout
    values = X.values / np.where(out_of_range, peak, 1.0)
    norms[out_of_range] = np.linalg.norm(values[:, out_of_range], axis=0)
    return DataMatrix(values / np.where(zero, 1.0, norms))


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a union-of-subspaces dataset, deterministic in spec.seed.

    Each subspace gets an orthonormal basis (QR of a Gaussian matrix); points
    are the basis times unit-norm random coefficients, plus isotropic Gaussian
    noise of scale noise_sigma.
    """
    rng = np.random.default_rng(spec.seed)
    d = spec.ambient_dim
    r = spec.subspace_dim
    m = spec.points_per_subspace
    total = spec.num_subspaces * m

    values = np.zeros((d, total))
    labels = np.zeros(total, dtype=np.int64)
    for i in range(spec.num_subspaces):
        basis, _ = lapack("QR of a subspace basis", np.linalg.qr, rng.standard_normal((d, r)))
        coeffs = rng.standard_normal((r, m))
        coeffs /= np.linalg.norm(coeffs, axis=0, keepdims=True)
        values[:, i * m : (i + 1) * m] = basis @ coeffs
        labels[i * m : (i + 1) * m] = i
    if spec.noise_sigma > 0:
        # the generator fills C order, so the row blocks draw the same noise
        # as one d x total draw, without a d x total temporary
        for start in range(0, d, _ROW_BLOCK):
            rows = values[start : start + _ROW_BLOCK]
            rows += spec.noise_sigma * rng.standard_normal(rows.shape)
    return Dataset(matrix=DataMatrix(values), truth=LabelVector(labels, spec.num_subspaces))


def prepare_dataset(ds: Dataset, pca_dim: int | None = None, normalize: bool = True) -> Dataset:
    """Apply the standard preprocessing pipeline: PCA, then column normalization."""
    matrix = ds.matrix
    if pca_dim is not None:
        require("pca_dim", pca_dim, int, at_least=1, at_most=min(matrix.d, matrix.n))
        matrix = pca_project(matrix, pca_dim)
    if normalize:
        matrix = normalize_columns(matrix)
    return replace(ds, matrix=matrix)
