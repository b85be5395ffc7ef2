"""Self-expressive coefficient solvers.

All four solvers consume a d x n DataMatrix X and return an n x n
CoefficientMatrix C such that X is approximately reconstructed as X @ C,
together with convergence diagnostics. Solvers are deterministic: the same
(X, config) always yields the same C.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .data import DataMatrix
from .errors import ConfigError, DataError, NumericalError, require, require_one_of


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by the four solvers; unused fields are ignored.

    lam is the trade-off weight of each objective. For SSC it is the single
    preset value that gets rescaled internally to the error weight
    lambda_e = lam / mu_e with mu_e = min_i max_{j != i} |x_i^T x_j|.

    tol is relative for lsr/smr/lrrsc (against max(1, data scale)) and an
    absolute max-norm bound for ssc, matching each solver's contract.
    """

    lam: float
    tol: float = 1e-4
    max_iter: int = 200  # lrrsc/ssc only

    def __post_init__(self):
        require("lam", self.lam, float, above=0)
        require("tol", self.tol, float, above=0)
        require("max_iter", self.max_iter, int, at_least=1)


@dataclass(frozen=True)
class SolverReport:
    """Exit diagnostics of a solver run.

    primal_residual stores what the convergence test measured: the absolute
    max-norm constraint violation for ssc, and the violation relative to
    max(1, data scale) for lsr/smr/lrrsc. converged implies
    primal_residual <= tol.
    """

    iterations: int
    primal_residual: float
    objective: float
    converged: bool
    error_matrix_norms: dict[str, float] | None = None
    objective_history: tuple[float, ...] | None = None


@dataclass(frozen=True)
class CoefficientMatrix:
    """An n x n self-expression matrix produced by one of the solvers."""

    values: np.ndarray
    solver: str
    report: SolverReport | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DataError(f"coefficient matrix must be square, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("coefficient matrix contains non-finite entries")
        require_one_of("solver", self.solver, SOLVERS)
        if self.solver == "ssc" and np.any(np.diag(v) != 0.0):
            raise DataError("ssc coefficient matrix must have an exactly zero diagonal")
        if self.solver == "lrrsc" and np.max(np.abs(v - v.T)) > 1e-10:
            raise DataError("lrrsc coefficient matrix must be symmetric to 1e-10")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class GraphLaplacian:
    """Regularized kNN graph Laplacian L + epsilon*I with its ingredients."""

    L_hat: np.ndarray
    W_graph: np.ndarray
    D_diag: np.ndarray

    def __post_init__(self):
        if np.max(np.abs(self.L_hat - self.L_hat.T)) > 1e-12:
            raise NumericalError("regularized Laplacian is not symmetric")
        L = np.diag(self.D_diag) - self.W_graph
        if np.max(np.abs(L.sum(axis=1))) > 1e-10:
            raise NumericalError("Laplacian rows do not sum to zero")


def soft_threshold(v, tau: float):
    """Entrywise shrinkage sign(v) * max(|v| - tau, 0), with +0.0 where v is +-0."""
    # not require(), which rejects inf: ssc's tau = 1/lam is inf for a subnormal lam
    if tau < 0:
        raise ConfigError(f"tau must be >= 0, got {tau!r}")
    v = np.asarray(v, dtype=np.float64)
    out = np.abs(v, out=np.empty_like(v))
    out -= tau
    np.maximum(out, 0.0, out=out)
    np.copysign(out, v, out=out)
    out[v == 0.0] = 0.0  # np.sign(-0.0) is +0.0
    return out


def singular_value_threshold(M: np.ndarray, tau: float) -> np.ndarray:
    """Shrink the singular values of M by tau (proximal map of the nuclear norm).

    No singular value exceeds ||M||_F, so when ||M||_F <= tau the result is
    zero and no SVD is taken. The margin of 1e-12 keeps the skip to inputs
    whose SVD path returns exact zeros too.
    """
    if tau < 0:
        raise ConfigError(f"tau must be >= 0, got {tau!r}")
    M = np.asarray(M, dtype=np.float64)
    norm = np.linalg.norm(M)
    if norm <= tau * (1.0 - 1e-12):
        return np.zeros_like(M)
    if not np.isfinite(norm) and not np.all(np.isfinite(M)):
        raise NumericalError(
            "SVT input overflowed to non-finite entries; the data scale is too large"
        )
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    s = np.maximum(s - tau, 0.0)
    keep = int(np.sum(s > 0))
    if keep == 0:
        return np.zeros_like(M)
    return (U[:, :keep] * s[:keep]) @ Vt[:keep, :]


def _shrink_columns(M: np.ndarray, tau: float) -> np.ndarray:
    """Columnwise l2 shrinkage (proximal map of the l2,1 norm)."""
    norms = np.linalg.norm(M, axis=0)
    scale = np.zeros_like(norms)
    nz = norms > tau
    scale[nz] = 1.0 - tau / norms[nz]
    return M * scale


def build_knn_laplacian(X: DataMatrix, k_graph: int, epsilon: float) -> GraphLaplacian:
    """Symmetrized 0/1 k-nearest-neighbor graph Laplacian, regularized by epsilon.

    An edge exists when either endpoint ranks the other among its k nearest
    under Euclidean distance. Points tied with the k-th distance are all
    included, so coincident points are treated symmetrically.
    """
    n = X.n
    require("k_graph", k_graph, int, at_least=1, at_most=n - 1)
    require("epsilon", epsilon, float, above=0)
    # exact differences, not a Gram-matrix GEMM, keep distances from duplicate
    # columns bitwise equal, so ties at the k-th distance are exact
    d2 = squareform(pdist(X.values.T, "sqeuclidean"))
    np.fill_diagonal(d2, np.inf)
    kth = np.partition(d2, k_graph - 1, axis=1)[:, [k_graph - 1]]
    W = d2 <= kth
    W = np.maximum(W, W.T).astype(np.float64)
    deg = W.sum(axis=1)
    L_hat = np.diag(deg + epsilon) - W
    return GraphLaplacian(L_hat=L_hat, W_graph=W, D_diag=deg)


def _thin_svd(Xv: np.ndarray):
    """(s, Vt) of the thin SVD X = U diag(s) Vt; Vt is min(d, n) x n."""
    try:
        _, s, Vt = np.linalg.svd(Xv, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the data failed: {exc}") from exc
    return s, Vt


def _ridge_solver(Xv: np.ndarray, rho1: float, rho2: float):
    """Return R -> (rho1 * X^T X + rho2 * I)^-1 R, from one thin SVD of X.

    With X = U diag(s) Vt, the inverse is (I - Vt^T diag(g) Vt) / rho2 with
    g = rho1 s^2 / (rho1 s^2 + rho2), so each solve costs O(n^2 min(d, n))
    instead of the O(n^3) of an n x n factorization.
    """
    s, Vt = _thin_svd(Xv)
    g = (rho1 * s**2 / (rho1 * s**2 + rho2))[:, None]
    return lambda R: (R - Vt.T @ (g * (Vt @ R))) / rho2


def _gram(X: DataMatrix) -> np.ndarray:
    G = X.values.T @ X.values
    return (G + G.T) / 2.0


def _result(C, solver: str, cfg: SolverConfig, report: SolverReport) -> CoefficientMatrix:
    """Wrap a solver's C. X is finite, so a non-finite C is an overflow inside the
    solve, such as lam * s**2 or lam / mu_e at a lam near the float maximum."""
    if not np.all(np.isfinite(C)):
        raise NumericalError(f"{solver} produced non-finite coefficients at lam={cfg.lam!r}")
    return CoefficientMatrix(values=C, solver=solver, report=report)


def _one_step(C, solver: str, resid, objective: float, cfg: SolverConfig) -> CoefficientMatrix:
    """C of a closed-form solve: one iteration, converged when resid <= tol."""
    report = SolverReport(1, float(resid), objective, converged=bool(resid <= cfg.tol))
    return _result(C, solver, cfg, report)


def solve_lsr(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Ridge-regularized self-expression with a closed-form solution.

    Minimizes ||X - XC||_F^2 + lam*||C||_F^2. With X = U diag(s) Vt, the
    minimizer (G + lam I)^-1 G of G = X^T X is Vt^T diag(s^2 / (s^2 + lam)) Vt.
    """
    G = _gram(X)
    scale = max(1.0, np.max(np.abs(G)))
    s, Vt = _thin_svd(X.values)
    C = (Vt.T * (s**2 / (s**2 + cfg.lam))) @ Vt
    resid = np.max(np.abs(G @ C + cfg.lam * C - G)) / scale

    fit = X.values - X.values @ C
    objective = float(np.sum(fit * fit) + cfg.lam * np.sum(C * C))
    return _one_step(C, "lsr", resid, objective, cfg)


def solve_smr(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Graph-smoothed self-expression via an exact Sylvester solve.

    Minimizes lam*||X - XC||_F^2 + tr(C L_hat C^T) where L_hat is the kNN
    Laplacian of X with k = min(4, n - 1), regularized by epsilon = 0.01:
    k is 4 from n = 5 on, and at n <= 4 every other point is a neighbor.
    The stationarity condition lam*X^T X C + C L_hat = lam*X^T X is solved
    by eigendecomposing L_hat and taking the thin SVD of X; the null
    directions of X have zero gain.
    """
    lap = build_knn_laplacian(X, min(4, X.n - 1), 0.01)
    G = _gram(X)
    scale = max(1.0, np.max(np.abs(G)))
    try:
        theta, Q = np.linalg.eigh(lap.L_hat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    s, Vt = _thin_svd(X.values)
    # per Laplacian eigendirection: (lam*G + theta_i I)^-1 lam*G q_i, G = Vt^T diag(s^2) Vt
    lam_g = cfg.lam * s[:, None] ** 2
    gain = lam_g / (lam_g + theta[None, :])
    C = Vt.T @ (gain * (Vt @ Q)) @ Q.T

    R = cfg.lam * (G @ C) + C @ lap.L_hat - cfg.lam * G
    resid = np.max(np.abs(R)) / scale
    fit = X.values - X.values @ C
    objective = float(cfg.lam * np.sum(fit * fit) + np.trace(C @ lap.L_hat @ C.T))
    return _one_step(C, "smr", resid, objective, cfg)


def solve_ssc(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Sparse self-expression by alternating directions.

    Minimizes ||C||_1 + lambda_e*||E||_1 subject to X = XC + E and
    diag(C) = 0, with lambda_e = lam / mu_e, mu_e = min_i max_{j != i}
    |x_i^T x_j|. The zero diagonal is enforced by projection at every
    iterate, so it holds exactly. Each iteration costs O(n^2 min(d, n)):
    the quadratic step goes through one thin SVD of X taken before the loop.
    Non-convergence within max_iter returns converged=False, not an error.
    """
    Xv = X.values
    d, n = Xv.shape
    zero = np.flatnonzero(np.linalg.norm(Xv, axis=0) == 0.0)
    if zero.size:
        shown = ", ".join(map(str, zero[:10])) + (", ..." if zero.size > 10 else "")
        raise DataError(
            f"ssc requires nonzero columns; {zero.size} column(s) have zero norm, at index {shown}"
        )
    offdiag = np.abs(_gram(X))
    np.fill_diagonal(offdiag, 0.0)
    mu_e = float(offdiag.max(axis=0).min())
    if mu_e <= 0.0:
        warnings.warn("ssc: data columns are mutually orthogonal; using lambda_e = lam")
        mu_e = 1.0
    lambda_e = cfg.lam / mu_e
    if not np.isfinite(lambda_e):
        raise NumericalError(
            f"ssc produced non-finite coefficients at lam={cfg.lam!r}: lambda_e = lam / mu_e "
            f"is inf at mu_e = {mu_e!r}; the data scale is too small or lam too large"
        )
    rho1 = lambda_e  # penalty on the reconstruction constraint
    rho2 = cfg.lam

    ridge = _ridge_solver(Xv, rho1, rho2)

    A = np.zeros((n, n))  # quadratic-step coefficients, coupled to C
    C = np.zeros((n, n))
    E = np.zeros((d, n))
    U1 = np.zeros((d, n))  # scaled dual of X = XA + E
    U2 = np.zeros((n, n))  # scaled dual of A = C
    history = []
    converged = False
    feas = gap = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        rhs = rho1 * (Xv.T @ (Xv - E + U1)) + rho2 * (C - U2)
        A = ridge(rhs)
        np.fill_diagonal(A, 0.0)
        C = soft_threshold(A + U2, 1.0 / rho2)
        np.fill_diagonal(C, 0.0)
        XA = Xv @ A
        E = soft_threshold(Xv - XA + U1, lambda_e / rho1)
        U1 += Xv - XA - E
        U2 += A - C

        history.append(float(np.abs(C).sum() + lambda_e * np.abs(E).sum()))
        feas = float(np.max(np.abs(Xv - Xv @ C - E)))
        gap = float(np.max(np.abs(A - C)))
        if feas <= cfg.tol and gap <= cfg.tol:
            converged = True
            break

    report = SolverReport(
        iterations=iterations,
        primal_residual=max(feas, gap),
        objective=history[-1],
        converged=converged,
        error_matrix_norms={"E_l1": float(np.abs(E).sum())},
        objective_history=tuple(history),
    )
    return _result(C, "ssc", cfg, report)


def solve_lrrsc(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Low-rank symmetric self-expression by inexact augmented Lagrangian.

    Minimizes ||C||_* + lam*||E||_{2,1} subject to X = XC + E and C = C^T.
    The nuclear-norm block is symmetrized after every
    singular-value-thresholding step and the returned C is hard-symmetrized,
    so max|C - C^T| is exactly zero. Each iteration costs O(n^2 min(d, n))
    (the C step goes through one thin SVD of X taken before the loop) plus
    one n x n SVD when the thresholding does not return zero.
    Non-convergence within max_iter returns converged=False, not an error.
    """
    Xv = X.values
    d, n = Xv.shape
    mu = 1e-6
    mu_growth = 1.1
    mu_max = 1e10
    scale = max(1.0, np.max(np.abs(Xv)))

    ridge = _ridge_solver(Xv, 1.0, 1.0)

    C = np.zeros((n, n))
    J = np.zeros((n, n))
    E = np.zeros((d, n))
    Y1 = np.zeros((d, n))
    Y2 = np.zeros((n, n))
    converged = False
    feas = gap = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        J = singular_value_threshold(C + Y2 / mu, 1.0 / mu)
        J = (J + J.T) / 2.0
        C = ridge(Xv.T @ (Xv - E + Y1 / mu) + J - Y2 / mu)
        residual = Xv - Xv @ C
        E = _shrink_columns(residual + Y1 / mu, cfg.lam / mu)
        leq1 = residual - E
        leq2 = C - J
        feas = float(np.max(np.abs(leq1))) / scale
        gap = float(np.max(np.abs(leq2))) / scale
        if feas <= cfg.tol and gap <= cfg.tol:
            # re-check against the symmetrized C actually returned
            C_sym = (C + C.T) / 2.0
            feas = float(np.max(np.abs(Xv - Xv @ C_sym - E))) / scale
            gap = float(np.max(np.abs(C_sym - J))) / scale
            if feas <= cfg.tol and gap <= cfg.tol:
                converged = True
                break
        Y1 += mu * leq1
        Y2 += mu * leq2
        mu = min(mu * mu_growth, mu_max)

    C = (C + C.T) / 2.0  # report the violation of the C actually returned
    feas = float(np.max(np.abs(Xv - Xv @ C - E))) / scale
    gap = float(np.max(np.abs(C - J))) / scale
    e_l21 = float(np.sum(np.linalg.norm(E, axis=0)))
    nuclear = float(np.sum(np.linalg.svd(C, compute_uv=False)))
    report = SolverReport(
        iterations=iterations,
        primal_residual=max(feas, gap),
        objective=nuclear + cfg.lam * e_l21,
        converged=converged,
        error_matrix_norms={"E_l21": e_l21},
    )
    return _result(C, "lrrsc", cfg, report)


# name -> (solve function, default SolverConfig fields)
_SOLVERS = {
    "lsr": (solve_lsr, dict(lam=0.01, tol=1e-10)),
    "smr": (solve_smr, dict(lam=100.0, tol=1e-6)),
    "lrrsc": (solve_lrrsc, dict(lam=2.0, tol=1e-6, max_iter=1000)),
    "ssc": (solve_ssc, dict(lam=20.0, tol=2e-4, max_iter=200)),
}
SOLVERS = tuple(_SOLVERS)


def _lookup(solver: str):
    return _SOLVERS[require_one_of("solver", solver, SOLVERS)]


def default_solver_config(solver: str, **overrides) -> SolverConfig:
    """Build the per-solver default SolverConfig, with keyword overrides."""
    return SolverConfig(**{**_lookup(solver)[1], **overrides})


def solve(solver: str, X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Dispatch to one of the four solvers by name."""
    return _lookup(solver)[0](X, cfg)
