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
import scipy.linalg

from .data import DataMatrix
from .errors import ConfigError, DataError, NumericalError

SOLVERS = ("lsr", "smr", "lrrsc", "ssc")


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
    max_iter: int = 200
    k_graph: int = 4  # smr only
    epsilon: float = 0.01  # smr only

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigError("lam must be positive")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if self.k_graph < 1:
            raise ConfigError("k_graph must be >= 1")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")


_SOLVER_DEFAULTS = {
    "lsr": dict(lam=0.01, tol=1e-10, max_iter=5),
    "smr": dict(lam=100.0, tol=1e-6, max_iter=1),
    "lrrsc": dict(lam=2.0, tol=1e-6, max_iter=1000),
    "ssc": dict(lam=20.0, tol=2e-4, max_iter=200),
}


def default_solver_config(solver: str, **overrides) -> SolverConfig:
    """Build the per-solver default SolverConfig, with keyword overrides."""
    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}, expected one of {SOLVERS}")
    params = dict(_SOLVER_DEFAULTS[solver])
    params.update(overrides)
    return SolverConfig(**params)


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
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver tag {self.solver!r}")
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
    """Entrywise shrinkage sign(v) * max(|v| - tau, 0)."""
    if tau < 0:
        raise ConfigError("tau must be nonnegative")
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def singular_value_threshold(M: np.ndarray, tau: float) -> np.ndarray:
    """Shrink the singular values of M by tau (proximal map of the nuclear norm)."""
    if tau < 0:
        raise ConfigError("tau must be nonnegative")
    try:
        U, s, Vt = np.linalg.svd(np.asarray(M, dtype=np.float64), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    s = np.maximum(s - tau, 0.0)
    keep = int(np.sum(s > 0))
    if keep == 0:
        return np.zeros_like(np.asarray(M, dtype=np.float64))
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
    if not 1 <= k_graph < n:
        raise ConfigError(f"k_graph must be in 1..{n - 1}, got {k_graph}")
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    pts = X.values
    W = np.zeros((n, n))
    for i in range(n):
        # exact differences keep distances from duplicate columns bitwise equal
        d2 = np.sum((pts - pts[:, i : i + 1]) ** 2, axis=0)
        d2[i] = np.inf
        kth = np.partition(d2, k_graph - 1)[k_graph - 1]
        W[i, d2 <= kth] = 1.0
    W = np.maximum(W, W.T)
    deg = W.sum(axis=1)
    L_hat = np.diag(deg + epsilon) - W
    return GraphLaplacian(L_hat=L_hat, W_graph=W, D_diag=deg)


def _gram(X: DataMatrix) -> np.ndarray:
    G = X.values.T @ X.values
    return (G + G.T) / 2.0


def solve_lsr(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Ridge-regularized self-expression with a closed-form solution.

    Minimizes ||X - XC||_F^2 + lam*||C||_F^2.
    """
    n = X.n
    G = _gram(X)
    scale = max(1.0, np.max(np.abs(G)))
    lhs = G + cfg.lam * np.eye(n)
    iterations = 1
    C = np.linalg.solve(lhs, G)
    resid = np.max(np.abs(lhs @ C - G)) / scale
    # one step of iterative refinement if plain solve is not tight enough
    while resid > cfg.tol and iterations < cfg.max_iter:
        C += np.linalg.solve(lhs, G - lhs @ C)
        resid = np.max(np.abs(lhs @ C - G)) / scale
        iterations += 1

    fit = X.values - X.values @ C
    objective = float(np.sum(fit * fit) + cfg.lam * np.sum(C * C))
    report = SolverReport(
        iterations=iterations,
        primal_residual=float(resid),
        objective=objective,
        converged=bool(resid <= cfg.tol),
    )
    return CoefficientMatrix(values=C, solver="lsr", report=report)


def solve_smr(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Graph-smoothed self-expression via an exact Sylvester solve.

    Minimizes lam*||X - XC||_F^2 + tr(C L_hat C^T) where L_hat is the
    epsilon-regularized kNN Laplacian of X. The stationarity condition
    lam*X^T X C + C L_hat = lam*X^T X is solved by eigendecomposing both
    L_hat and the Gram matrix.
    """
    lap = build_knn_laplacian(X, cfg.k_graph, cfg.epsilon)
    G = _gram(X)
    scale = max(1.0, np.max(np.abs(G)))
    try:
        theta, Q = np.linalg.eigh(lap.L_hat)
        g, P = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    g = np.clip(g, 0.0, None)
    # per Laplacian eigendirection: (lam*G + theta_i I)^-1 lam*G q_i
    T = P.T @ Q
    gain = (cfg.lam * g[:, None]) / (cfg.lam * g[:, None] + theta[None, :])
    C = P @ (gain * T) @ Q.T

    R = cfg.lam * (G @ C) + C @ lap.L_hat - cfg.lam * G
    resid = np.max(np.abs(R)) / scale
    fit = X.values - X.values @ C
    objective = float(cfg.lam * np.sum(fit * fit) + np.trace(C @ lap.L_hat @ C.T))
    report = SolverReport(
        iterations=1,
        primal_residual=float(resid),
        objective=objective,
        converged=bool(resid <= cfg.tol),
    )
    return CoefficientMatrix(values=C, solver="smr", report=report)


def solve_ssc(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Sparse self-expression by alternating directions.

    Minimizes ||C||_1 + lambda_e*||E||_1 subject to X = XC + E and
    diag(C) = 0, with lambda_e = lam / mu_e, mu_e = min_i max_{j != i}
    |x_i^T x_j|. The zero diagonal is enforced by projection at every
    iterate, so it holds exactly.
    Non-convergence within max_iter returns converged=False, not an error.
    """
    Xv = X.values
    d, n = Xv.shape
    if np.any(np.linalg.norm(Xv, axis=0) == 0.0):
        raise DataError("ssc requires nonzero columns; normalize the data first")
    G = _gram(X)
    offdiag = np.abs(G).copy()
    np.fill_diagonal(offdiag, 0.0)
    mu_e = float(offdiag.max(axis=0).min())
    if mu_e <= 0.0:
        warnings.warn("ssc: data columns are mutually orthogonal; using lambda_e = lam")
        mu_e = 1.0
    lambda_e = cfg.lam / mu_e
    rho1 = lambda_e  # penalty on the reconstruction constraint
    rho2 = cfg.lam

    lhs = rho1 * G + rho2 * np.eye(n)
    try:
        chol = scipy.linalg.cho_factor(lhs)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"SSC normal-equation factorization failed: {exc}") from exc

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
        A = scipy.linalg.cho_solve(chol, rhs)
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
    return CoefficientMatrix(values=C, solver="ssc", report=report)


def solve_lrrsc(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Low-rank symmetric self-expression by inexact augmented Lagrangian.

    Minimizes ||C||_* + lam*||E||_{2,1} subject to X = XC + E and C = C^T.
    The nuclear-norm block is symmetrized after every
    singular-value-thresholding step and the returned C is hard-symmetrized,
    so max|C - C^T| is exactly zero.
    Non-convergence within max_iter returns converged=False, not an error.
    """
    Xv = X.values
    d, n = Xv.shape
    mu = 1e-6
    mu_growth = 1.1
    mu_max = 1e10
    scale = max(1.0, np.max(np.abs(Xv)))

    XtX = Xv.T @ Xv
    try:
        chol = scipy.linalg.cho_factor(XtX + np.eye(n))
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"LRRSC normal-equation factorization failed: {exc}") from exc

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
        C = scipy.linalg.cho_solve(chol, XtX - Xv.T @ E + J + (Xv.T @ Y1 - Y2) / mu)
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

    C = (C + C.T) / 2.0
    if not converged:  # report the violation of the C actually returned
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
    return CoefficientMatrix(values=C, solver="lrrsc", report=report)


_SOLVE_FUNCS = {
    "lsr": solve_lsr,
    "smr": solve_smr,
    "lrrsc": solve_lrrsc,
    "ssc": solve_ssc,
}


def solve(solver: str, X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Dispatch to one of the four solvers by name."""
    if solver not in _SOLVE_FUNCS:
        raise ConfigError(f"unknown solver {solver!r}, expected one of {SOLVERS}")
    return _SOLVE_FUNCS[solver](X, cfg)
