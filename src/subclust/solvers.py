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


@dataclass(frozen=True)
class CoefficientMatrix:
    """An n x n self-expression matrix and the report of the solve that built it."""

    values: np.ndarray
    report: SolverReport


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


def build_knn_laplacian(X: DataMatrix, k_graph: int, epsilon: float) -> np.ndarray:
    """Symmetrized 0/1 k-nearest-neighbor graph Laplacian L + epsilon*I.

    An edge exists when either endpoint ranks the other among its k nearest
    under Euclidean distance. Points tied with the k-th distance are all
    included, so coincident points are treated symmetrically. W is 0/1, so
    L is exactly symmetric and each row of L sums to exactly 0.
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
    return np.diag(W.sum(axis=1) + epsilon) - W


def _thin_svd(Xv: np.ndarray):
    """(U, s, Vt) of the thin SVD X = U diag(s) Vt; Vt is min(d, n) x n."""
    try:
        return np.linalg.svd(Xv, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the data failed: {exc}") from exc


def _quadratic_step(B, M, US, Vt, g, rho1: float, rho2: float):
    """(A, X A) for the ADMM quadratic step A = (rho1 X^T X + rho2 I)^-1 (rho1 X^T M + rho2 B).

    With X = U S Vt thin and g = rho1 s^2 / (rho1 s^2 + rho2), the step is
    A = B + Vt^T Z in the row space of X, through X^T = Vt^T (U S)^T and
    Vt Vt^T = I. It runs two n x r x n products, r = min(d, n), namely
    P = Vt B and Vt^T Z, and takes X A = U S (P + Z) at d x r x n.
    """
    P = Vt @ B
    Q = US.T @ M
    Z = (rho1 / rho2) * Q - g * (rho1 * Q + rho2 * P) / rho2
    A = Vt.T @ Z
    A += B
    return A, US @ (P + Z)


def _gram(X: DataMatrix) -> np.ndarray:
    G = X.values.T @ X.values
    return (G + G.T) / 2.0


def _result(C, solver: str, cfg: SolverConfig, report: SolverReport) -> CoefficientMatrix:
    """Wrap a solver's C. X is finite, so a non-finite C is an overflow inside the
    solve, such as lam * s**2 or lam / mu_e at a lam near the float maximum."""
    if not np.all(np.isfinite(C)):
        raise NumericalError(f"{solver} produced non-finite coefficients at lam={cfg.lam!r}")
    return CoefficientMatrix(values=C, report=report)


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
    _, s, Vt = _thin_svd(X.values)
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
    L_hat = build_knn_laplacian(X, min(4, X.n - 1), 0.01)
    G = _gram(X)
    scale = max(1.0, np.max(np.abs(G)))
    try:
        theta, Q = np.linalg.eigh(L_hat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    _, s, Vt = _thin_svd(X.values)
    # per Laplacian eigendirection: (lam*G + theta_i I)^-1 lam*G q_i, G = Vt^T diag(s^2) Vt
    lam_g = cfg.lam * s[:, None] ** 2
    gain = lam_g / (lam_g + theta[None, :])
    C = Vt.T @ (gain * (Vt @ Q)) @ Q.T

    CL = C @ L_hat
    R = cfg.lam * (G @ C) + CL - cfg.lam * G
    resid = np.max(np.abs(R)) / scale
    fit = X.values - X.values @ C
    objective = float(cfg.lam * np.sum(fit * fit) + np.sum(CL * C))  # tr(C L_hat C^T)
    return _one_step(C, "smr", resid, objective, cfg)


def solve_ssc(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Sparse self-expression by alternating directions.

    Minimizes ||C||_1 + lambda_e*||E||_1 subject to X = XC + E and
    diag(C) = 0, with lambda_e = lam / mu_e, mu_e = min_i max_{j != i}
    |x_i^T x_j|. The zero diagonal is enforced by projection at every
    iterate, so it holds exactly. The quadratic step is `_quadratic_step`
    on one thin SVD X = U S Vt taken before the loop, so each iteration
    runs two n x r x n products, r = min(d, n). X C is formed only for the
    convergence test, once A - C meets tol, and at the last iteration.
    Non-convergence within max_iter returns converged=False, not an error;
    a lambda_e outside (0, inf), from an X^T X that overflows or underflows,
    raises NumericalError.
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
    if lambda_e == np.inf:
        raise NumericalError(
            f"ssc produced non-finite coefficients at lam={cfg.lam!r}: lambda_e = lam / mu_e "
            f"is inf at mu_e = {mu_e!r}; the data scale is too small or lam too large"
        )
    if not lambda_e > 0.0:  # 0.0 where X^T X overflows to mu_e = inf, nan where it is nan
        raise NumericalError(
            f"ssc cannot run at lam={cfg.lam!r}: lambda_e = lam / mu_e is {lambda_e!r} at "
            f"mu_e = {mu_e!r}; the data scale is too large or lam too small"
        )
    rho1 = lambda_e  # penalty on the reconstruction constraint
    rho2 = cfg.lam

    U, s, Vt = _thin_svd(Xv)
    US = U * s
    g = (rho1 * s**2 / (rho1 * s**2 + rho2))[:, None]

    C = np.zeros((n, n))
    E = np.zeros((d, n))
    U1 = np.zeros((d, n))  # scaled dual of X = XA + E
    U2 = np.zeros((n, n))  # scaled dual of A = C
    converged = False
    feas = np.inf
    for iterations in range(1, cfg.max_iter + 1):
        A, XA = _quadratic_step(C - U2, Xv - E + U1, US, Vt, g, rho1, rho2)
        a = A.diagonal().copy()
        np.fill_diagonal(A, 0.0)
        C = soft_threshold(A + U2, 1.0 / rho2)
        np.fill_diagonal(C, 0.0)
        fit = Xv - (XA - Xv * a)  # X A minus the zeroed diagonal's columns
        E = soft_threshold(fit + U1, lambda_e / rho1)
        U1 += fit - E
        leq2 = A - C
        U2 += leq2
        gap = float(np.max(np.abs(leq2)))
        # the convergence test needs feas only once gap meets tol; the report needs the last one
        if gap <= cfg.tol or iterations == cfg.max_iter:
            feas = float(np.max(np.abs(Xv - Xv @ C - E)))
        if feas <= cfg.tol and gap <= cfg.tol:
            converged = True
            break

    objective = float(np.abs(C).sum() + lambda_e * np.abs(E).sum())
    report = SolverReport(iterations, max(feas, gap), objective, converged)
    return _result(C, "ssc", cfg, report)


def _shape_interaction(Xv: np.ndarray, s: np.ndarray, Vt: np.ndarray, cfg: SolverConfig, scale):
    """LRRSC's C = V_r V_r^T when a KKT certificate proves it the minimizer and
    it meets tol, else None. It is reported as a closed-form solve whose
    objective is r, the nuclear norm of a rank-r orthogonal projector at E = 0.

    r counts the singular values above s[0] * max(d, n) * eps, the rank cut
    of numpy.linalg.matrix_rank. Y = U_r S_r^-1 V_r^T gives X^T Y = V_r V_r^T,
    which lies in the nuclear-norm subdifferential at C = V_r V_r^T. When
    every column of Y, that is of S_r^-1 V_r^T, has l2 norm below lam, Y
    also lies in lam times the l2,1 subdifferential at E = 0. So
    (V_r V_r^T, 0) meets the KKT conditions, and the strict inequality makes
    it the unique minimizer (Liu et al., "Robust Recovery of Subspace
    Structures by Low-Rank Representation", TPAMI 2013). It is symmetric, so
    it also meets LRRSC's C = C^T. The certificate asks for norms at most
    lam * (1 - 1e-3), a margin far above the rounding of the computed norms.
    A near-zero s_r inflates S_r^-1, so a borderline rank fails it.
    """
    r = int(np.sum(s > s[0] * max(Xv.shape) * np.finfo(np.float64).eps))
    Vr = Vt[:r]
    with np.errstate(over="ignore"):  # an overflowed norm fails the certificate
        dual = np.linalg.norm(Vr / s[:r, None], axis=0)
    if not np.all(dual <= cfg.lam * (1.0 - 1e-3)):
        return None
    C = Vr.T @ Vr
    C = (C + C.T) / 2.0
    resid = float(np.max(np.abs(Xv - Xv @ C))) / scale
    if resid > cfg.tol:
        return None
    return _one_step(C, "lrrsc", resid, float(r), cfg)


def _lrrsc_admm(Xv: np.ndarray, U, s, Vt, cfg: SolverConfig, scale) -> CoefficientMatrix:
    """LRRSC by inexact augmented Lagrangian, from the thin SVD X = U S Vt.

    The nuclear-norm block J is symmetrized after every
    singular-value-thresholding step. The C step is `_quadratic_step` at
    rho1 = rho2 = 1: two n x r x n products, r = min(d, n), plus one n x n
    SVD when the thresholding does not return zero. Once the plain test
    passes, and at max_iter, the test is taken again on the symmetrized C
    that is returned, and the report carries its violation.
    """
    d, n = Xv.shape
    mu = 1e-6
    mu_growth = 1.1
    mu_max = 1e10
    US = U * s
    g = (s**2 / (s**2 + 1.0))[:, None]

    C = np.zeros((n, n))
    E = np.zeros((d, n))
    Y1 = np.zeros((d, n))
    Y2 = np.zeros((n, n))
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        J = singular_value_threshold(C + Y2 / mu, 1.0 / mu)
        J = (J + J.T) / 2.0
        C, XC = _quadratic_step(J - Y2 / mu, Xv - E + Y1 / mu, US, Vt, g, 1.0, 1.0)
        residual = Xv - XC
        E = _shrink_columns(residual + Y1 / mu, cfg.lam / mu)
        leq1 = residual - E
        leq2 = C - J
        feas = float(np.max(np.abs(leq1))) / scale
        gap = float(np.max(np.abs(leq2))) / scale
        if (feas <= cfg.tol and gap <= cfg.tol) or iterations == cfg.max_iter:
            C_sym = (C + C.T) / 2.0
            feas = float(np.max(np.abs(Xv - Xv @ C_sym - E))) / scale
            gap = float(np.max(np.abs(C_sym - J))) / scale
            if feas <= cfg.tol and gap <= cfg.tol:
                converged = True
                break
        Y1 += mu * leq1
        Y2 += mu * leq2
        mu = min(mu * mu_growth, mu_max)

    e_l21 = float(np.sum(np.linalg.norm(E, axis=0)))
    nuclear = float(np.sum(np.linalg.svd(C_sym, compute_uv=False)))
    report = SolverReport(iterations, max(feas, gap), nuclear + cfg.lam * e_l21, converged)
    return _result(C_sym, "lrrsc", cfg, report)


def solve_lrrsc(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Low-rank symmetric self-expression.

    Minimizes ||C||_* + lam*||E||_{2,1} subject to X = XC + E and C = C^T.
    One thin SVD of X comes first. Where its KKT certificate holds, the
    minimizer is the shape-interaction matrix V_r V_r^T with E = 0
    (`_shape_interaction`), returned with iterations=1 and objective r;
    otherwise an inexact augmented Lagrangian solves it (`_lrrsc_admm`)
    on the same SVD. The returned C is hard-symmetrized, so max|C - C^T|
    is exactly zero. Non-convergence within max_iter returns
    converged=False, not an error.
    """
    Xv = X.values
    scale = max(1.0, np.max(np.abs(Xv)))
    U, s, Vt = _thin_svd(Xv)
    closed_form = _shape_interaction(Xv, s, Vt, cfg, scale)
    if closed_form is not None:
        return closed_form
    return _lrrsc_admm(Xv, U, s, Vt, cfg, scale)


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
