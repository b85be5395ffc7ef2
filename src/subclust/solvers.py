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

from .data import DataMatrix, squared_distances
from .errors import ConfigError, DataError, NumericalError, lapack, require, require_one_of


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by the four solvers; unused fields are ignored.

    lam is the trade-off weight of each objective. For SSC it is the single
    preset value that gets rescaled internally to the error weight
    lambda_e = lam / mu_e with mu_e = min_i max_{j != i} |x_i^T x_j|.

    tol bounds the reported primal_residual (see SolverReport): relative for
    lsr/smr/lrrsc and absolute for ssc.
    """

    lam: float
    tol: float = 1e-4
    max_iter: int = 200  # lrrsc/ssc only

    def __post_init__(self):
        require("lambda", self.lam, float, above=0)  # named by its config key
        require("tol", self.tol, float, above=0)
        require("max_iter", self.max_iter, int, at_least=1)


@dataclass(frozen=True)
class SolverReport:
    """Exit diagnostics of a solver run.

    primal_residual stores what the convergence test measured, in max-norm:
    the stationarity violation over max(1, max_i ||x_i||^2) for lsr/smr, the
    constraint violation over max(1, max|X|) for lrrsc and the absolute one
    for ssc. converged is exactly primal_residual <= tol, set by `_result`.
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
    U, s, Vt = lapack("SVD", np.linalg.svd, M, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    keep = int(np.sum(s > 0))
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
    d2 = squared_distances(X.values.T)  # ties at the k-th distance are exact
    np.fill_diagonal(d2, np.inf)
    kth = np.partition(d2, k_graph - 1, axis=1)[:, [k_graph - 1]]
    W = d2 <= kth
    del d2
    W |= W.T  # numpy buffers the overlapping transpose
    # 0 - W, not -W, keeps the off-diagonal zeros +0.0; W's diagonal is 0
    L = np.zeros((n, n))
    L -= W
    np.fill_diagonal(L, W.sum(axis=1) + epsilon)
    return L


def _thin_svd(Xv: np.ndarray):
    """(U, s, Vt) of the thin SVD X = U diag(s) Vt; Vt is min(d, n) x n."""
    return lapack("SVD of the data", np.linalg.svd, Xv, full_matrices=False)


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


def _overflowed(solver: str, cfg: SolverConfig) -> NumericalError:
    return NumericalError(f"{solver} produced non-finite coefficients at lam={cfg.lam!r}")


def _gain(s: np.ndarray, weight: float, shift, solver: str, cfg: SolverConfig) -> np.ndarray:
    """The ridge gain w s^2 / (w s^2 + shift) of X's descending singular values s,
    as a column (r x 1, or r x m for a 1 x m row of shifts). Where s^2 overflows
    no lam can help, so that NumericalError names the data scale; where w s^2 or
    the sum overflows it names lam. Both are raised before any overflow warns."""
    with np.errstate(over="ignore"):
        s2 = s[:, None] ** 2
        ws2 = weight * s2
        total = ws2 + shift
    if np.isinf(s2[0, 0]):
        raise NumericalError(
            f"{solver} cannot run: the largest singular value of X, {float(s[0])!r}, squares to "
            "inf; the data scale is too large"
        )
    if np.isinf(total).any():
        raise _overflowed(solver, cfg)
    return ws2 / total


def _result(
    C, solver: str, cfg: SolverConfig, iterations: int, residual, objective
) -> CoefficientMatrix:
    """The one exit of every solve: C with its report, converged exactly when
    residual <= tol. X is finite, so a non-finite C is an overflow inside the
    solve, such as lam / mu_e at a lam near the float maximum."""
    if not np.all(np.isfinite(C)):
        raise _overflowed(solver, cfg)
    residual = float(residual)
    report = SolverReport(iterations, residual, float(objective), residual <= cfg.tol)
    return CoefficientMatrix(values=C, report=report)


def _closed_form(Xv, C, weight: float, CP, solver: str, cfg: SolverConfig) -> CoefficientMatrix:
    """Report of a C minimizing weight*||X - XC||_F^2 + tr(C P C^T), P symmetric, from
    CP = C P, which it overwrites. Both figures take one fit X - XC: the residual
    max|C P - weight X^T fit| over max(1, max_i ||x_i||^2), which is max|X^T X| in exact
    arithmetic (Cauchy-Schwarz), and the objective weight*||fit||^2 + sum(CP * C)."""
    fit = Xv - Xv @ C
    scale = max(1.0, np.max(np.sum(Xv * Xv, axis=0)))
    R = Xv.T @ fit  # weight X^T fit - C P, in one buffer
    R *= weight
    R -= CP
    resid = np.max(np.abs(R, out=R)) / scale
    del R
    CP *= C
    return _result(C, solver, cfg, 1, resid, weight * np.sum(fit * fit) + np.sum(CP))


def solve_lsr(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Ridge-regularized self-expression with a closed-form solution.

    Minimizes ||X - XC||_F^2 + lam*||C||_F^2. With X = U diag(s) Vt, the
    minimizer (G + lam I)^-1 G of G = X^T X is Vt^T diag(s^2 / (s^2 + lam)) Vt.
    `_closed_form` reports it at weight 1 and P = lam I, without forming G.
    """
    s, Vt = _thin_svd(X.values)[1:]
    C = (Vt.T * _gain(s, 1.0, cfg.lam, "lsr", cfg).T) @ Vt
    return _closed_form(X.values, C, 1.0, cfg.lam * C, "lsr", cfg)


def solve_smr(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Graph-smoothed self-expression via an exact Sylvester solve.

    Minimizes lam*||X - XC||_F^2 + tr(C L_hat C^T) where L_hat is the kNN
    Laplacian of X with k = min(4, n - 1), regularized by epsilon = 0.01:
    k is 4 from n = 5 on, and at n <= 4 every other point is a neighbor.
    The stationarity condition lam*X^T X C + C L_hat = lam*X^T X is solved
    by eigendecomposing L_hat and taking the thin SVD of X; the null
    directions of X have zero gain. `_closed_form` reports it at weight lam
    and P = L_hat.
    """
    s, Vt = _thin_svd(X.values)[1:]
    L_hat = build_knn_laplacian(X, min(4, X.n - 1), 0.01)
    theta, Q = lapack("eigendecomposition", np.linalg.eigh, L_hat)
    # per Laplacian eigendirection: (lam*G + theta_i I)^-1 lam*G q_i, G = Vt^T diag(s^2) Vt
    gain = _gain(s, cfg.lam, theta[None, :], "smr", cfg)
    C = Vt.T @ (gain * (Vt @ Q)) @ Q.T
    del Q
    CL = C @ L_hat
    del L_hat
    return _closed_form(X.values, C, cfg.lam, CL, "smr", cfg)


def solve_ssc(X: DataMatrix, cfg: SolverConfig) -> CoefficientMatrix:
    """Sparse self-expression by alternating directions.

    Minimizes ||C||_1 + lambda_e*||E||_1 subject to X = XC + E and
    diag(C) = 0, with lambda_e = lam / mu_e, mu_e = min_i max_{j != i}
    |x_i^T x_j|. The zero diagonal is enforced by projecting A at every
    iterate. C's diagonal is then exactly +0.0, since the dual U2's stays
    +0.0 and soft_threshold maps +-0 to +0.0. The quadratic step is
    `_quadratic_step` on one thin SVD X = U S Vt taken before the loop, so
    each iteration runs two n x r x n products, r = min(d, n). X C is
    formed only for the convergence test, once A - C meets tol, and at the
    last iteration. Non-convergence within max_iter returns
    converged=False, not an error; a lambda_e outside (0, inf), from an
    X^T X that overflows or underflows, raises NumericalError, as does a
    nonzero column whose x_i^T x_i underflows to 0.
    """
    Xv = X.values
    d, n = Xv.shape
    # an overflowed X^T X fails lambda_e's checks below, which name the data
    # scale, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        offdiag = Xv.T @ Xv  # (G + G^T) / 2 in place; numpy buffers the overlapping G^T
        offdiag += offdiag.T
        offdiag /= 2.0
        np.abs(offdiag, out=offdiag)
    zero = np.flatnonzero(~np.any(Xv, axis=0))
    if zero.size:
        shown = ", ".join(map(str, zero[:10])) + (", ..." if zero.size > 10 else "")
        raise DataError(
            f"ssc requires nonzero columns; {zero.size} column(s) have zero norm, at index {shown}"
        )
    underflowed = np.count_nonzero(offdiag.diagonal() == 0.0)
    if underflowed:  # no column is zero, so its x_i^T x_i underflowed
        raise NumericalError(
            f"ssc cannot run at lam={cfg.lam!r}: x_i^T x_i underflows to 0 for {underflowed} "
            f"nonzero column(s); the data scale is too small"
        )
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
    g = _gain(s, rho1, rho2, "ssc", cfg)

    C = np.zeros((n, n))
    E = np.zeros((d, n))
    U1 = np.zeros((d, n))  # scaled dual of X = XA + E
    U2 = np.zeros((n, n))  # scaled dual of A = C
    feas = np.inf
    for iterations in range(1, cfg.max_iter + 1):
        A, XA = _quadratic_step(C - U2, Xv - E + U1, US, Vt, g, rho1, rho2)
        a = A.diagonal().copy()
        np.fill_diagonal(A, 0.0)
        C = soft_threshold(A + U2, 1.0 / rho2)
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
            break

    objective = np.abs(C).sum() + lambda_e * np.abs(E).sum()
    return _result(C, "ssc", cfg, iterations, max(feas, gap), objective)


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
    return _result(C, "lrrsc", cfg, 1, resid, r)


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
    g = _gain(s, 1.0, 1.0, "lrrsc", cfg)

    C = np.zeros((n, n))
    E = np.zeros((d, n))
    Y1 = np.zeros((d, n))
    Y2 = np.zeros((n, n))
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
                break
        Y1 += mu * leq1
        Y2 += mu * leq2
        mu = min(mu * mu_growth, mu_max)

    e_l21 = float(np.sum(np.linalg.norm(E, axis=0)))
    nuclear = float(np.sum(lapack("SVD of LRRSC's C", np.linalg.svd, C_sym, compute_uv=False)))
    return _result(C_sym, "lrrsc", cfg, iterations, max(feas, gap), nuclear + cfg.lam * e_l21)


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
