"""Coefficient solver tests: proximal operators, graph Laplacian, and the
four solvers against their stationarity/feasibility oracles."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linprog

import subclust.solvers as solvers
from subclust import (
    DataMatrix,
    SyntheticSpec,
    build_knn_laplacian,
    default_solver_config,
    generate_synthetic,
    normalize_columns,
    prepare_dataset,
    singular_value_threshold,
    soft_threshold,
    solve_lrrsc,
    solve_lsr,
    solve_smr,
    solve_ssc,
)
from subclust.errors import ConfigError, DataError, NumericalError
from subclust.solvers import SolverConfig


def _noiseless_instance(seed=11):
    spec = SyntheticSpec(3, 4, 30, 20, 0.0, seed=seed)
    return prepare_dataset(generate_synthetic(spec), normalize=True)


def _random_matrix(seed, d, n, normalize=True):
    X = DataMatrix(np.random.default_rng(seed).standard_normal((d, n)))
    return normalize_columns(X) if normalize else X


def _svt_by_svd(M, tau):
    """Reference SVT that always takes the SVD."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def _cholesky_ridge(Xv, rho1, rho2):
    """Reference ridge solve through an n x n Cholesky factorization."""
    factor = scipy.linalg.cho_factor(rho1 * (Xv.T @ Xv) + rho2 * np.eye(Xv.shape[1]))
    return lambda R: scipy.linalg.cho_solve(factor, R)


def _lsr_by_lu(Xv, lam, tol=1e-10, max_iter=5):
    """Reference LSR: an LU solve of (G + lam I) C = G plus iterative refinement."""
    G = Xv.T @ Xv
    G = (G + G.T) / 2.0
    scale = max(1.0, np.max(np.abs(G)))
    lhs = G + lam * np.eye(G.shape[0])
    C = np.linalg.solve(lhs, G)
    for _ in range(max_iter - 1):
        if np.max(np.abs(lhs @ C - G)) / scale <= tol:
            break
        C += np.linalg.solve(lhs, G - lhs @ C)
    return C


def _smr_by_gram_eigh(Xv, lam, L_hat):
    """Reference SMR: eigendecompositions of L_hat and of the n x n Gram matrix."""
    G = Xv.T @ Xv
    theta, Q = np.linalg.eigh(L_hat)
    g, P = np.linalg.eigh((G + G.T) / 2.0)
    g = np.clip(g, 0.0, None)[:, None]
    return P @ (lam * g / (lam * g + theta[None, :]) * (P.T @ Q)) @ Q.T


def _ridge_by_thin_svd(s, Vt, rho1, rho2):
    """Reference ridge solve R -> (rho1 X^T X + rho2 I)^-1 R from the thin SVD
    (s, Vt) of X, as both ADMMs took it before their row-space step."""
    g = (rho1 * s**2 / (rho1 * s**2 + rho2))[:, None]
    return lambda R: (R - Vt.T @ (g * (Vt @ R))) / rho2


def _lrrsc_by_admm(X, cfg, ridge_solver=None, svt=singular_value_threshold):
    """Reference LRRSC: the inexact augmented Lagrangian alone, with no
    closed-form step. With no ridge_solver the C step runs in the row space
    of X, and the solver's fallback must give its C and report bit for bit.
    A ridge_solver(s, Vt, 1, 1) gives the loop as written before that step:
    C solves the ridge system of X^T (X - E + Y1/mu) + J - Y2/mu, and X C is
    an n x d x n product. Returns (C, report)."""
    Xv = X.values
    d, n = Xv.shape
    mu, mu_growth, mu_max = 1e-6, 1.1, 1e10
    scale = max(1.0, np.max(np.abs(Xv)))
    U, s, Vt = np.linalg.svd(Xv, full_matrices=False)
    US, g = U * s, (s**2 / (s**2 + 1.0))[:, None]
    ridge = None if ridge_solver is None else ridge_solver(s, Vt, 1.0, 1.0)
    C, J, E = np.zeros((n, n)), np.zeros((n, n)), np.zeros((d, n))
    Y1, Y2 = np.zeros((d, n)), np.zeros((n, n))
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        J = svt(C + Y2 / mu, 1.0 / mu)
        J = (J + J.T) / 2.0
        if ridge is None:
            # C = B + Vt^T Z and X C = U S (P + Z), at rho1 = rho2 = 1
            B = J - Y2 / mu
            P = Vt @ B
            Q = US.T @ (Xv - E + Y1 / mu)
            Z = Q - g * (Q + P)
            C, XC = B + Vt.T @ Z, US @ (P + Z)
        else:
            C = ridge(Xv.T @ (Xv - E + Y1 / mu) + J - Y2 / mu)
            XC = Xv @ C
        residual = Xv - XC
        E = solvers._shrink_columns(residual + Y1 / mu, cfg.lam / mu)
        leq1, leq2 = residual - E, C - J
        if max(np.max(np.abs(leq1)), np.max(np.abs(leq2))) / scale <= cfg.tol:
            C_sym = (C + C.T) / 2.0
            feas = float(np.max(np.abs(Xv - Xv @ C_sym - E))) / scale
            if feas <= cfg.tol and float(np.max(np.abs(C_sym - J))) / scale <= cfg.tol:
                converged = True
                break
        Y1 += mu * leq1
        Y2 += mu * leq2
        mu = min(mu * mu_growth, mu_max)
    C = (C + C.T) / 2.0
    feas = float(np.max(np.abs(Xv - Xv @ C - E))) / scale
    gap = float(np.max(np.abs(C - J))) / scale
    e_l21 = float(np.sum(np.linalg.norm(E, axis=0)))
    nuclear = float(np.sum(np.linalg.svd(C, compute_uv=False)))
    report = solvers.SolverReport(iterations, max(feas, gap), nuclear + cfg.lam * e_l21, converged)
    return C, report


def _ssc_lambda_e(Xv, lam):
    """solve_ssc's error weight lam / mu_e."""
    offdiag = np.abs(Xv.T @ Xv + (Xv.T @ Xv).T) / 2.0
    np.fill_diagonal(offdiag, 0.0)
    return lam / float(offdiag.max(axis=0).min())


def _ssc_by_full_passes(X, cfg):
    """Reference SSC: the alternating directions in the row space of X, with
    the constraint violations and the objective taken at every iteration.
    The solver must give its C and report bit for bit. Returns (C, report,
    objectives)."""
    Xv = X.values
    d, n = Xv.shape
    lambda_e = _ssc_lambda_e(Xv, cfg.lam)
    rho1, rho2 = lambda_e, cfg.lam
    U, s, Vt = np.linalg.svd(Xv, full_matrices=False)
    US = U * s
    g = (rho1 * s**2 / (rho1 * s**2 + rho2))[:, None]
    C, E, U1, U2 = np.zeros((n, n)), np.zeros((d, n)), np.zeros((d, n)), np.zeros((n, n))
    history, converged = [], False
    for iterations in range(1, cfg.max_iter + 1):
        # A = B + Vt^T Z solves the quadratic step; X A = U S (P + Z) before diag(A) is zeroed
        B = C - U2
        P = Vt @ B
        Q = US.T @ (Xv - E + U1)
        Z = (rho1 / rho2) * Q - g * (rho1 * Q + rho2 * P) / rho2
        A = B + Vt.T @ Z
        a = np.diag(A).copy()
        np.fill_diagonal(A, 0.0)
        C = soft_threshold(A + U2, 1.0 / rho2)
        np.fill_diagonal(C, 0.0)
        XA = US @ (P + Z) - Xv * a
        E = soft_threshold(Xv - XA + U1, lambda_e / rho1)
        U1 += Xv - XA - E
        U2 += A - C
        history.append(float(np.abs(C).sum() + lambda_e * np.abs(E).sum()))
        feas = float(np.max(np.abs(Xv - Xv @ C - E)))
        gap = float(np.max(np.abs(A - C)))
        if feas <= cfg.tol and gap <= cfg.tol:
            converged = True
            break
    report = solvers.SolverReport(iterations, max(feas, gap), history[-1], converged)
    return C, report, history


def _ssc_four_gemm(X, cfg, ridge_solver=_ridge_by_thin_svd):
    """Reference SSC as it was written before the row-space step: four
    n x d x n products per iteration, the quadratic step through
    ridge_solver(s, Vt, rho1, rho2). Returns (C, report)."""
    Xv = X.values
    d, n = Xv.shape
    lambda_e = _ssc_lambda_e(Xv, cfg.lam)
    rho1, rho2 = lambda_e, cfg.lam
    _, s, Vt = np.linalg.svd(Xv, full_matrices=False)
    ridge = ridge_solver(s, Vt, rho1, rho2)
    C, E, U1, U2 = np.zeros((n, n)), np.zeros((d, n)), np.zeros((d, n)), np.zeros((n, n))
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        A = ridge(rho1 * (Xv.T @ (Xv - E + U1)) + rho2 * (C - U2))
        np.fill_diagonal(A, 0.0)
        C = soft_threshold(A + U2, 1.0 / rho2)
        np.fill_diagonal(C, 0.0)
        fit = Xv - Xv @ A
        E = soft_threshold(fit + U1, lambda_e / rho1)
        U1 += fit - E
        U2 += A - C
        feas = float(np.max(np.abs(Xv - Xv @ C - E)))
        gap = float(np.max(np.abs(A - C)))
        if feas <= cfg.tol and gap <= cfg.tol:
            converged = True
            break
    objective = float(np.abs(C).sum() + lambda_e * np.abs(E).sum())
    return C, solvers.SolverReport(iterations, max(feas, gap), objective, converged)


def _ssc_lp_optimum(Xv, lam):
    """SSC's optimal objective from scipy's LP solver. Column by column,
    min ||c||_1 + lambda_e ||e||_1 s.t. X_-j c + e = x_j, with c and e split
    into nonnegative parts; lambda_e = lam / mu_e as in solve_ssc."""
    d, n = Xv.shape
    off = np.abs(Xv.T @ Xv)
    np.fill_diagonal(off, 0.0)
    lam_e = lam / off.max(axis=0).min()
    cost = np.concatenate([np.ones(2 * (n - 1)), lam_e * np.ones(2 * d)])
    total = 0.0
    for j in range(n):
        A = np.delete(Xv, j, axis=1)
        A_eq = np.hstack([A, -A, np.eye(d), -np.eye(d)])
        res = linprog(cost, A_eq=A_eq, b_eq=Xv[:, j], bounds=(0, None), method="highs")
        assert res.status == 0
        total += res.fun
    return total


def _offblock_ratio(C, labels):
    same = labels[:, None] == labels[None, :]
    mass = np.abs(C)
    return mass[~same].sum() / mass.sum()


class TestProximal:
    def test_soft_threshold_values(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        v = np.array([[1.5, -2.5], [0.2, 0.0]])
        assert np.array_equal(soft_threshold(v, 0.0), v)
        assert np.array_equal(
            soft_threshold(v, 1.0), np.array([[0.5, -1.5], [0.0, 0.0]])
        )

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_soft_threshold_matches_sign_form_bitwise(self, tau):
        v = np.random.default_rng(8).standard_normal((30, 30))
        v[::4, ::3] = 0.0
        v[1::4, ::5] = -0.0
        v[2, :2] = [tau, -tau]
        expected = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
        out = soft_threshold(v, tau)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    def test_soft_threshold_negative_tau(self):
        with pytest.raises(ConfigError):
            soft_threshold(1.0, -0.1)

    def test_infinite_tau_shrinks_to_zero(self):
        # ssc's tau = 1/lam is inf for a subnormal lam; the solve still returns C = 0
        assert np.array_equal(soft_threshold(np.array([-2.0, 3.0]), np.inf), np.zeros(2))
        assert not singular_value_threshold(np.eye(3), np.inf).any()
        X = _random_matrix(4, 4, 8)
        C = solve_ssc(X, default_solver_config("ssc", lam=1e-320, max_iter=5))
        assert not C.values.any()

    def test_svt_zero_matrix(self):
        assert np.array_equal(singular_value_threshold(np.zeros((3, 4)), 2.0), np.zeros((3, 4)))

    def test_svt_diagonal(self):
        out = singular_value_threshold(np.diag([5.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([3.0, 0.0]), atol=1e-12)

    def test_svt_tau_zero_is_identity(self):
        M = np.random.default_rng(0).standard_normal((4, 4))
        assert np.max(np.abs(singular_value_threshold(M, 0.0) - M)) < 1e-10

    @pytest.mark.parametrize("margin", [0.5, 1e-9], ids=["well-below", "just-below"])
    @pytest.mark.parametrize("rank", [1, 4])
    def test_svt_within_frobenius_norm_is_zero_without_svd(self, monkeypatch, rank, margin):
        rng = np.random.default_rng(rank)
        M = rng.standard_normal((6, rank)) @ rng.standard_normal((rank, 5))
        tau = np.linalg.norm(M) * (1.0 + margin)
        expected = _svt_by_svd(M, tau)
        assert not np.any(expected)

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD taken although ||M||_F <= tau")

        monkeypatch.setattr(solvers.np.linalg, "svd", no_svd)
        out = singular_value_threshold(M, tau)
        assert out.shape == M.shape
        assert np.array_equal(out, expected)

    def test_svt_above_frobenius_norm_matches_svd(self):
        M = np.random.default_rng(3).standard_normal((6, 5))
        tau = 0.5 * np.linalg.svd(M, compute_uv=False)[0]
        out = singular_value_threshold(M, tau)
        assert np.any(out)
        assert np.max(np.abs(out - _svt_by_svd(M, tau))) <= 1e-12


def _duplicate_columns():
    X = np.random.default_rng(4).standard_normal((5, 9))
    X[:, 6] = X[:, 2]
    return X


def _rank_deficient():
    rng = np.random.default_rng(5)
    return rng.standard_normal((7, 2)) @ rng.standard_normal((2, 10))


def _zero_column():
    X = np.random.default_rng(7).standard_normal((6, 10))
    X[:, 3] = 0.0
    return X


_SHAPED_INPUTS = [
    pytest.param(np.random.default_rng(1).standard_normal((4, 11)), id="d<n"),
    pytest.param(np.random.default_rng(2).standard_normal((11, 4)), id="d>n"),
    pytest.param(_duplicate_columns(), id="duplicate-columns"),
    pytest.param(_rank_deficient(), id="rank-deficient"),
]


class TestRidgeSolver:
    """The ADMMs' quadratic step against a dense solve of its ridge system."""

    @pytest.mark.parametrize("Xv", _SHAPED_INPUTS)
    @pytest.mark.parametrize("rho1, rho2", [(1.0, 1.0), (37.5, 20.0), (1e-3, 5.0)])
    def test_matches_dense_solve(self, Xv, rho1, rho2):
        d, n = Xv.shape
        rng = np.random.default_rng(6)
        B, M = rng.standard_normal((n, n)), rng.standard_normal((d, n))
        expected = np.linalg.solve(
            rho1 * (Xv.T @ Xv) + rho2 * np.eye(n), rho1 * (Xv.T @ M) + rho2 * B
        )
        U, s, Vt = solvers._thin_svd(Xv)
        g = (rho1 * s**2 / (rho1 * s**2 + rho2))[:, None]
        A, XA = solvers._quadratic_step(B, M, U * s, Vt, g, rho1, rho2)
        assert np.max(np.abs(A - expected)) <= 1e-10 * max(1.0, np.max(np.abs(expected)))
        X_expected = Xv @ expected
        assert np.max(np.abs(XA - X_expected)) <= 1e-10 * max(1.0, np.max(np.abs(X_expected)))


class TestAgainstCholeskyReference:
    """The solvers against their loops as written before the row-space step,
    with an n x n Cholesky solve and an SVD at every thresholding."""

    # lam = 0.5 fails lrrsc's closed-form certificate on this input (its
    # largest column norm is 1.03), so the ADMM runs
    @pytest.mark.parametrize(
        "solver_fn, name, lam",
        [(solve_lrrsc, "lrrsc", 0.5), (solve_ssc, "ssc", 20.0)],
        ids=["lrrsc", "ssc"],
    )
    def test_same_iterations_and_coefficients(self, solver_fn, name, lam):
        spec = SyntheticSpec(3, 3, 40, 14, 0.05, seed=2)
        X = prepare_dataset(generate_synthetic(spec), pca_dim=12, normalize=True).matrix
        cfg = default_solver_config(name, lam=lam)
        C = solver_fn(X, cfg)

        def cholesky(s, Vt, rho1, rho2):
            return _cholesky_ridge(X.values, rho1, rho2)

        if name == "ssc":
            ref_values, ref_report = _ssc_four_gemm(X, cfg, cholesky)
        else:
            ref_values, ref_report = _lrrsc_by_admm(X, cfg, cholesky, _svt_by_svd)
        assert C.report.iterations > 1
        assert C.report.iterations == ref_report.iterations
        assert C.report.converged == ref_report.converged
        assert np.max(np.abs(C.values - ref_values)) <= 1e-10
        assert C.report.objective == pytest.approx(ref_report.objective, rel=1e-10)


class TestClosedFormsAgainstDenseReference:
    """LSR and SMR through the thin SVD of X against n x n factorizations of
    the Gram matrix. Measured worst relative differences over these inputs:
    1.2e-13 (lsr) and 4.9e-12 (smr, at lam=100)."""

    @pytest.mark.parametrize(
        "Xv", _SHAPED_INPUTS + [pytest.param(_zero_column(), id="zero-column")]
    )
    @pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
    def test_same_coefficients(self, Xv, lam):
        X = DataMatrix(Xv)
        lsr = solve_lsr(X, default_solver_config("lsr", lam=lam))
        ref = _lsr_by_lu(Xv, lam)
        assert np.max(np.abs(lsr.values - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        assert lsr.report.converged and lsr.report.iterations == 1
        smr = solve_smr(X, default_solver_config("smr", lam=lam))
        ref = _smr_by_gram_eigh(Xv, lam, build_knn_laplacian(X, min(4, X.n - 1), 0.01))
        assert np.max(np.abs(smr.values - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))
        assert smr.report.converged

    @pytest.mark.parametrize(
        "solver_fn, name", [(solve_lsr, "lsr"), (solve_smr, "smr")], ids=["lsr", "smr"]
    )
    def test_svd_failure_is_numerical_error(self, monkeypatch, solver_fn, name):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(solvers.np.linalg, "svd", failing_svd)
        with pytest.raises(NumericalError, match="SVD of the data failed"):
            solver_fn(_random_matrix(0, 5, 9), default_solver_config(name))


def _knn_laplacian_by_loop(X, k_graph, epsilon):
    """Reference kNN Laplacian: one exact-difference distance row per point."""
    pts, n = X.values, X.n
    W = np.zeros((n, n))
    for i in range(n):
        d2 = np.sum((pts - pts[:, i : i + 1]) ** 2, axis=0)
        d2[i] = np.inf
        kth = np.partition(d2, k_graph - 1)[k_graph - 1]
        W[i, d2 <= kth] = 1.0
    W = np.maximum(W, W.T)
    deg = W.sum(axis=1)
    return np.diag(deg + epsilon) - W


def _knn_inputs():
    rng = np.random.default_rng(23)
    usps = generate_synthetic(SyntheticSpec(10, 5, 256, 50, 0.08, seed=0))
    grid = np.array(np.meshgrid(*[np.arange(3.0)] * 3)).reshape(3, -1)
    return {
        # column-major, as the CLI loads a CSV
        "usps-256x500": np.asfortranarray(prepare_dataset(usps, normalize=True).matrix.values),
        "triplicated": np.tile(rng.standard_normal((6, 15)), 3),
        "quarters": np.round(4.0 * rng.standard_normal((5, 40))) / 4.0,
        "integer-grid": grid,
        "d=1": rng.integers(0, 8, size=(1, 30)).astype(np.float64),
        "identical": np.full((4, 10), 0.3),
    }


_KNN_INPUTS = _knn_inputs()


class TestKnnLaplacian:
    def test_two_pairs_k1(self):
        pts = np.array([[0.0, 0.001, 5.0, 5.001], [0.0, 0.0, 0.0, 0.0]])
        L_hat = build_knn_laplacian(DataMatrix(pts), 1, 0.01)
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 3] = W[3, 2] = 1.0
        assert np.array_equal(L_hat, np.diag(W.sum(axis=1) + 0.01) - W)

    def test_rows_sum_to_zero(self):
        X = _random_matrix(1, 5, 20, normalize=False)
        L_hat = build_knn_laplacian(X, 4, 0.01)
        assert np.array_equal(L_hat, L_hat.T)
        assert np.max(np.abs(L_hat.sum(axis=1) - 0.01)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_smallest_eigenvalue_at_least_epsilon(self, seed):
        X = _random_matrix(seed, 4, 15, normalize=False)
        eps = 0.01
        smallest = np.linalg.eigvalsh(build_knn_laplacian(X, 3, eps))[0]
        assert smallest >= eps - 1e-10

    @pytest.mark.parametrize("k", ["1", "4", "n-1"])
    @pytest.mark.parametrize("name", list(_KNN_INPUTS))
    def test_matches_reference_loop(self, name, k):
        X = DataMatrix(_KNN_INPUTS[name])
        k_graph = X.n - 1 if k == "n-1" else int(k)
        L_hat = build_knn_laplacian(X, k_graph, 0.01)
        ref = _knn_laplacian_by_loop(X, k_graph, 0.01)
        assert L_hat.dtype == ref.dtype and L_hat.shape == ref.shape
        assert L_hat.tobytes() == ref.tobytes()
        if name == "identical":
            assert np.all(L_hat == (X.n - 1 + 0.01) * np.eye(X.n) - (1.0 - np.eye(X.n)))

    def test_peak_at_n500(self):
        # the distance table and np.partition's copy; before L was built in place 3.0
        X = DataMatrix(_KNN_INPUTS["usps-256x500"])
        assert _peak_in_n2_floats(build_knn_laplacian, X, 4, 0.01, n=500) <= 2.1

    def test_k_out_of_range(self):
        X = _random_matrix(2, 3, 6, normalize=False)
        for bad in (0, 6, 7):
            with pytest.raises(ConfigError):
                build_knn_laplacian(X, bad, 0.01)


def _report_scale(Xv):
    """max(1, max_i ||x_i||^2), which is max|X^T X| in exact arithmetic."""
    return max(1.0, np.max(np.sum(Xv * Xv, axis=0)))


def _lsr_out_of_place(Xv, lam):
    """Reference lsr (C, residual, objective), each n x n step out of place."""
    _, s, Vt = np.linalg.svd(Xv, full_matrices=False)
    s2 = s**2
    C = (Vt.T * (s2 / (s2 + lam))) @ Vt
    fit = Xv - Xv @ C
    resid = np.max(np.abs(lam * C - Xv.T @ fit)) / _report_scale(Xv)
    return C, resid, float(1.0 * np.sum(fit * fit) + np.sum(lam * C * C))


def _smr_out_of_place(X, lam):
    """Reference smr (C, residual, objective), each n x n step out of place.

    The graph is build_knn_laplacian's, which the loop reference pins."""
    Xv = X.values
    _, s, Vt = np.linalg.svd(Xv, full_matrices=False)
    s2 = s**2
    L_hat = build_knn_laplacian(X, min(4, X.n - 1), 0.01)
    theta, Q = np.linalg.eigh(L_hat)
    lam_g = lam * s2[:, None]
    gain = lam_g / (lam_g + theta[None, :])
    C = Vt.T @ (gain * (Vt @ Q)) @ Q.T
    CL = C @ L_hat
    fit = Xv - Xv @ C
    resid = np.max(np.abs(CL - lam * (Xv.T @ fit))) / _report_scale(Xv)
    return C, resid, float(lam * np.sum(fit * fit) + np.sum(CL * C))


_IN_PLACE_INPUTS = _SHAPED_INPUTS + [
    pytest.param(_KNN_INPUTS["usps-256x500"], id="usps-256x500"),
]


def _assert_report_of(result, C, resid, objective, tol):
    assert result.values.tobytes() == C.tobytes()
    report = result.report
    assert (report.iterations, report.primal_residual, report.objective) == (1, resid, objective)
    assert report.converged == (resid <= tol)


def _peak_in_n2_floats(fn, *args, n):
    """tracemalloc's peak numpy heap of fn(*args), in units of n * n float64s."""
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n * n)


class TestLSR:
    @pytest.mark.parametrize("Xv", _IN_PLACE_INPUTS)
    @pytest.mark.parametrize("lam", [0.01, 1.0])
    def test_matches_out_of_place_bitwise(self, Xv, lam):
        cfg = default_solver_config("lsr", lam=lam)
        _assert_report_of(solve_lsr(DataMatrix(Xv), cfg), *_lsr_out_of_place(Xv, lam), cfg.tol)

    def test_huge_lambda_kills_coefficients(self):
        X = _random_matrix(0, 5, 8, normalize=False)
        C = solve_lsr(X, default_solver_config("lsr", lam=1e12))
        G = X.values.T @ X.values
        assert np.linalg.norm(C.values) <= 2.0 * np.linalg.norm(G) / 1e12
        assert np.linalg.norm(C.values) <= 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_normal_equation_residual(self, seed):
        X = _random_matrix(seed, 5, 8, normalize=False)
        lam = 0.1
        C = solve_lsr(X, default_solver_config("lsr", lam=lam))
        G = X.values.T @ X.values
        assert np.max(np.abs((G + lam * np.eye(8)) @ C.values - G)) <= 1e-8
        assert C.report.converged

    def test_scaling_invariance(self):
        X = _random_matrix(3, 6, 9, normalize=False)
        C1 = solve_lsr(X, default_solver_config("lsr", lam=0.5))
        C2 = solve_lsr(DataMatrix(2.0 * X.values), default_solver_config("lsr", lam=2.0))
        assert np.max(np.abs(C1.values - C2.values)) <= 1e-8

    def test_objective_reported(self):
        X = _random_matrix(5, 5, 7)
        lam = 0.2
        C = solve_lsr(X, default_solver_config("lsr", lam=lam))
        fit = X.values - X.values @ C.values
        expected = np.sum(fit * fit) + lam * np.sum(C.values * C.values)
        assert C.report.objective == pytest.approx(expected, rel=1e-12)


class TestSMR:
    @pytest.mark.parametrize("Xv", _IN_PLACE_INPUTS)
    @pytest.mark.parametrize("lam", [1.0, 100.0])
    def test_matches_out_of_place_bitwise(self, Xv, lam):
        X = DataMatrix(Xv)
        cfg = default_solver_config("smr", lam=lam)
        _assert_report_of(solve_smr(X, cfg), *_smr_out_of_place(X, lam), cfg.tol)

    def test_peak_at_n500(self):
        # C, C L_hat and the report's residual; before the in-place steps 8.8
        X = DataMatrix(_KNN_INPUTS["usps-256x500"])
        assert _peak_in_n2_floats(solve_smr, X, default_solver_config("smr"), n=500) <= 5.5

    @pytest.mark.parametrize("seed", range(10))
    def test_stationarity_residual(self, seed):
        X = _random_matrix(seed, 6, 10, normalize=False)
        cfg = default_solver_config("smr", lam=1.0)
        C = solve_smr(X, cfg)
        G = X.values.T @ X.values
        L_hat = build_knn_laplacian(X, 4, 0.01)
        R = cfg.lam * (G @ C.values) + C.values @ L_hat - cfg.lam * G
        assert np.max(np.abs(R)) <= 1e-6 * max(1.0, np.abs(G).max())
        assert C.report.converged

    def test_grouping_effect_duplicate_columns(self):
        rng = np.random.default_rng(42)
        base = rng.standard_normal((6, 12))
        base[:, 7] = base[:, 3]
        X = normalize_columns(DataMatrix(base))
        C = solve_smr(X, default_solver_config("smr"))
        gap = np.linalg.norm(C.values[:, 3] - C.values[:, 7])
        assert gap / np.linalg.norm(C.values[:, 3]) <= 1e-3

    def test_local_minimum_sanity(self):
        X = _random_matrix(7, 6, 10)
        cfg = default_solver_config("smr", lam=1.0)
        C = solve_smr(X, cfg)
        G = X.values.T @ X.values
        L_hat = build_knn_laplacian(X, 4, 0.01)

        def objective(M):
            fit = X.values - X.values @ M
            return cfg.lam * np.sum(fit * fit) + np.trace(M @ L_hat @ M.T)

        base = objective(C.values)
        rng = np.random.default_rng(0)
        for _ in range(100):
            delta = rng.standard_normal(C.values.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert base <= objective(C.values + delta) + 1e-12

    @pytest.mark.parametrize("lam", [1.0, 100.0])
    def test_objective_reported(self, lam):
        X = _random_matrix(5, 6, 10)
        C = solve_smr(X, default_solver_config("smr", lam=lam))
        L_hat = build_knn_laplacian(X, 4, 0.01)
        fit = X.values - X.values @ C.values
        expected = lam * np.sum(fit * fit) + np.trace(C.values @ L_hat @ C.values.T)
        assert C.report.objective == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fewer_than_five_points(self, n):
        # the graph takes every other point as a neighbor: k = min(4, n - 1)
        X = _random_matrix(n, 6, n, normalize=False)
        cfg = default_solver_config("smr")
        C = solve_smr(X, cfg)
        assert np.all(np.isfinite(C.values))
        G = X.values.T @ X.values
        L_hat = build_knn_laplacian(X, n - 1, 0.01)
        R = cfg.lam * (G @ C.values) + C.values @ L_hat - cfg.lam * G
        assert np.max(np.abs(R)) <= 1e-6 * max(1.0, np.abs(G).max())
        assert C.report.converged


class TestClosedFormReport:
    """The report lsr and smr share catches a C that is not the minimizer:
    C + delta e_i e_j^T moves the stationarity residual by about
    delta (P_jj + weight G_ii) / scale, which is chosen as 200 tol."""

    @staticmethod
    def _weight_and_P(name, X, lam):
        if name == "lsr":
            return 1.0, lam * np.eye(X.n)
        return lam, build_knn_laplacian(X, min(4, X.n - 1), 0.01)

    @pytest.mark.parametrize("name", ["lsr", "smr"])
    @pytest.mark.parametrize("i, j", [(0, 0), (2, 7), (9, 4)])
    def test_perturbed_coefficients_do_not_converge(self, name, i, j):
        X = _random_matrix(3, 6, 10, normalize=False)
        cfg = default_solver_config(name, lam=1.0)
        weight, P = self._weight_and_P(name, X, cfg.lam)
        C = solvers.solve(name, X, cfg).values
        G = X.values.T @ X.values
        scale = max(1.0, np.max(np.abs(G)))
        delta = 200 * cfg.tol * scale / (P[j, j] + weight * G[i, i])
        wrong = C.copy()
        wrong[i, j] += delta
        report = solvers._closed_form(X.values, wrong, weight, wrong @ P, name, cfg).report
        assert report.primal_residual >= 100 * cfg.tol
        assert not report.converged
        # the minimizer itself passes the same report
        assert solvers._closed_form(X.values, C, weight, C @ P, name, cfg).report.converged


_NORMALIZED = _random_matrix(1, 6, 12)
# max|X| > 1, so LRRSC's residual is divided by a numpy scalar, max|X|
_UNNORMALIZED = DataMatrix(3.0 * np.random.default_rng(1).standard_normal((6, 12)))

# solver, config overrides, iterations ("one", "some" or "all" of max_iter), converged
_REPORT_PATHS = [
    pytest.param("lsr", {}, "one", True, id="lsr"),
    pytest.param("lsr", dict(tol=1e-30), "one", False, id="lsr-unmet-tol"),
    pytest.param("smr", {}, "one", True, id="smr"),
    pytest.param("lrrsc", {}, "one", True, id="lrrsc-closed-form"),
    pytest.param("lrrsc", dict(lam=0.05), "some", True, id="lrrsc-admm"),
    pytest.param("lrrsc", dict(lam=1e-3, max_iter=5), "all", False, id="lrrsc-admm-capped"),
    pytest.param("ssc", dict(max_iter=5000), "some", True, id="ssc"),
    pytest.param("ssc", dict(max_iter=3), "all", False, id="ssc-capped"),
]


class TestSolverReport:
    """`_result` is every solve's one exit: it builds the report, with plain
    Python types and converged exactly primal_residual <= tol, and it names a
    non-finite C as an overflow at the solver's lam."""

    @pytest.mark.parametrize("X", [_NORMALIZED, _UNNORMALIZED], ids=["normalized", "max|X|>1"])
    @pytest.mark.parametrize("solver, overrides, iterations, converged", _REPORT_PATHS)
    def test_types_and_converged_rule(self, X, solver, overrides, iterations, converged):
        cfg = default_solver_config(solver, **overrides)
        report = solvers.solve(solver, X, cfg).report
        # each case takes the exit it names
        if iterations == "some":
            assert 1 < report.iterations < cfg.max_iter
        else:
            assert report.iterations == {"one": 1, "all": cfg.max_iter}[iterations]
        assert report.converged is converged
        assert type(report.iterations) is int
        assert type(report.primal_residual) is float
        assert type(report.objective) is float
        assert type(report.converged) is bool
        assert report.converged == (report.primal_residual <= cfg.tol)

    @pytest.mark.parametrize("solver", solvers.SOLVERS)
    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_coefficients_name_solver_and_lam(self, solver, entry):
        C = np.eye(3)
        C[1, 2] = entry
        cfg = default_solver_config(solver, lam=1e308)
        message = f"{solver} produced non-finite coefficients at lam=1e+308"
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            solvers._result(C, solver, cfg, 1, 0.0, 0.0)


class TestSSC:
    def test_diag_exactly_zero(self):
        X = _random_matrix(0, 8, 25)
        C = solve_ssc(X, default_solver_config("ssc"))
        assert np.all(np.diag(C.values) == 0.0)

    @pytest.mark.parametrize(
        "overrides", [dict(max_iter=1), dict(max_iter=2), dict(max_iter=7), {}],
        ids=["max_iter=1", "max_iter=2", "max_iter=7", "default"],
    )
    def test_diag_is_positive_zero_from_projecting_a(self, overrides):
        # only A's diagonal is zeroed; the dual's stays +0.0, so C's is +0.0 bit for bit
        X = _random_matrix(0, 8, 25)
        diag = np.diag(solve_ssc(X, default_solver_config("ssc", **overrides)).values)
        assert np.all(diag == 0.0)
        assert not np.any(np.signbit(diag))

    def test_subspace_preserving_two_subspaces(self):
        spec = SyntheticSpec(2, 2, 10, 15, 0.0, seed=5)
        ds = prepare_dataset(generate_synthetic(spec), normalize=True)
        C = solve_ssc(ds.matrix, default_solver_config("ssc"))
        labels = ds.truth.labels
        cross = np.abs(C.values)[labels[:, None] != labels[None, :]]
        assert cross.max() <= 1e-6

    def test_feasibility_at_convergence(self):
        spec = SyntheticSpec(2, 2, 10, 15, 0.0, seed=5)
        ds = prepare_dataset(generate_synthetic(spec), normalize=True)
        C = solve_ssc(ds.matrix, default_solver_config("ssc", max_iter=5000))
        assert C.report.converged
        assert C.report.primal_residual <= 2e-4

    def test_nonconvergence_returns_flag(self):
        X = _random_matrix(1, 8, 30)
        C = solve_ssc(X, default_solver_config("ssc", max_iter=3))
        assert not C.report.converged
        assert C.report.iterations == 3

    @pytest.mark.parametrize(
        "matrix",
        [_noiseless_instance(11).matrix, _random_matrix(1, 8, 25)],
        ids=["noiseless", "random"],
    )
    def test_objective_descends_with_bounded_transients(self, matrix):
        # alternating-direction transients may bump the objective slightly;
        # require overall descent and small per-step increases after warmup.
        # The reference gives every iterate's objective; a solve stopped at k
        # iterations reports the k-th bit for bit
        _, report, history = _ssc_by_full_passes(matrix, default_solver_config("ssc"))
        h = np.array(history)
        assert len(h) == report.iterations > 50
        for k in (1, 5, 50, report.iterations):
            C = solve_ssc(matrix, default_solver_config("ssc", max_iter=k))
            assert C.report.iterations == k
            assert C.report.objective == h[k - 1]
        steps = np.diff(h[5:])
        assert np.all(steps <= 0.02 * np.abs(h[5:-1]) + 1e-12)
        assert h[-1] <= h[5]

    _CAPPED_AND_CONVERGING = [
        pytest.param(_random_matrix(1, 8, 25), 200, id="capped"),
        pytest.param(_noiseless_instance().matrix, 5000, id="converging"),
    ]

    @pytest.mark.parametrize("X, max_iter", _CAPPED_AND_CONVERGING)
    def test_matches_full_passes_bit_for_bit(self, X, max_iter):
        cfg = default_solver_config("ssc", max_iter=max_iter)
        C = solve_ssc(X, cfg)
        ref, report, _ = _ssc_by_full_passes(X, cfg)
        assert C.values.tobytes() == ref.tobytes()
        assert C.report == report

    @pytest.mark.parametrize("X, max_iter", _CAPPED_AND_CONVERGING)
    def test_row_space_step_matches_four_gemm_loop(self, X, max_iter):
        # Vt Vt^T is the identity only up to rounding, so the two loops part
        # in the last bits and no further
        cfg = default_solver_config("ssc", max_iter=max_iter)
        C = solve_ssc(X, cfg)
        ref, report = _ssc_four_gemm(X, cfg)
        assert np.max(np.abs(C.values - ref)) <= 1e-12
        assert (C.report.iterations, C.report.converged) == (report.iterations, report.converged)
        assert C.report.objective == pytest.approx(report.objective, rel=1e-12)

    def test_zero_column_rejected(self):
        values = np.random.default_rng(2).standard_normal((4, 6))
        values[:, 2] = 0.0
        with pytest.raises(DataError):
            solve_ssc(DataMatrix(values), default_solver_config("ssc"))

    @pytest.mark.parametrize(
        "zero, named",
        [
            ([2], "1 column(s) have zero norm, at index 2"),
            ([0, 13], "2 column(s) have zero norm, at index 0, 13"),
            (
                range(1, 13),
                "12 column(s) have zero norm, at index 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...",
            ),
        ],
    )
    def test_zero_column_message_names_the_columns(self, zero, named):
        # normalize_columns leaves a zero column as it is, so the message names it
        values = np.random.default_rng(2).standard_normal((4, 14))
        values[:, list(zero)] = 0.0
        with pytest.raises(DataError, match=f"^ssc requires nonzero columns; {re.escape(named)}$"):
            solve_ssc(DataMatrix(values), default_solver_config("ssc"))

    def test_matches_linear_program_oracle(self):
        X = _random_matrix(3, 4, 8)
        C = solve_ssc(X, default_solver_config("ssc", max_iter=50000, tol=1e-6))
        assert C.report.converged
        assert C.report.objective == pytest.approx(_ssc_lp_optimum(X.values, 20.0), rel=1e-5)

    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(3, 2, 8, 8, 0.05, seed=0),
            SyntheticSpec(3, 2, 8, 8, 0.05, seed=2),
            SyntheticSpec(4, 3, 12, 10, 0.05, seed=0),
        ],
        ids=["3x2-in-8-seed0", "3x2-in-8-seed2", "4x3-in-12-seed0"],
    )
    def test_objective_near_linear_program_optimum(self, spec):
        # noisy subspaces at the default lam: a converged solve is within
        # 1e-4 of the optimum (its iterate is feasible only to tol, so it may
        # land below it), and the default 200 iterations within 1e-2
        X = prepare_dataset(generate_synthetic(spec), normalize=True).matrix
        optimum = _ssc_lp_optimum(X.values, 20.0)
        C = solve_ssc(X, default_solver_config("ssc", max_iter=5000))
        assert C.report.converged
        assert abs(C.report.objective - optimum) <= 1e-4 * optimum
        capped = solve_ssc(X, default_solver_config("ssc"))
        assert abs(capped.report.objective - optimum) <= 1e-2 * optimum


class TestLRRSC:
    # at lam = 2 these inputs take the closed form, at the smaller lam the ADMM
    def test_symmetry_exact(self):
        X = _random_matrix(0, 8, 12)
        for lam in (2.0, 0.05):
            C = solve_lrrsc(X, default_solver_config("lrrsc", lam=lam))
            assert np.max(np.abs(C.values - C.values.T)) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_plug_back_feasibility(self, seed):
        X = _random_matrix(seed, 8, 12)
        cfg = default_solver_config("lrrsc")
        C = solve_lrrsc(X, cfg)
        assert C.report.converged
        assert C.report.primal_residual <= 1e-4
        # the objective's l2,1 term, (objective - ||C||_*) / lam, is that of
        # an E explaining the residual X - XC
        e_l21 = np.sum(np.linalg.norm(X.values - X.values @ C.values, axis=0))
        nuclear = np.sum(np.linalg.svd(C.values, compute_uv=False))
        reported = (C.report.objective - nuclear) / cfg.lam
        assert abs(e_l21 - reported) <= 1e-3 * max(1.0, e_l21)

    def test_nuclear_norm_finite(self):
        X = _random_matrix(2, 6, 9)
        C = solve_lrrsc(X, default_solver_config("lrrsc"))
        nuclear = np.sum(np.linalg.svd(C.values, compute_uv=False))
        assert np.isfinite(nuclear)
        assert np.isfinite(C.report.objective)

    def test_noiseless_recovers_block_structure(self):
        ds = _noiseless_instance()
        for lam in (2.0, 0.5):
            C = solve_lrrsc(ds.matrix, default_solver_config("lrrsc", lam=lam))
            assert _offblock_ratio(C.values, ds.truth.labels) <= 0.05


def _ci_smoke_matrix():
    spec = SyntheticSpec(3, 3, 20, 15, 0.05, seed=1)
    return prepare_dataset(generate_synthetic(spec), normalize=True).matrix


def _with_spectrum(s, n, seed=0):
    """A d x n matrix with singular values s and random singular vectors."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((len(s), len(s))))[0]
    V = np.linalg.qr(rng.standard_normal((n, len(s))))[0]
    return DataMatrix((U * np.asarray(s)) @ V.T)


# the 8 x 12 random inputs at seeds 0-2 have largest certificate column norms
# 1.69, 1.40 and 1.70 and the noiseless one 0.61, below the default lam = 2
_CERTIFIED = [pytest.param(_random_matrix(seed, 8, 12), id=f"random-{seed}") for seed in range(3)]
_CERTIFIED.append(pytest.param(_noiseless_instance().matrix, id="noiseless"))


class TestLRRSCClosedForm:
    """V_r V_r^T where its KKT certificate holds; the ADMM, bit for bit, where not."""

    @pytest.mark.parametrize("X", _CERTIFIED)
    def test_satisfies_kkt_conditions(self, monkeypatch, X):
        cfg = default_solver_config("lrrsc")
        Xv = X.values
        svd, shapes = np.linalg.svd, []

        def spy(M, *args, **kwargs):
            shapes.append((M.shape, kwargs.get("full_matrices")))
            return svd(M, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(solvers.np.linalg, "svd", spy)
            C = solve_lrrsc(X, cfg)
        # one SVD, the thin one of X: the report takes none of C
        assert shapes == [(Xv.shape, False)]
        Cv = C.values
        assert C.report.iterations == 1 and C.report.converged
        # the objective is r exactly, the residual the one checked against tol
        assert C.report.objective == float(np.linalg.matrix_rank(Xv))
        scale = max(1.0, np.max(np.abs(Xv)))
        assert C.report.primal_residual == np.max(np.abs(Xv - Xv @ Cv)) / scale
        Y = np.linalg.pinv(Xv).T  # U_r S_r^-1 V_r^T
        # primal feasibility with E = 0
        assert np.max(np.abs(Xv - Xv @ Cv)) <= 1e-12
        # C is an orthogonal projector, so its polar factor is C and
        # X^T Y = C lies in the nuclear-norm subdifferential at C
        assert np.max(np.abs(Cv @ Cv - Cv)) <= 1e-12
        assert np.max(np.abs(Xv.T @ Y - Cv)) <= 1e-12
        # Y lies in lam times the l2,1 subdifferential at E = 0
        assert np.max(np.linalg.norm(Y, axis=0)) < cfg.lam

    @pytest.mark.parametrize("X", _CERTIFIED)
    def test_matches_a_long_admm_run(self, monkeypatch, X):
        # measured: the ADMM stops within 1.6 * tol of V_r V_r^T on these inputs
        C = solve_lrrsc(X, default_solver_config("lrrsc"))
        cfg = default_solver_config("lrrsc", tol=1e-9, max_iter=5000)
        monkeypatch.setattr(solvers, "_shape_interaction", lambda *args: None)
        admm = solve_lrrsc(X, cfg)
        assert admm.report.converged and admm.report.iterations > 1
        assert np.max(np.abs(C.values - admm.values)) <= 10 * cfg.tol
        assert C.report.objective == pytest.approx(admm.report.objective, rel=1e-6)

    _FALLBACK_CASES = [
        pytest.param(_random_matrix(0, 8, 12), 1e-3, id="random-tiny-lam"),
        pytest.param(_random_matrix(3, 8, 12), 2.0, id="random-default-lam"),
        pytest.param(_noiseless_instance().matrix, 0.05, id="noiseless-small-lam"),
        # the data of CI's CLI smoke: largest certificate column norm 2.90
        pytest.param(_ci_smoke_matrix(), 2.0, id="ci-smoke-default-lam"),
    ]

    @pytest.mark.parametrize("X, lam", _FALLBACK_CASES)
    def test_fallback_is_the_admm_bit_for_bit(self, X, lam):
        cfg = default_solver_config("lrrsc", lam=lam)
        C = solve_lrrsc(X, cfg)
        ref, report = _lrrsc_by_admm(X, cfg)
        assert C.report.iterations > 1
        assert C.values.tobytes() == ref.tobytes()
        assert C.report == report

    @pytest.mark.parametrize("X, lam", _FALLBACK_CASES)
    def test_fallback_matches_the_ridge_loop(self, X, lam):
        # Vt Vt^T is the identity only up to rounding, so the row-space step
        # and the ridge solve part in the last bits and no further
        cfg = default_solver_config("lrrsc", lam=lam)
        C = solve_lrrsc(X, cfg)
        ref, report = _lrrsc_by_admm(X, cfg, _ridge_by_thin_svd)
        assert np.max(np.abs(C.values - ref)) <= 1e-12
        assert (C.report.iterations, C.report.converged) == (report.iterations, report.converged)
        assert C.report.objective == pytest.approx(report.objective, rel=1e-12)

    def test_closed_form_that_misses_tol_falls_back(self):
        # certified, but X - X V_r V_r^T rounds to about 1e-16, above this tol
        X = _random_matrix(0, 8, 12)
        cfg = default_solver_config("lrrsc", tol=1e-20, max_iter=3)
        C = solve_lrrsc(X, cfg)
        assert C.report.iterations == 3 and not C.report.converged

    def test_singular_value_near_the_rank_cut(self):
        # the cut is s[0] * max(d, n) * eps = 2.7e-15 here; a last singular
        # value 100x above it inflates S_r^-1 and fails the certificate, one
        # 100x below it is dropped from the rank
        s = [1.0, 0.8, 0.6, 0.5, 0.4]
        cut = 12 * np.finfo(np.float64).eps
        above = solve_lrrsc(_with_spectrum(s + [100 * cut], 12), default_solver_config("lrrsc"))
        assert above.report.iterations > 1
        below = solve_lrrsc(_with_spectrum(s + [cut / 100], 12), default_solver_config("lrrsc"))
        assert below.report.iterations == 1 and below.report.converged
        assert below.report.objective == pytest.approx(5.0, rel=1e-12)


class TestOffblockMass:
    def test_noiseless_three_subspace_thresholds(self):
        ds = _noiseless_instance()
        labels = ds.truth.labels
        ssc = solve_ssc(ds.matrix, default_solver_config("ssc"))
        assert _offblock_ratio(ssc.values, labels) <= 0.05
        for solver_fn, name in ((solve_lsr, "lsr"), (solve_smr, "smr"), (solve_lrrsc, "lrrsc")):
            C = solver_fn(ds.matrix, default_solver_config(name))
            assert _offblock_ratio(C.values, labels) <= 0.35, name


class TestDeterminism:
    """Same (X, config) gives the same C and report, bit for bit, in one process
    at one BLAS thread count (1 and 2 threads can round smr differently)."""

    # lrrsc runs its ADMM at the default lam = 2 here (largest certificate
    # column norm 3.13) and its closed form at lam = 4
    @pytest.mark.parametrize(
        "name, overrides",
        [(name, {}) for name in solvers.SOLVERS] + [("lrrsc", {"lam": 4.0})],
        ids=list(solvers.SOLVERS) + ["lrrsc-closed-form"],
    )
    def test_repeated_solve_is_bitwise_equal(self, name, overrides):
        spec = SyntheticSpec(3, 3, 20, 15, noise_sigma=0.05, seed=2)
        X = prepare_dataset(generate_synthetic(spec), normalize=True).matrix
        cfg = default_solver_config(name, **overrides)
        first, second = (solvers.solve(name, X, cfg) for _ in range(2))
        if name == "lrrsc":
            assert (first.report.iterations == 1) == bool(overrides)
        assert first.values.tobytes() == second.values.tobytes()
        assert first.report == second.report


class TestOverflowingLam:
    """A finite lam that overflows the ridge gain's w * s**2 (smr's lam * s**2,
    ssc's lambda_e * s**2) is a numerical failure naming the solver and lam, not
    a data error, raised before any overflow warns (the suite makes those errors)."""

    @pytest.mark.parametrize("name", ["ssc", "smr"])
    def test_numerical_error_names_solver_and_lam(self, name):
        X = prepare_dataset(generate_synthetic(SyntheticSpec(2, 2, 6, 5, seed=1))).matrix
        C = solvers.solve(name, X, default_solver_config(name, lam=1e300))
        assert np.all(np.isfinite(C.values))
        message = f"{name} produced non-finite coefficients at lam=1e\\+308"
        with pytest.raises(NumericalError, match=message):
            solvers.solve(name, X, default_solver_config(name, lam=1e308))


class TestExtremeDataScale:
    """Unnormalized data at an extreme scale fails with a message naming the
    overflow or underflow, not the SVD or the coefficients it breaks."""

    @staticmethod
    def _scaled(scale):
        ds = generate_synthetic(SyntheticSpec(3, 3, 20, 15, 0.05, seed=1))
        return DataMatrix(ds.matrix.values * scale)

    def test_lrrsc_admm_names_the_overflowed_square(self):
        # lam = 1e-160 fails the closed-form certificate, so the ADMM runs; its
        # ridge gain takes s**2 first, which overflows as lsr's and smr's do
        message = (
            "^lrrsc cannot run: the largest singular value of X, [0-9.]+e\\+155, squares to "
            "inf; the data scale is too large$"
        )
        with pytest.raises(NumericalError, match=message):
            solve_lrrsc(self._scaled(1e155), default_solver_config("lrrsc", lam=1e-160))

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_svt_names_a_non_finite_input(self, entry):
        M = np.eye(3)
        M[1, 2] = entry
        with pytest.raises(NumericalError, match="^SVT input overflowed.*data scale is too large$"):
            singular_value_threshold(M, 0.5)

    @pytest.mark.parametrize("name", ["lsr", "smr"])
    def test_lsr_and_smr_name_the_overflowed_square(self, name):
        # the largest singular value squares to inf, which no lam mends; the
        # error comes before any overflow warns (the suite makes those errors)
        X = DataMatrix(generate_synthetic(SyntheticSpec(3, 2, 10, 8, 0.01, 3)).matrix.values * 1e155)
        message = (
            f"^{name} cannot run: the largest singular value of X, [0-9.]+e\\+155, squares to "
            "inf; the data scale is too large$"
        )
        with pytest.raises(NumericalError, match=message):
            solvers.solve(name, X, default_solver_config(name))

    def test_lrrsc_admm_at_a_large_scale(self):
        # the row-space step forms no X^T X, so at 1e150 the ADMM stays finite.
        # At lam = 1e-160 the minimizer is C = 0, E = X: lam ||X^T Y||_2 < 1
        # for the unit columns Y of X puts 0 in the subdifferential
        X = self._scaled(1e150)
        C = solve_lrrsc(X, default_solver_config("lrrsc", lam=1e-160))
        assert C.report.converged and not C.values.any()
        e_l21 = np.sum(np.linalg.norm(X.values, axis=0))
        assert C.report.objective == pytest.approx(1e-160 * e_l21, rel=1e-12)

    def test_lrrsc_closed_form_at_a_large_scale(self):
        # S_r^-1 shrinks with the scale, so the certificate holds at the default
        # lam, and V_r V_r^T is scale-free: the projector onto the row space of X
        X = self._scaled(1e150)
        C = solve_lrrsc(X, default_solver_config("lrrsc"))
        assert C.report.iterations == 1 and C.report.converged
        assert C.report.objective == float(np.linalg.matrix_rank(X.values))
        projector = np.linalg.pinv(X.values / 1e150) @ (X.values / 1e150)
        assert np.max(np.abs(C.values - projector)) <= 1e-10

    def test_lrrsc_certificate_overflow_is_quiet(self):
        # S_r^-1 V_r^T overflows at this scale, which fails the certificate
        # without a RuntimeWarning (the suite turns those into errors)
        C = solve_lrrsc(self._scaled(1e-300), default_solver_config("lrrsc"))
        assert C.report.converged

    def test_svt_of_a_finite_input_whose_norm_overflows(self):
        M = np.diag([1e200, 2e200, 3e200])
        with np.errstate(over="ignore"):
            assert np.linalg.norm(M) == np.inf
            out = singular_value_threshold(M, 1e199)
        assert np.allclose(out, np.diag([0.9e200, 1.9e200, 2.9e200]), rtol=1e-12, atol=0.0)

    def test_ssc_names_the_underflowed_mu_e(self):
        # raised before the quadratic step, whose inf / inf is the first warning
        with pytest.raises(NumericalError, match="mu_e = .*e-32.*data scale is too small"):
            solve_ssc(self._scaled(1e-160), default_solver_config("ssc"))

    # every square x_ij^2 underflows to 0 at these scales, so ||x_i|| and
    # x_i^T x_i do too: no column is zero, and mu_e = 0 is no orthogonality
    @pytest.mark.parametrize("scale", [1e-170, 1e-200])
    def test_ssc_names_the_underflowed_gram_diagonal(self, scale):
        X = self._scaled(scale)
        assert X.values.any(axis=0).all()
        with pytest.raises(NumericalError) as caught:
            solve_ssc(X, default_solver_config("ssc"))
        assert str(caught.value) == (
            "ssc cannot run at lam=20.0: x_i^T x_i underflows to 0 for 45 nonzero column(s); "
            "the data scale is too small"
        )

    def test_ssc_orthogonal_columns_still_warn(self):
        X = DataMatrix(np.diag([3.0, 1e-150, 2.0]))
        with pytest.warns(UserWarning, match="mutually orthogonal; using lambda_e = lam"):
            C = solve_ssc(X, default_solver_config("ssc"))
        assert C.report.converged and not C.values.any()

    @pytest.mark.parametrize(
        "spec, message",
        [
            # X^T X overflows to inf: lambda_e = 0.0 would make the shrinkage
            # threshold lambda_e / rho1 = 0.0 / 0.0
            (SyntheticSpec(3, 2, 10, 8, 0.01, 3), "is 0.0 at mu_e = inf"),
            # products of both signs overflow, and inf + (-inf) makes mu_e nan
            (SyntheticSpec(3, 3, 20, 15, 0.05, 1), "is nan at mu_e = nan"),
        ],
        ids=["inf", "nan"],
    )
    def test_ssc_names_the_overflowed_mu_e(self, spec, message):
        X = DataMatrix(generate_synthetic(spec).matrix.values * 1e155)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError) as caught:
                solve_ssc(X, default_solver_config("ssc"))
        assert str(caught.value) == (
            f"ssc cannot run at lam=20.0: lambda_e = lam / mu_e {message}; "
            "the data scale is too large or lam too small"
        )


class TestConfig:
    def test_positive_parameters_enforced(self):
        with pytest.raises(ConfigError):
            SolverConfig(lam=-1.0)
        with pytest.raises(ConfigError):
            SolverConfig(lam=1.0, tol=0.0)
        with pytest.raises(ConfigError, match="lambda has the wrong type"):
            SolverConfig(lam=10**400)  # an exact integer, but beyond the float range

    def test_default_configs_per_solver(self):
        assert default_solver_config("ssc").tol == 2e-4
        assert default_solver_config("ssc").max_iter == 200
        assert default_solver_config("lrrsc").max_iter == 1000
        with pytest.raises(ConfigError):
            default_solver_config("pca")
