"""Coefficient solver tests: proximal operators, graph Laplacian, and the
four solvers against their stationarity/feasibility oracles."""

import re

import numpy as np
import pytest
import scipy.linalg

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
    @pytest.mark.parametrize("Xv", _SHAPED_INPUTS)
    @pytest.mark.parametrize("rho1, rho2", [(1.0, 1.0), (37.5, 20.0), (1e-3, 5.0)])
    def test_matches_dense_solve(self, Xv, rho1, rho2):
        n = Xv.shape[1]
        R = np.random.default_rng(6).standard_normal((n, n))
        expected = np.linalg.solve(rho1 * (Xv.T @ Xv) + rho2 * np.eye(n), R)
        out = solvers._ridge_solver(Xv, rho1, rho2)(R)
        assert np.max(np.abs(out - expected)) <= 1e-10 * max(1.0, np.max(np.abs(expected)))


class TestAgainstCholeskyReference:
    """The solvers against the same iterations with an n x n Cholesky solve
    and an SVD at every thresholding."""

    @pytest.mark.parametrize(
        "solver_fn, name", [(solve_lrrsc, "lrrsc"), (solve_ssc, "ssc")], ids=["lrrsc", "ssc"]
    )
    def test_same_iterations_and_coefficients(self, monkeypatch, solver_fn, name):
        spec = SyntheticSpec(3, 3, 40, 14, 0.05, seed=2)
        X = prepare_dataset(generate_synthetic(spec), pca_dim=12, normalize=True).matrix
        cfg = default_solver_config(name)
        C = solver_fn(X, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_ridge_solver", _cholesky_ridge)
            patch.setattr(solvers, "singular_value_threshold", _svt_by_svd)
            ref = solver_fn(X, cfg)
        assert C.report.iterations == ref.report.iterations
        assert C.report.converged == ref.report.converged
        assert np.max(np.abs(C.values - ref.values)) <= 1e-10
        assert C.report.objective == pytest.approx(ref.report.objective, rel=1e-10)


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
        ref = _smr_by_gram_eigh(Xv, lam, build_knn_laplacian(X, min(4, X.n - 1), 0.01).L_hat)
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
    return np.diag(deg + epsilon) - W, W, deg


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
        lap = build_knn_laplacian(DataMatrix(pts), 1, 0.01)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1.0
        expected[2, 3] = expected[3, 2] = 1.0
        assert np.array_equal(lap.W_graph, expected)

    def test_rows_sum_to_zero(self):
        X = _random_matrix(1, 5, 20, normalize=False)
        lap = build_knn_laplacian(X, 4, 0.01)
        L = np.diag(lap.D_diag) - lap.W_graph
        assert np.max(np.abs(L.sum(axis=1))) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_smallest_eigenvalue_at_least_epsilon(self, seed):
        X = _random_matrix(seed, 4, 15, normalize=False)
        eps = 0.01
        lap = build_knn_laplacian(X, 3, eps)
        smallest = np.linalg.eigvalsh(lap.L_hat)[0]
        assert smallest >= eps - 1e-10

    @pytest.mark.parametrize("k", ["1", "4", "n-1"])
    @pytest.mark.parametrize("name", list(_KNN_INPUTS))
    def test_matches_reference_loop(self, name, k):
        X = DataMatrix(_KNN_INPUTS[name])
        k_graph = X.n - 1 if k == "n-1" else int(k)
        lap = build_knn_laplacian(X, k_graph, 0.01)
        ref = _knn_laplacian_by_loop(X, k_graph, 0.01)
        for got, want in zip((lap.L_hat, lap.W_graph, lap.D_diag), ref):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        if name == "identical":
            assert np.all(lap.W_graph == 1.0 - np.eye(X.n))

    def test_k_out_of_range(self):
        X = _random_matrix(2, 3, 6, normalize=False)
        for bad in (0, 6, 7):
            with pytest.raises(ConfigError):
                build_knn_laplacian(X, bad, 0.01)


class TestLSR:
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
    @pytest.mark.parametrize("seed", range(10))
    def test_stationarity_residual(self, seed):
        X = _random_matrix(seed, 6, 10, normalize=False)
        cfg = default_solver_config("smr", lam=1.0)
        C = solve_smr(X, cfg)
        G = X.values.T @ X.values
        lap = build_knn_laplacian(X, 4, 0.01)
        R = cfg.lam * (G @ C.values) + C.values @ lap.L_hat - cfg.lam * G
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
        lap = build_knn_laplacian(X, 4, 0.01)

        def objective(M):
            fit = X.values - X.values @ M
            return cfg.lam * np.sum(fit * fit) + np.trace(M @ lap.L_hat @ M.T)

        base = objective(C.values)
        rng = np.random.default_rng(0)
        for _ in range(100):
            delta = rng.standard_normal(C.values.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert base <= objective(C.values + delta) + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fewer_than_five_points(self, n):
        # the graph takes every other point as a neighbor: k = min(4, n - 1)
        X = _random_matrix(n, 6, n, normalize=False)
        cfg = default_solver_config("smr")
        C = solve_smr(X, cfg)
        assert np.all(np.isfinite(C.values))
        G = X.values.T @ X.values
        lap = build_knn_laplacian(X, n - 1, 0.01)
        R = cfg.lam * (G @ C.values) + C.values @ lap.L_hat - cfg.lam * G
        assert np.max(np.abs(R)) <= 1e-6 * max(1.0, np.abs(G).max())
        assert C.report.converged


class TestSSC:
    def test_diag_exactly_zero(self):
        X = _random_matrix(0, 8, 25)
        C = solve_ssc(X, default_solver_config("ssc"))
        assert np.all(np.diag(C.values) == 0.0)

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
    def test_objective_history_descends_with_bounded_transients(self, matrix):
        # alternating-direction transients may bump the objective slightly;
        # require overall descent and small per-step increases after warmup
        C = solve_ssc(matrix, default_solver_config("ssc"))
        h = np.array(C.report.objective_history)
        assert len(h) == C.report.iterations
        steps = np.diff(h[5:])
        assert np.all(steps <= 0.02 * np.abs(h[5:-1]) + 1e-12)
        assert h[-1] <= h[5]

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

    def test_report_error_norms(self):
        X = _random_matrix(3, 6, 12)
        C = solve_ssc(X, default_solver_config("ssc"))
        assert set(C.report.error_matrix_norms) == {"E_l1"}

    def test_matches_linear_program_oracle(self):
        # the objective is an LP per column; compare against scipy's solver
        from scipy.optimize import linprog

        X = _random_matrix(3, 4, 8)
        Xv = X.values
        d, n = Xv.shape
        C = solve_ssc(X, default_solver_config("ssc", max_iter=50000, tol=1e-6))
        assert C.report.converged
        G = Xv.T @ Xv
        off = np.abs(G)
        np.fill_diagonal(off, 0.0)
        lam_e = 20.0 / off.max(axis=0).min()
        lp_total = 0.0
        for j in range(n):
            A = Xv[:, [i for i in range(n) if i != j]]
            cost = np.concatenate([np.ones(2 * (n - 1)), lam_e * np.ones(2 * d)])
            A_eq = np.hstack([A, -A, np.eye(d), -np.eye(d)])
            res = linprog(
                cost, A_eq=A_eq, b_eq=Xv[:, j],
                bounds=[(0, None)] * len(cost), method="highs",
            )
            assert res.status == 0
            lp_total += res.fun
        assert C.report.objective == pytest.approx(lp_total, rel=1e-5)


class TestLRRSC:
    def test_symmetry_exact(self):
        X = _random_matrix(0, 8, 12)
        C = solve_lrrsc(X, default_solver_config("lrrsc"))
        assert np.max(np.abs(C.values - C.values.T)) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_plug_back_feasibility(self, seed):
        X = _random_matrix(seed, 8, 12)
        C = solve_lrrsc(X, default_solver_config("lrrsc"))
        assert C.report.converged
        # recover E from the report norms indirectly: refit the residual
        E = X.values - X.values @ C.values
        e_l21 = np.sum(np.linalg.norm(E, axis=0))
        assert C.report.primal_residual <= 1e-4
        # the reported l2,1 norm corresponds to an E explaining the residual
        assert abs(e_l21 - C.report.error_matrix_norms["E_l21"]) <= 1e-3 * max(1.0, e_l21)

    def test_nuclear_norm_finite(self):
        X = _random_matrix(2, 6, 9)
        C = solve_lrrsc(X, default_solver_config("lrrsc"))
        nuclear = np.sum(np.linalg.svd(C.values, compute_uv=False))
        assert np.isfinite(nuclear)
        assert np.isfinite(C.report.objective)

    def test_noiseless_recovers_block_structure(self):
        ds = _noiseless_instance()
        C = solve_lrrsc(ds.matrix, default_solver_config("lrrsc"))
        assert _offblock_ratio(C.values, ds.truth.labels) <= 0.05


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

    @pytest.mark.parametrize("name", solvers.SOLVERS)
    def test_repeated_solve_is_bitwise_equal(self, name):
        spec = SyntheticSpec(3, 3, 20, 15, noise_sigma=0.05, seed=2)
        X = prepare_dataset(generate_synthetic(spec), normalize=True).matrix
        first, second = (solvers.solve(name, X, default_solver_config(name)) for _ in range(2))
        assert first.values.tobytes() == second.values.tobytes()
        assert first.report == second.report


class TestOverflowingLam:
    """A finite lam that overflows inside ssc's lambda_e = lam / mu_e or smr's
    lam * s**2 is a numerical failure naming the solver and lam, not a data error."""

    @pytest.mark.parametrize("name", ["ssc", "smr"])
    def test_numerical_error_names_solver_and_lam(self, name):
        X = prepare_dataset(generate_synthetic(SyntheticSpec(2, 2, 6, 5, seed=1))).matrix
        C = solvers.solve(name, X, default_solver_config(name, lam=1e300))
        assert np.all(np.isfinite(C.values))
        message = f"{name} produced non-finite coefficients at lam=1e\\+308"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=message):
                solvers.solve(name, X, default_solver_config(name, lam=1e308))


class TestExtremeDataScale:
    """Unnormalized data at an extreme scale fails with a message naming the
    overflow or underflow, not the SVD or the coefficients it breaks."""

    @staticmethod
    def _scaled(scale):
        ds = generate_synthetic(SyntheticSpec(3, 3, 20, 15, 0.05, seed=1))
        return DataMatrix(ds.matrix.values * scale)

    def test_lrrsc_names_the_overflowed_svt_input(self):
        # the iterates overflow first (Xv - Xv @ C), and inf - inf makes NaNs
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="SVT input overflowed.*data scale"):
                solve_lrrsc(self._scaled(1e150), default_solver_config("lrrsc"))

    def test_svt_of_a_finite_input_whose_norm_overflows(self):
        M = np.diag([1e200, 2e200, 3e200])
        with np.errstate(over="ignore"):
            assert np.linalg.norm(M) == np.inf
            out = singular_value_threshold(M, 1e199)
        assert np.allclose(out, np.diag([0.9e200, 1.9e200, 2.9e200]), rtol=1e-12, atol=0.0)

    def test_ssc_names_the_underflowed_mu_e(self):
        # raised before the ridge solve, whose inf / inf is the first warning
        with pytest.raises(NumericalError, match="mu_e = .*e-32.*data scale is too small"):
            solve_ssc(self._scaled(1e-160), default_solver_config("ssc"))


class TestConfig:
    def test_positive_parameters_enforced(self):
        with pytest.raises(ConfigError):
            SolverConfig(lam=-1.0)
        with pytest.raises(ConfigError):
            SolverConfig(lam=1.0, tol=0.0)
        with pytest.raises(ConfigError, match="lam has the wrong type"):
            SolverConfig(lam=10**400)  # an exact integer, but beyond the float range

    def test_default_configs_per_solver(self):
        assert default_solver_config("ssc").tol == 2e-4
        assert default_solver_config("ssc").max_iter == 200
        assert default_solver_config("lrrsc").max_iter == 1000
        with pytest.raises(ConfigError):
            default_solver_config("pca")
