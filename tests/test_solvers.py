"""Coefficient solver tests: proximal operators, graph Laplacian, and the
four solvers against their stationarity/feasibility oracles."""

import numpy as np
import pytest

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
from subclust.errors import ConfigError, DataError
from subclust.solvers import SolverConfig


def _noiseless_instance(seed=11):
    spec = SyntheticSpec(3, 4, 30, 20, 0.0, seed=seed)
    return prepare_dataset(generate_synthetic(spec), normalize=True)


def _random_matrix(seed, d, n, normalize=True):
    X = DataMatrix(np.random.default_rng(seed).standard_normal((d, n)))
    return normalize_columns(X) if normalize else X


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

    def test_soft_threshold_negative_tau(self):
        with pytest.raises(ConfigError):
            soft_threshold(1.0, -0.1)

    def test_svt_zero_matrix(self):
        assert np.array_equal(singular_value_threshold(np.zeros((3, 4)), 2.0), np.zeros((3, 4)))

    def test_svt_diagonal(self):
        out = singular_value_threshold(np.diag([5.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([3.0, 0.0]), atol=1e-12)

    def test_svt_tau_zero_is_identity(self):
        M = np.random.default_rng(0).standard_normal((4, 4))
        assert np.max(np.abs(singular_value_threshold(M, 0.0) - M)) < 1e-10


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
        cfg = default_solver_config("smr", lam=1.0, k_graph=3)
        C = solve_smr(X, cfg)
        G = X.values.T @ X.values
        lap = build_knn_laplacian(X, cfg.k_graph, cfg.epsilon)
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
        cfg = default_solver_config("smr", lam=1.0, k_graph=3)
        C = solve_smr(X, cfg)
        G = X.values.T @ X.values
        lap = build_knn_laplacian(X, cfg.k_graph, cfg.epsilon)

        def objective(M):
            fit = X.values - X.values @ M
            return cfg.lam * np.sum(fit * fit) + np.trace(M @ lap.L_hat @ M.T)

        base = objective(C.values)
        rng = np.random.default_rng(0)
        for _ in range(100):
            delta = rng.standard_normal(C.values.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert base <= objective(C.values + delta) + 1e-12


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


class TestConfig:
    def test_positive_parameters_enforced(self):
        with pytest.raises(ConfigError):
            SolverConfig(lam=-1.0)
        with pytest.raises(ConfigError):
            SolverConfig(lam=1.0, tol=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(lam=1.0, epsilon=0.0)

    def test_default_configs_per_solver(self):
        assert default_solver_config("ssc").tol == 2e-4
        assert default_solver_config("ssc").max_iter == 200
        assert default_solver_config("lrrsc").max_iter == 1000
        assert default_solver_config("smr").k_graph == 4
        assert default_solver_config("smr").epsilon == 0.01
        with pytest.raises(ConfigError):
            default_solver_config("pca")
