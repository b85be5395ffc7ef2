"""Affinity builder tests: formula checks, invariance properties, degeneracies."""

import numpy as np
import pytest

from subclust import (
    AffinityConfig,
    AffinityMatrix,
    build_affinity,
    build_ipm,
    build_sm,
    build_ssm,
    build_svdm,
    normalize_columns,
)
from subclust.affinity import _AFFINITIES, AFFINITIES, top_k_per_column
from subclust.data import DataMatrix
from subclust.errors import ConfigError, DataError


def _random_coeff(seed, n=10):
    return np.random.default_rng(seed).standard_normal((n, n))


def _check_affinity_invariants(W: AffinityMatrix):
    assert np.max(np.abs(W.values - W.values.T)) <= 1e-12
    assert W.values.min() >= 0.0
    assert np.all(np.isfinite(W.values))


class TestSM:
    def test_zero_matrix(self):
        assert np.array_equal(build_sm(np.zeros((4, 4))).values, np.zeros((4, 4)))

    def test_direct_evaluation(self):
        C = np.array([[0.0, 1.0], [-3.0, 0.0]])
        assert np.array_equal(build_sm(C).values, np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_fixed_point_on_symmetric_nonnegative(self):
        C = np.abs(_random_coeff(0))
        C = (C + C.T) / 2.0
        assert np.array_equal(build_sm(C).values, C)

    def test_sign_flip_invariant(self):
        C = _random_coeff(1)
        assert np.array_equal(build_sm(C).values, build_sm(-C).values)


class TestSSM:
    def test_top_k_magnitudes(self):
        col = np.array([[3.0], [-5.0], [1.0]])
        assert top_k_per_column(col, 2)[:, 0].tolist() == [3.0, -5.0, 0.0]

    def test_tie_breaks_to_smaller_row(self):
        col = np.array([[2.0], [-2.0], [1.0]])
        assert top_k_per_column(col, 1)[:, 0].tolist() == [2.0, 0.0, 0.0]

    def test_k_equal_n_matches_sm(self):
        C = _random_coeff(2, n=9)
        ssm = build_ssm(C, AffinityConfig(k_top=9))
        assert np.array_equal(ssm.values, build_sm(C).values)

    def test_sign_flip_invariant(self):
        C = _random_coeff(3)
        a = build_ssm(C, AffinityConfig(k_top=4)).values
        b = build_ssm(-C, AffinityConfig(k_top=4)).values
        assert np.array_equal(a, b)

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            top_k_per_column(np.ones((3, 3)), 4)


class TestSVDM:
    def test_rank_one_all_ones(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(6)
        u[np.abs(u) < 0.1] = 0.5  # keep rows away from zero
        C = np.outer(u, rng.standard_normal(6))
        W = build_svdm(C, AffinityConfig(alpha=0.7))
        assert np.allclose(W.values, 1.0, atol=1e-10)

    def test_orthogonal_blocks_zero_cross(self):
        rng = np.random.default_rng(5)
        C = np.zeros((6, 6))
        C[:3, :3] = rng.standard_normal((3, 3))
        C[3:, 3:] = rng.standard_normal((3, 3))
        W = build_svdm(C, AffinityConfig(alpha=2.0))
        assert np.abs(W.values[:3, 3:]).max() <= 1e-10

    def test_half_alpha_reproduces_cosine_identity(self):
        C = _random_coeff(6, n=7)
        W = build_svdm(C, AffinityConfig(alpha=0.5))
        U, s, _ = np.linalg.svd(C)
        M = U * np.sqrt(s)[None, :]
        norms = np.linalg.norm(M, axis=1)
        expected = np.abs(M @ M.T)
        assert np.max(np.abs(W.values * np.outer(norms, norms) - expected)) <= 1e-10

    def test_scale_invariant(self):
        C = _random_coeff(7)
        a = build_svdm(C, AffinityConfig(alpha=1.5)).values
        b = build_svdm(3.0 * C, AffinityConfig(alpha=1.5)).values
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_zero_matrix(self):
        W = build_svdm(np.zeros((5, 5)), AffinityConfig())
        assert np.array_equal(W.values, np.zeros((5, 5)))

    def test_zero_row_gets_zero_affinities(self):
        C = _random_coeff(9, n=5)
        C[2, :] = 0.0
        C[:, 2] = 0.0
        W = build_svdm(C, AffinityConfig(alpha=1.0))
        assert np.all(W.values[2, :] == 0.0) and np.all(W.values[:, 2] == 0.0)


class TestIPM:
    def test_orthogonal_columns_zero_offdiag(self):
        C = np.eye(6)  # exactly orthogonal coefficient columns
        X = normalize_columns(DataMatrix(np.random.default_rng(10).standard_normal((4, 6))))
        W = build_ipm(C, X, AffinityConfig(alpha=1.0))
        off = W.values - np.diag(np.diag(W.values))
        assert np.all(off == 0.0)

    def test_unit_vectors_give_one(self):
        n = 4
        C = np.zeros((n, n))
        C[0, :] = 1.0  # every c_i = e_1
        X = DataMatrix(np.vstack([np.ones((1, n)), np.zeros((2, n))]))  # unit columns
        W = build_ipm(C, X, AffinityConfig(alpha=1.0))
        assert np.allclose(W.values, 1.0)

    def test_data_norms_mode_not_scale_invariant(self):
        C = _random_coeff(12)
        X = normalize_columns(DataMatrix(np.random.default_rng(0).standard_normal((6, 10))))
        cfg = AffinityConfig(alpha=1.0)
        a = build_ipm(C, X, cfg).values
        b = build_ipm(2.0 * C, X, cfg).values
        assert np.max(np.abs(4.0 * a - b)) <= 1e-10  # scales by s^2 instead

    def test_zero_denominator_pairs_warn(self):
        C = _random_coeff(13, n=4)
        Xv = np.random.default_rng(13).standard_normal((3, 4))
        Xv[:, 1] = 0.0
        with pytest.warns(UserWarning, match="zero-norm"):
            W = build_ipm(C, DataMatrix(Xv), AffinityConfig(alpha=1.0))
        assert np.all(W.values[1, :] == 0.0)

    def test_data_norms_requires_x(self):
        with pytest.raises(ConfigError):
            build_ipm(_random_coeff(14), None, AffinityConfig())


class TestSharedProperties:
    @pytest.mark.parametrize("seed", range(25))
    def test_invariants_on_random_inputs(self, seed):
        C = _random_coeff(seed, n=8)
        X = normalize_columns(
            DataMatrix(np.random.default_rng(seed + 1000).standard_normal((5, 8)))
        )
        cfg = AffinityConfig(k_top=3, alpha=1.5)
        for method in ("sm", "ssm", "svdm", "ipm"):
            W = build_affinity(method, C, X, cfg)
            _check_affinity_invariants(W)

    def test_block_diagonal_pipeline_zero_cross(self):
        rng = np.random.default_rng(20)
        C = np.zeros((8, 8))
        C[:4, :4] = rng.standard_normal((4, 4))
        C[4:, 4:] = rng.standard_normal((4, 4))
        X = normalize_columns(DataMatrix(rng.standard_normal((5, 8))))
        for method in ("sm", "ssm", "svdm", "ipm"):
            W = build_affinity(method, C, X, AffinityConfig(k_top=3, alpha=1.0))
            assert np.abs(W.values[:4, 4:]).max() <= 1e-8, method

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            build_affinity("heat", _random_coeff(22), None, AffinityConfig())

    @pytest.mark.parametrize("method", ["sm", "ssm", "svdm", "ipm"])
    @pytest.mark.parametrize(
        "C, message",
        [
            pytest.param(np.ones((3, 4)), r"square, got shape \(3, 4\)", id="non-square"),
            pytest.param(
                np.where(np.eye(4) > 0, 1.0, np.nan), "coefficient matrix contains non-finite", id="nan"
            ),
        ],
    )
    def test_raw_coefficients_checked(self, method, C, message):
        X = normalize_columns(DataMatrix(np.random.default_rng(25).standard_normal((3, 4))))
        with pytest.raises(DataError, match=message):
            build_affinity(method, C, X, AffinityConfig(k_top=2))

    def test_names_come_from_the_builder_table(self):
        assert AFFINITIES == tuple(_AFFINITIES) == ("sm", "ssm", "svdm", "ipm")
        C = _random_coeff(23, n=6)
        X = normalize_columns(DataMatrix(np.random.default_rng(24).standard_normal((4, 6))))
        cfg = AffinityConfig(k_top=2, alpha=1.5)
        direct = {
            "sm": build_sm(C),
            "ssm": build_ssm(C, cfg),
            "svdm": build_svdm(C, cfg),
            "ipm": build_ipm(C, X, cfg),
        }
        for method, W in direct.items():
            assert np.array_equal(build_affinity(method, C, X, cfg).values, W.values), method


class TestAffinityMatrixValidation:
    def test_asymmetric_rejected(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(DataError):
            AffinityMatrix(values=bad)

    def test_negative_rejected(self):
        bad = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(DataError):
            AffinityMatrix(values=bad)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AffinityConfig(alpha=0.0)

    def test_huge_integer_k_top_constructs(self):
        # integers are never passed to math.isfinite, which raises OverflowError on 10**400
        assert AffinityConfig(k_top=10**400).k_top == 10**400
