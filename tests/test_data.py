"""Dataset I/O, preprocessing, and synthetic generation tests."""

import warnings

import numpy as np
import pytest

from subclust import (
    DataMatrix,
    Dataset,
    LabelVector,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    normalize_columns,
    pca_project,
    prepare_dataset,
    save_dataset,
)
from subclust.data import load_matrix_binary, save_matrix_binary
from subclust.errors import ConfigError, DataError


def _random_dataset(seed=0, d=4, n=6, k=2):
    rng = np.random.default_rng(seed)
    return Dataset(
        matrix=DataMatrix(rng.standard_normal((d, n))),
        truth=LabelVector(rng.integers(0, k, n), k),
    )


def _pairwise_distances(values):
    diff = values[:, :, None] - values[:, None, :]
    return np.sqrt(np.sum(diff * diff, axis=0))


class TestLoadSave:
    def test_csv_load_remaps_labels(self, tmp_path):
        matrix = tmp_path / "m.csv"
        labels = tmp_path / "l.txt"
        matrix.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")  # 3 samples, 2 features
        labels.write_text("5\n5\n9\n")
        ds = load_dataset(matrix, labels, "csv")
        assert ds.matrix.values.shape == (2, 3)  # columns are samples
        assert ds.matrix.values[:, 0].tolist() == [1.0, 2.0]
        assert ds.truth.labels.tolist() == [0, 0, 1]
        assert ds.truth.k == 2

    def test_binary_round_trip_bit_exact(self, tmp_path):
        ds = _random_dataset(seed=3)
        save_dataset(ds, tmp_path / "m.bin", tmp_path / "l.txt", "binary")
        back = load_dataset(tmp_path / "m.bin", tmp_path / "l.txt", "binary")
        assert np.array_equal(back.matrix.values, ds.matrix.values)
        assert np.array_equal(back.truth.labels, ds.truth.labels)

    def test_binary_header_dims(self, tmp_path):
        ds = _random_dataset(seed=9, d=4, n=6)
        save_matrix_binary(ds.matrix.values, tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        assert blob[:4] == b"SSCB" and blob[4] == 1
        assert len(blob) == 13 + 8 * 4 * 6
        assert load_matrix_binary(tmp_path / "m.bin").shape == (4, 6)

    def test_csv_round_trip_precision(self, tmp_path):
        ds = _random_dataset(seed=4)
        save_dataset(ds, tmp_path / "m.csv", tmp_path / "l.txt", "csv")
        back = load_dataset(tmp_path / "m.csv", tmp_path / "l.txt", "csv")
        assert np.max(np.abs(back.matrix.values - ds.matrix.values)) <= 1e-12

    def test_label_length_mismatch(self, tmp_path):
        matrix = tmp_path / "m.csv"
        labels = tmp_path / "l.txt"
        matrix.write_text("\n".join("1.0,2.0" for _ in range(6)) + "\n")
        labels.write_text("\n".join("0" for _ in range(5)) + "\n")
        with pytest.raises(DataError, match="6 samples"):
            load_dataset(matrix, labels, "csv")

    def test_nonfinite_entries_rejected(self, tmp_path):
        matrix = tmp_path / "m.csv"
        labels = tmp_path / "l.txt"
        matrix.write_text("1.0,nan\n2.0,3.0\n")
        labels.write_text("0\n1\n")
        with pytest.raises(DataError, match="non-finite"):
            load_dataset(matrix, labels, "csv")

    def test_malformed_csv(self, tmp_path):
        matrix = tmp_path / "m.csv"
        labels = tmp_path / "l.txt"
        matrix.write_text("1.0,2.0\n3.0\n")
        labels.write_text("0\n1\n")
        with pytest.raises(DataError, match="malformed"):
            load_dataset(matrix, labels, "csv")

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(DataError, match="SSCB"):
            load_matrix_binary(path)

    def test_binary_truncated(self, tmp_path):
        ds = _random_dataset(seed=5)
        save_matrix_binary(ds.matrix.values, tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "bad.bin").write_bytes(blob[:-8])
        with pytest.raises(DataError, match="expected"):
            load_matrix_binary(tmp_path / "bad.bin")

    def test_unwritable_path(self, tmp_path):
        ds = _random_dataset()
        with pytest.raises(OSError):
            save_dataset(ds, tmp_path / "no" / "dir" / "m.csv", tmp_path / "l.txt", "csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dataset(tmp_path / "m", tmp_path / "l", "parquet")


class TestValidation:
    def test_matrix_needs_two_samples(self):
        with pytest.raises(DataError):
            DataMatrix(np.ones((3, 1)))

    def test_matrix_rejects_nan(self):
        with pytest.raises(DataError):
            DataMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_labels_must_be_contiguous_range(self):
        with pytest.raises(DataError):
            LabelVector(np.array([0, 3]), k=2)

    def test_dataset_length_check(self):
        with pytest.raises(DataError):
            Dataset(
                matrix=DataMatrix(np.ones((2, 4))),
                truth=LabelVector(np.array([0, 1, 0]), 2),
            )


class TestPCA:
    def test_exact_subspace_preserves_distances(self):
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.standard_normal((12, 3)))[0]
        offset = rng.standard_normal((12, 1))
        X = DataMatrix(basis @ rng.standard_normal((3, 20)) + offset)
        Y = pca_project(X, 3)
        assert Y.values.shape == (3, 20)
        err = np.abs(_pairwise_distances(Y.values) - _pairwise_distances(X.values))
        assert err.max() < 1e-8

    def test_full_dim_preserves_distances(self):
        rng = np.random.default_rng(1)
        X = DataMatrix(rng.standard_normal((5, 9)))
        Y = pca_project(X, 5)
        err = np.abs(_pairwise_distances(Y.values) - _pairwise_distances(X.values))
        assert err.max() < 1e-10

    def test_face_scale_shape(self):
        # 48x42 images of 10 subjects x 64 images, reduced to 10*6 dimensions
        rng = np.random.default_rng(2)
        X = DataMatrix(rng.standard_normal((2016, 640)))
        assert pca_project(X, 60).values.shape == (60, 640)

    def test_row_covariance_diagonal_nonincreasing(self):
        rng = np.random.default_rng(3)
        X = DataMatrix(rng.standard_normal((8, 40)) * rng.gamma(2.0, size=(8, 1)))
        Y = pca_project(X, 5).values
        cov = Y @ Y.T
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-8 * max(1.0, np.abs(cov).max())
        variances = np.diag(cov)
        assert np.all(np.diff(variances) <= 1e-8)

    def test_target_dim_out_of_range(self):
        X = DataMatrix(np.random.default_rng(4).standard_normal((3, 5)))
        for bad in (0, 4, 6):
            with pytest.raises(ConfigError):
                pca_project(X, bad)


class TestNormalize:
    def test_unit_columns(self):
        X = normalize_columns(DataMatrix(np.array([[3.0, 0.0], [4.0, 2.0]])))
        assert np.allclose(X.values[:, 0], [0.6, 0.8])
        assert np.allclose(np.linalg.norm(X.values, axis=0), 1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        X = normalize_columns(DataMatrix(rng.standard_normal((6, 10))))
        again = normalize_columns(X)
        assert np.max(np.abs(again.values - X.values)) <= 1e-15

    def test_zero_column_warns_and_passes_through(self):
        values = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.warns(UserWarning, match="zero column"):
            X = normalize_columns(DataMatrix(values))
        assert np.all(X.values[:, 1] == 0.0)

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-310])
    def test_extreme_scales_give_unit_columns(self, scale):
        values = generate_synthetic(SyntheticSpec(3, 2, 12, 6, 0.01, seed=3)).matrix.values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = normalize_columns(DataMatrix(values * scale))
        eps = np.finfo(np.float64).eps
        assert np.max(np.abs(np.linalg.norm(X.values, axis=0) - 1.0)) <= 4 * eps
        if scale != 1e-310:  # subnormal inputs are themselves rounded
            unit = normalize_columns(DataMatrix(values)).values
            assert np.max(np.abs(X.values - unit)) <= 4 * eps

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_ordinary_scale_divides_by_the_plain_norm(self, order):
        values = np.asarray(np.random.default_rng(6).standard_normal((7, 12)), order=order)
        X = normalize_columns(DataMatrix(values))
        assert X.values.tobytes() == (values / np.linalg.norm(values, axis=0)).tobytes()
        # the layout sets the summation order of later column norms (a CSV loads as F)
        assert X.values.flags.f_contiguous == (order == "F")

    def test_zero_column_beside_a_subnormal_one(self):
        values = np.array([[3e-310, 0.0], [4e-310, 0.0]])
        with pytest.warns(UserWarning, match="1 zero column"):
            X = normalize_columns(DataMatrix(values))
        assert np.allclose(X.values[:, 0], [0.6, 0.8], rtol=0, atol=1e-15)
        assert np.all(X.values[:, 1] == 0.0)


class TestSynthetic:
    SPEC = SyntheticSpec(
        num_subspaces=3, subspace_dim=4, ambient_dim=30, points_per_subspace=20,
        noise_sigma=0.0, seed=12,
    )

    def test_block_numerical_rank(self):
        ds = generate_synthetic(self.SPEC)
        for i in range(3):
            block = ds.matrix.values[:, i * 20 : (i + 1) * 20]
            s = np.linalg.svd(block, compute_uv=False)
            assert s[4] < 1e-10 * s[0]

    def test_deterministic(self):
        a = generate_synthetic(self.SPEC)
        b = generate_synthetic(self.SPEC)
        assert np.array_equal(a.matrix.values, b.matrix.values)
        assert np.array_equal(a.truth.labels, b.truth.labels)

    def test_svd_fit_oracle_per_block(self):
        # a basis refit from the noiseless block itself must explain it fully
        ds = generate_synthetic(self.SPEC)
        for i in range(3):
            block = ds.matrix.values[:, i * 20 : (i + 1) * 20]
            U = np.linalg.svd(block, full_matrices=False)[0][:, :4]
            residual = block - U @ (U.T @ block)
            assert np.max(np.abs(residual)) < 1e-10

    def test_stacked_bases_full_rank(self):
        ds = generate_synthetic(self.SPEC)
        bases = []
        for i in range(3):
            block = ds.matrix.values[:, i * 20 : (i + 1) * 20]
            bases.append(np.linalg.svd(block, full_matrices=False)[0][:, :4])
        stacked = np.hstack(bases)
        assert np.linalg.svd(stacked, compute_uv=False)[-1] > 1e-8

    def test_labels_by_block(self):
        ds = generate_synthetic(self.SPEC)
        assert ds.truth.k == 3
        assert np.array_equal(ds.truth.labels, np.repeat([0, 1, 2], 20))

    def test_noise_applied(self):
        noisy = generate_synthetic(
            SyntheticSpec(2, 2, 10, 8, noise_sigma=0.1, seed=7)
        )
        block = noisy.matrix.values[:, :8]
        s = np.linalg.svd(block, compute_uv=False)
        assert s[2] > 1e-6 * s[0]  # noise breaks the exact low rank

    def test_infeasible_spec(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(4, 3, 10, 5)  # 12 > 10 with independent subspaces
        with pytest.raises(ConfigError):
            SyntheticSpec(2, 3, 10, 2)  # fewer points than dimensions
        with pytest.raises(ConfigError):
            SyntheticSpec(2, 3, 10, 5, noise_sigma=-1.0)


class TestPrepare:
    def test_pipeline_trail(self):
        ds = _random_dataset(seed=8, d=10, n=12)
        out = prepare_dataset(ds, pca_dim=4, normalize=True)
        assert out.preprocessing == ("pca:4", "normalize_columns")
        assert out.matrix.values.shape == (4, 12)
        assert np.allclose(np.linalg.norm(out.matrix.values, axis=0), 1.0)

    def test_pipeline_optional_steps(self):
        ds = _random_dataset(seed=9)
        out = prepare_dataset(ds, pca_dim=None, normalize=False)
        assert out.preprocessing == ()
        assert np.array_equal(out.matrix.values, ds.matrix.values)
