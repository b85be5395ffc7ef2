"""Dataset I/O, preprocessing, and synthetic generation tests."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from subclust import (
    DataMatrix,
    Dataset,
    LabelVector,
    SOLVERS,
    SyntheticSpec,
    default_solver_config,
    emit_table,
    generate_synthetic,
    load_dataset,
    normalize_columns,
    pca_project,
    prepare_dataset,
    run_grid,
    save_dataset,
    solve,
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


def _pca_by_thin_svd(values, target_dim):
    """Reference PCA: the centered data projected onto its top left singular vectors."""
    centered = values - values.mean(axis=1, keepdims=True)
    U = np.linalg.svd(centered, full_matrices=False)[0][:, :target_dim]
    return U.T @ centered


def _sign_aligned(reference, Y):
    """reference with each row negated where it points away from Y's row: a
    principal direction is defined only up to sign."""
    return reference * np.where(np.sum(reference * Y, axis=1) < 0, -1.0, 1.0)[:, None]


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

    def test_binary_and_csv_copies_prepare_alike(self, tmp_path):
        # X reaches every stage in C order however it was made, so the sums of
        # the column norms and of every product run in one order, and the
        # generated dataset and its two saved copies keep equal bits to the end
        ds = generate_synthetic(SyntheticSpec(10, 5, 256, 10, 0.08, seed=1))
        save_dataset(ds, tmp_path / "m.csv", tmp_path / "l.txt", "csv")
        save_dataset(ds, tmp_path / "m.bin", tmp_path / "l.txt", "binary")
        copies = [ds] + [
            load_dataset(tmp_path / name, tmp_path / "l.txt", fmt)
            for name, fmt in (("m.csv", "csv"), ("m.bin", "binary"))
        ]
        flags = [c.matrix.values.flags for c in copies]
        assert all(f.c_contiguous and f.writeable for f in flags)
        for pca_dim in (None, 40):
            prepared = [prepare_dataset(c, pca_dim=pca_dim) for c in copies]
            outputs = [
                [p.matrix.values.tobytes()]
                + [solve(s, p.matrix, default_solver_config(s)).values.tobytes() for s in SOLVERS]
                + [emit_table(run_grid(p, trials=2), "csv")]
                for p in prepared
            ]
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_binary_header_dims(self, tmp_path):
        ds = _random_dataset(seed=9, d=4, n=6)
        save_matrix_binary(ds.matrix.values, tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        assert blob[:4] == b"SSCB" and blob[4] == 1
        assert len(blob) == 13 + 8 * 4 * 6
        assert load_matrix_binary(tmp_path / "m.bin").shape == (4, 6)

    @pytest.mark.parametrize("layout", ["C", "F", "big-endian"])
    def test_binary_bytes(self, tmp_path, layout):
        values = np.random.default_rng(8).standard_normal((5, 7))
        values = {"C": values, "F": np.asfortranarray(values), "big-endian": values.astype(">f8")}[
            layout
        ]
        save_matrix_binary(values, tmp_path / "m.bin")
        data = np.asarray(values, dtype=np.float64).astype("<f8").tobytes(order="F")
        assert (tmp_path / "m.bin").read_bytes() == b"SSCB\x01" + struct.pack("<II", 5, 7) + data

    def test_binary_save_makes_one_copy(self, tmp_path):
        values = np.random.default_rng(8).standard_normal((500, 500))
        tracemalloc.start()
        try:
            save_matrix_binary(values, tmp_path / "m.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * values.nbytes

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (2, 1), (4, 5)])
    def test_matrix_rejects_nonfinite(self, bad, at):
        values = np.random.default_rng(11).standard_normal((5, 6))
        values[at] = bad
        with pytest.raises(DataError, match="^data matrix contains non-finite entries$"):
            DataMatrix(values)

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

    # wide data factors the n x n Gram matrix, the rest the d x d one; wide
    # data is passed over in blocks of 256 rows, so the last three cases end
    # in a block of one row, one of one row and one of 224
    @pytest.mark.parametrize(
        "d, n, target_dim",
        [(60, 25, 10), (300, 40, 40), (2016, 64, 6), (15, 40, 10), (30, 30, 30), (8, 200, 1),
         (257, 40, 12), (513, 64, 30), (2016, 120, 60)],
    )
    def test_matches_thin_svd_reference(self, d, n, target_dim):
        rng = np.random.default_rng(d + n)
        values = rng.standard_normal((d, n)) * rng.uniform(1.0, 20.0, size=(d, 1))
        Y = pca_project(DataMatrix(values), target_dim).values
        assert Y.shape == (target_dim, n)
        reference = _sign_aligned(_pca_by_thin_svd(values, target_dim), Y)
        assert np.abs(Y - reference).max() <= 1e-10 * np.abs(values).max()

    def test_rows_past_the_numerical_rank_are_zero(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 12)) + rng.standard_normal((40, 1))
        Y = pca_project(DataMatrix(values), 5).values
        assert np.all(Y[3:] == 0.0)
        assert np.all(np.abs(Y[:3]).max(axis=1) > 0.1)
        err = np.abs(_pairwise_distances(Y) - _pairwise_distances(values))
        assert err.max() < 1e-8

    def test_wide_data_at_full_target_dim_ends_in_a_zero_row(self):
        # centering removes one of the n dimensions
        values = np.random.default_rng(6).standard_normal((30, 10)) * 5.0
        Y = pca_project(DataMatrix(values), 10).values
        assert np.all(Y[-1] == 0.0)
        assert np.all(Y[:-1] != 0.0)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (50, 8)])
    def test_constant_data_projects_to_zero(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Y = pca_project(DataMatrix(np.full(shape, 7.25)), min(shape)).values
        assert np.array_equal(Y, np.zeros((min(shape), shape[1])))

    @pytest.mark.parametrize("shape", [(30, 12), (12, 30), (257, 30), (513, 30), (2016, 30)])
    @pytest.mark.parametrize("exponent", [500, -500])
    def test_power_of_two_scaling_is_exact(self, shape, exponent):
        values = np.random.default_rng(7).standard_normal(shape) * 10.0
        Y = pca_project(DataMatrix(values), 6).values
        scaled = pca_project(DataMatrix(np.ldexp(values, exponent)), 6).values
        assert scaled.tobytes() == np.ldexp(Y, exponent).tobytes()

    @pytest.mark.parametrize("shape", [(30, 12), (12, 30)])
    # unscaled, the Gram matrix would overflow at 1e160 and be subnormal at 1e-160
    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e160, 1e-160])
    def test_extreme_scales_stay_finite(self, shape, scale):
        values = np.random.default_rng(8).standard_normal(shape)
        Y = pca_project(DataMatrix(values * scale), 6).values
        assert np.all(np.isfinite(Y))
        reference = _sign_aligned(_pca_by_thin_svd(values, 6), Y)
        assert np.abs(Y / scale - reference).max() <= 1e-10 * np.abs(values).max()

    @pytest.mark.parametrize("d", [257, 513, 2016])
    def test_wide_blocks_rank_deficient_rows_are_zero(self, d):
        rng = np.random.default_rng(d + 1)
        values = rng.standard_normal((d, 4)) @ rng.standard_normal((4, 30)) + rng.standard_normal((d, 1))
        Y = pca_project(DataMatrix(values), 8).values
        assert np.all(Y[4:] == 0.0)
        reference = _sign_aligned(_pca_by_thin_svd(values, 4), Y[:4])
        assert np.abs(Y[:4] - reference).max() <= 1e-10 * np.abs(values).max()

    @pytest.mark.parametrize("shape", [(30, 12), (12, 30), (513, 30)])
    def test_negated_data_gives_rows_of_equal_magnitude(self, shape):
        # negating X negates the centered data, and so each row up to its
        # sign, which no later stage can tell
        values = np.random.default_rng(9).standard_normal(shape) * 3.0
        Y = pca_project(DataMatrix(values), 8).values
        negated = pca_project(DataMatrix(-values), 8).values
        assert np.abs(negated).tobytes() == np.abs(Y).tobytes()


class TestSetupMemory:
    """Peak numpy heap of the set-up steps, as tracemalloc sees it, against
    the size of X: the noise draw, the check of X and wide PCA make no d x n
    temporary."""

    SPEC = SyntheticSpec(4, 3, 4096, 16, 0.05, 0)

    def test_generate_synthetic_peak(self):
        tracemalloc.start()
        try:
            ds = generate_synthetic(self.SPEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ds.matrix.values.nbytes

    def test_data_matrix_check_peak(self):
        # the finiteness check reduces X, with no d x n bool array (0.125 x)
        values = generate_synthetic(self.SPEC).matrix.values
        tracemalloc.start()
        try:
            DataMatrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * values.nbytes

    def test_pca_project_peak_above_its_entry(self):
        X = generate_synthetic(self.SPEC).matrix
        tracemalloc.start()
        try:
            pca_project(X, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * X.values.nbytes


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
        # every stage sees one layout, which sets the summation order of later products
        assert X.values.flags.c_contiguous

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

    @pytest.mark.parametrize("d", [255, 256, 257, 2016])
    def test_noise_matches_one_shot_draw(self, d):
        # the noise is drawn in blocks of 256 rows; the generator fills C
        # order, so X is bitwise that of one d x n draw
        spec = SyntheticSpec(3, 4, d, 10, 0.05, seed=d)
        clean = generate_synthetic(SyntheticSpec(3, 4, d, 10, 0.0, seed=d)).matrix.values
        rng = np.random.default_rng(d)
        for _ in range(3):  # replay each subspace's basis and coefficient draws
            rng.standard_normal((d, 4))
            rng.standard_normal((4, 10))
        one_shot = clean + 0.05 * rng.standard_normal((d, 30))
        assert generate_synthetic(spec).matrix.values.tobytes() == one_shot.tobytes()

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
        expected = normalize_columns(pca_project(ds.matrix, 4))
        assert out.matrix.values.tobytes() == expected.values.tobytes()
        assert out.matrix.values.shape == (4, 12)
        assert np.allclose(np.linalg.norm(out.matrix.values, axis=0), 1.0)

    def test_pipeline_optional_steps(self):
        ds = _random_dataset(seed=9)
        out = prepare_dataset(ds, pca_dim=None, normalize=False)
        assert out.matrix.values.tobytes() == ds.matrix.values.tobytes()
