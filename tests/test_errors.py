"""The two checks of settings (`require` for type and range, `require_one_of` for
names) and the exact message of each error site that no other test reaches."""

import re

import numpy as np
import pytest

import subclust.cli as cli
from subclust import (
    AffinityConfig,
    DataMatrix,
    ExperimentConfig,
    GridResult,
    LabelVector,
    PresetTable,
    SyntheticSpec,
    build_affinity,
    build_ipm,
    build_knn_laplacian,
    clustering_accuracy,
    default_solver_config,
    emit_table,
    generate_synthetic,
    kmeans,
    load_dataset,
    pca_project,
    run_grid,
    save_dataset,
    singular_value_threshold,
    soft_threshold,
    solve,
    spectral_embed,
    top_k_per_column,
)
from subclust.data import load_matrix_binary
from subclust.errors import ConfigError, DataError, NumericalError, require_one_of
from subclust.harness import AFFINITY_ROWS, SOLVER_COLUMNS

SPEC = SyntheticSpec(2, 1, 3, 2)


def _config(**overrides):
    params = dict(dataset=SPEC, solver="lsr", affinity="sm", n_clusters=2)
    return ExperimentConfig(**{**params, **overrides})


def _X(d=4, n=5):
    return DataMatrix(np.random.default_rng(0).standard_normal((d, n)))


# (name in the message, the bad value, a call that checks it); each call gets a tmp_path
NAME_SITES = [
    ("affinity", "knn", lambda tmp: build_affinity("knn", np.eye(3))),
    ("format", "parquet", lambda tmp: load_dataset(tmp / "m", tmp / "l", "parquet")),
    (
        "format",
        "parquet",
        lambda tmp: save_dataset(generate_synthetic(SPEC), tmp / "m", tmp / "l", "parquet"),
    ),
    ("solver", "pca", lambda tmp: _config(solver="pca")),
    ("affinity", "knn", lambda tmp: _config(affinity="knn")),
    ("preset dataset", "coil20", lambda tmp: PresetTable.builtin().pipeline("coil20")),
    ("solver", "pca", lambda tmp: PresetTable.builtin().solver_config("yaleb", "pca")),
    ("affinity", "knn", lambda tmp: PresetTable.builtin().cell("yaleb", "lsr", "knn")),
    ("table format", "html", lambda tmp: emit_table(GridResult({}, {}), "html")),
    ("solver", "pca", lambda tmp: default_solver_config("pca")),
    ("solver", "pca", lambda tmp: solve("pca", _X(), default_solver_config("lsr"))),
]


@pytest.mark.parametrize("name, bad, call", NAME_SITES)
def test_unknown_name_at_every_site(tmp_path, name, bad, call):
    with pytest.raises(ConfigError, match=re.escape(f"unknown {name} {bad!r}, expected one of (")):
        call(tmp_path)
    assert not any(tmp_path.iterdir())  # rejected before anything was written


@pytest.mark.parametrize("value", [["sm"], 5, None, True])
@pytest.mark.parametrize("choices", [("sm", "ssm"), {"sm": 1, "ssm": 2}])
def test_require_one_of_rejects_non_strings(value, choices):
    with pytest.raises(ConfigError, match=r"unknown affinity .*, expected one of \('sm', 'ssm'\)"):
        require_one_of("affinity", value, choices)


# the data-dependent bounds: (call, the exact message)
RANGE_SITES = [
    (lambda: top_k_per_column(np.eye(3), 4), "k_top must be in 1..3, got 4"),
    (lambda: pca_project(_X(4, 5), 5), "target_dim must be in 1..4, got 5"),
    (lambda: spectral_embed(np.ones((3, 3)), 4), "n_clusters must be in 2..3, got 4"),
    (lambda: kmeans(np.zeros((3, 2)), 4, [0]), "k must be in 1..3, got 4"),
    (lambda: build_knn_laplacian(_X(2, 4), 4, 0.01), "k_graph must be in 1..3, got 4"),
    (lambda: soft_threshold(np.ones(3), -1.0), "tau must be >= 0, got -1.0"),
    (lambda: singular_value_threshold(np.eye(3), -1.0), "tau must be >= 0, got -1.0"),
]


@pytest.mark.parametrize("call, message", RANGE_SITES)
def test_data_dependent_bounds(call, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


def _sscb_version_9(tmp):
    path = tmp / "m.bin"
    path.write_bytes(b"SSCB" + bytes([9]) + bytes(8))
    return path


def _sscb_3x0(tmp):
    path = tmp / "m.bin"
    path.write_bytes(b"SSCB" + bytes([1]) + (3).to_bytes(4, "little") + bytes(4))
    return path


def _labels_file(tmp):
    (tmp / "m.csv").write_text("1,2\n3,4\n")
    (tmp / "l.txt").write_text("0\nx\n")
    return tmp / "m.csv", tmp / "l.txt"


# the raises no other test reaches: (call given a tmp_path, error, message with {tmp});
# a message that ends in ": " goes on with numpy's own reason, which varies by version
SITES = [
    (lambda tmp: DataMatrix(np.ones(3)), DataError, "data matrix must be 2-D, got shape (3,)"),
    (lambda tmp: LabelVector(np.zeros(2), 0), DataError, "label vector needs k >= 1, got k=0"),
    (lambda tmp: LabelVector(np.zeros(0), 2), DataError, "label vector is empty"),
    (
        lambda tmp: load_matrix_binary(_sscb_version_9(tmp)),
        DataError,
        "unsupported SSCB version 9 in {tmp}/m.bin",
    ),
    (
        lambda tmp: load_matrix_binary(_sscb_3x0(tmp)),
        DataError,
        "binary matrix file {tmp}/m.bin contains no data",
    ),
    (
        lambda tmp: load_dataset(*_labels_file(tmp)),
        DataError,
        "malformed labels file {tmp}/l.txt: ",
    ),
    (lambda tmp: kmeans(np.zeros(4), 2, [0]), DataError, "point matrix must be 2-D, got shape (4,)"),
    (lambda tmp: clustering_accuracy([], []), DataError, "empty label vectors"),
    (
        lambda tmp: build_ipm(np.eye(3), _X(4, 5), AffinityConfig()),
        DataError,
        "data matrix has 5 samples but C is 3x3",
    ),
]


@pytest.mark.parametrize("call, error, message", SITES)
def test_unreached_error_sites(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert info.type is error
    text, expected = str(info.value), message.format(tmp=tmp_path)
    assert text == expected or (expected.endswith(": ") and text.startswith(expected))


def _linalg_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


# each LinAlgError -> NumericalError wrapper: (the np.linalg routine that fails, call, message)
LINALG_SITES = [
    ("svd", lambda: singular_value_threshold(np.eye(3), 0.5), "SVD failed"),
    (
        "eigh",
        lambda: solve("smr", _X(4, 6), default_solver_config("smr")),
        "eigendecomposition failed",
    ),
    ("svd", lambda: build_affinity("svdm", np.eye(3)), "SVD of the coefficient matrix failed"),
    (
        "eigh",
        lambda: spectral_embed(np.ones((3, 3)), 2),
        "eigendecomposition of the Laplacian failed",
    ),
    ("eigh", lambda: pca_project(_X(4, 5), 2), "eigendecomposition of the PCA Gram matrix failed"),
    ("qr", lambda: generate_synthetic(SPEC), "QR of a subspace basis failed"),
]


@pytest.mark.parametrize("routine, call, message", LINALG_SITES)
def test_linalg_failure_is_a_numerical_error(monkeypatch, routine, call, message):
    monkeypatch.setattr(np.linalg, routine, _linalg_fails)
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}: did not converge$"):
        call()


def test_lrrsc_nuclear_norm_svd_failure_is_a_numerical_error(monkeypatch):
    # lam = 1e-3 fails the closed-form certificate, so the ADMM runs; of its
    # SVDs only the last, of C for the objective, is taken without U and V
    svd = np.linalg.svd

    def fails_without_uv(*args, compute_uv=True, **kwargs):
        if not compute_uv:
            _linalg_fails()
        return svd(*args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fails_without_uv)
    cfg = default_solver_config("lrrsc", lam=1e-3, max_iter=3)
    with pytest.raises(NumericalError, match="^SVD of LRRSC's C failed: did not converge$"):
        solve("lrrsc", _X(4, 6), cfg)


def _grid_data():
    return generate_synthetic(SyntheticSpec(3, 2, 10, 6, 0.05, 1))


_EVERY_CELL = [(solver, affinity) for solver in SOLVER_COLUMNS for affinity in AFFINITY_ROWS]
_SMR_OR_LAPLACIAN = {
    cell: "eigendecomposition" + ("" if cell[0] == "smr" else " of the Laplacian")
    for cell in _EVERY_CELL
}


# (the np.linalg routine that fails, the stage run_grid names for each cell it fails)
@pytest.mark.parametrize(
    "routine, stages",
    [
        ("svd", {cell: "SVD of the data" for cell in _EVERY_CELL}),
        ("eigh", _SMR_OR_LAPLACIAN),
        ("qr", {}),  # the grid takes no QR
    ],
)
def test_grid_records_linalg_failures_as_numerical_errors(monkeypatch, routine, stages):
    ds = _grid_data()
    monkeypatch.setattr(np.linalg, routine, _linalg_fails)
    grid = run_grid(ds, trials=1)
    assert grid.errors == {
        cell: f"NumericalError: {stage} failed: did not converge" for cell, stage in stages.items()
    }
    assert set(grid.cells) == set(_EVERY_CELL) - set(stages)


@pytest.mark.parametrize(
    "routine, argv, stage",
    [
        (
            "eigh",
            ["grid", "--dataset", "{p}.csv", "--labels", "{p}.labels", "--pca", "3"],
            "eigendecomposition of the PCA Gram matrix",
        ),
        (
            "qr",
            ["synth", "--subspaces", "2", "--dim", "2", "--ambient", "6", "--points", "4"],
            "QR of a subspace basis",
        ),
    ],
)
def test_cli_exits_three_naming_the_failed_stage(
    tmp_path, capsys, monkeypatch, routine, argv, stage
):
    prefix = tmp_path / "data"
    save_dataset(_grid_data(), f"{prefix}.csv", f"{prefix}.labels")
    capsys.readouterr()
    monkeypatch.setattr(np.linalg, routine, _linalg_fails)
    argv = [arg.format(p=prefix) for arg in argv]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"subclust: numerical failure: {stage} failed: did not converge\n"


@pytest.mark.parametrize("value", [2.0, 2.5, True])
@pytest.mark.parametrize(
    "name, call",
    [
        ("k", lambda k: kmeans(np.random.default_rng(0).standard_normal((6, 2)), k, [0])),
        ("n_clusters", lambda k: spectral_embed(np.ones((4, 4)), k)),
        ("target_dim", lambda k: pca_project(_X(4, 5), k)),
        ("k_top", lambda k: top_k_per_column(np.eye(4), k)),
    ],
)
def test_non_integer_count_rejected(name, call, value):
    with pytest.raises(ConfigError, match=f"{name} has the wrong type: expected an integer"):
        call(value)
