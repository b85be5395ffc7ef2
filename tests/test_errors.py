"""The two checks of settings: `require` (type and range) and `require_one_of` (names)."""

import re

import numpy as np
import pytest

from subclust import (
    DataMatrix,
    ExperimentConfig,
    GridResult,
    PresetTable,
    SyntheticSpec,
    build_affinity,
    build_knn_laplacian,
    default_solver_config,
    emit_table,
    generate_synthetic,
    kmeans,
    load_dataset,
    pca_project,
    save_dataset,
    singular_value_threshold,
    soft_threshold,
    solve,
    spectral_embed,
    top_k_per_column,
)
from subclust.errors import ConfigError, require_one_of

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
