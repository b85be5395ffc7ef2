"""End-to-end CLI tests driven through main() with explicit argv."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import subclust
import subclust.cli as cli
import subclust.harness as harness
from subclust.affinity import build_affinity
from subclust.cli import main
from subclust.data import load_dataset, load_matrix_binary, prepare_dataset
from subclust.errors import ConfigError, NumericalError
from subclust.harness import (
    AFFINITY_ROWS,
    load_experiment_config,
    parse_experiment_config,
    trial_seed,
)
from subclust.solvers import default_solver_config, solve
from subclust.spectral import cluster


def _write_synth(tmp_path, prefix="data", fmt="csv", seed=3):
    out = tmp_path / prefix
    code = main(
        [
            "synth", "--subspaces", "3", "--dim", "3", "--ambient", "24",
            "--points", "12", "--noise", "0.0", "--seed", str(seed),
            "--out", str(out), "--format", fmt,
        ]
    )
    assert code == 0
    suffix = "csv" if fmt == "csv" else "bin"
    return f"{out}.{suffix}", f"{out}.labels"


class TestSynth:
    def test_writes_loadable_files(self, tmp_path):
        matrix, labels = _write_synth(tmp_path)
        ds = load_dataset(matrix, labels, "csv")
        assert ds.matrix.values.shape == (24, 36)
        assert ds.truth.k == 3

    def test_binary_format(self, tmp_path):
        matrix, labels = _write_synth(tmp_path, fmt="binary")
        assert load_matrix_binary(matrix).shape == (24, 36)

    def test_deterministic(self, tmp_path):
        m1, _ = _write_synth(tmp_path, "a", seed=9)
        m2, _ = _write_synth(tmp_path, "b", seed=9)
        assert open(m1).read() == open(m2).read()

    def test_infeasible_spec_exits_one(self, tmp_path, capsys):
        code = main(
            [
                "synth", "--subspaces", "5", "--dim", "10", "--ambient", "12",
                "--points", "12", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_nan_noise_exits_one_and_writes_nothing(self, tmp_path, capsys):
        code = main(
            [
                "synth", "--subspaces", "3", "--dim", "3", "--ambient", "24",
                "--points", "12", "--noise", "nan", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1
        assert "noise_sigma has the wrong type" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRun:
    def _config(self, tmp_path, **extra):
        cfg = {
            "dataset": {
                "synthetic": {
                    "num_subspaces": 3, "subspace_dim": 3, "ambient_dim": 24,
                    "points_per_subspace": 12, "noise_sigma": 0.0, "seed": 4,
                }
            },
            "solver": "lsr",
            "affinity": "sm",
            "n_clusters": 3,
            "trials": 3,
            "master_seed": 2,
        }
        cfg.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_prints_summary(self, tmp_path, capsys):
        code = main(["run", "--config", str(self._config(tmp_path))])
        assert code == 0
        out = capsys.readouterr().out
        assert "lsr+sm" in out and "mean=" in out
        assert "converged=yes," in out
        # the time is the CLI's own, of loading through scoring
        summary = r"lsr\+sm: mean=\S+ std=\S+ max=\S+ min=\S+ \(trials=3, converged=yes, \d+\.\ds\)"
        assert re.fullmatch(summary + "\n", out)

    def test_run_prints_no_for_an_unconverged_solve(self, tmp_path, capsys):
        extra = {"solver": "ssc", "solver_config": {"max_iter": 1}}
        assert main(["run", "--config", str(self._config(tmp_path, **extra))]) == 0
        assert "converged=no," in capsys.readouterr().out

    def test_out_csv(self, tmp_path):
        out = tmp_path / "trials.csv"
        code = main(["run", "--config", str(self._config(tmp_path)), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "trial,accuracy_percent"
        assert len(lines) == 4

    def test_dump_matrices(self, tmp_path):
        coeff = tmp_path / "c.bin"
        aff = tmp_path / "w.bin"
        code = main(
            [
                "run", "--config", str(self._config(tmp_path)),
                "--dump-coeff", str(coeff), "--dump-affinity", str(aff),
            ]
        )
        assert code == 0
        C = load_matrix_binary(coeff)
        W = load_matrix_binary(aff)
        assert C.shape == (36, 36) and W.shape == (36, 36)
        assert np.max(np.abs(W - W.T)) == 0.0

    def test_dumps_come_from_the_scored_run(self, tmp_path, monkeypatch):
        matrix, labels = _write_synth(tmp_path)
        path = self._config(tmp_path, dataset={"matrix_path": matrix, "labels_path": labels})
        calls = {"solve": 0, "load_dataset": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        # cli.solve too, so a solve outside the harness would be counted
        for module, name in ((harness, "solve"), (cli, "solve"), (harness, "load_dataset")):
            counted(module, name)
        dumps = {kind: tmp_path / f"dump.{kind}" for kind in ("out", "coeff", "affinity", "labels")}
        code = main(
            [
                "run", "--config", str(path), "--out", str(dumps["out"]),
                "--dump-coeff", str(dumps["coeff"]), "--dump-affinity", str(dumps["affinity"]),
                "--dump-labels", str(dumps["labels"]),
            ]
        )
        assert code == 0
        assert calls == {"solve": 1, "load_dataset": 1}

        ds = prepare_dataset(load_dataset(matrix, labels), normalize=True)
        C = solve("lsr", ds.matrix, default_solver_config("lsr"))
        W = build_affinity("sm", C, ds.matrix)
        pred = cluster(W, 3, seed=trial_seed(2, 0))
        assert np.array_equal(load_matrix_binary(dumps["coeff"]), C.values)
        assert np.array_equal(load_matrix_binary(dumps["affinity"]), W)
        assert np.array_equal(np.loadtxt(dumps["labels"], dtype=np.int64), pred.labels)

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        path = self._config(tmp_path, typo_key=1)
        assert main(["run", "--config", str(path)]) == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            {"trials": 2.5},
            {"n_clusters": 2.5},
            {"pca_dim": 3.5},
            {"master_seed": -1},
            {"n_clusters": 100},
        ],
    )
    def test_bad_settings_exit_one_before_solving(self, tmp_path, capsys, monkeypatch, extra):
        def no_solve(solver, X, cfg):
            raise AssertionError("solved before the settings were checked")

        monkeypatch.setattr(harness, "solve", no_solve)
        assert main(["run", "--config", str(self._config(tmp_path, **extra))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("subclust: config error:")

    @pytest.mark.parametrize(
        "value, section, key",
        [
            (value, section, key)
            for value in (2.5, True)
            for section, key in (("affinity_config", "k_top"), ("solver_config", "max_iter"))
        ]
        + [  # float settings: a JSON true, NaN or Infinity is no finite number
            (value, section, key)
            for value in (True, float("nan"), float("inf"))
            for section, key in (
                ("solver_config", "lambda"),
                ("solver_config", "tol"),
                ("affinity_config", "alpha"),
            )
        ],
    )
    def test_non_integer_setting_exits_one_before_solving(
        self, tmp_path, capsys, monkeypatch, section, key, value
    ):
        path = self._config(tmp_path, **{section: {key: value}})
        field = "lam" if key == "lambda" else key
        with pytest.raises(ConfigError, match=f"{field} has the wrong type"):
            parse_experiment_config(json.loads(path.read_text()))

        def no_solve(solver, X, cfg):
            raise AssertionError("solved before the settings were checked")

        monkeypatch.setattr(harness, "solve", no_solve)
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("subclust: config error:")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("solver_config", "k_graph", 4),
            ("solver_config", "epsilon", 0.01),
            ("affinity_config", "ipm_denominator", "data_norms"),
        ],
    )
    def test_removed_settings_exit_one_before_loading(self, tmp_path, capsys, section, key, value):
        # the data files do not exist, so a run that got as far as loading would exit 2
        missing = {"matrix_path": str(tmp_path / "no.csv"), "labels_path": str(tmp_path / "no.txt")}
        path = self._config(tmp_path, dataset=missing, **{section: {key: value}})
        assert main(["run", "--config", str(path)]) == 1
        assert f"unknown key(s) ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "files, message",
        [
            ({"matrix_path": 5}, "matrix_path has the wrong type"),
            ({"matrix_path": ["1,2", "3,4"]}, "matrix_path has the wrong type"),
            ({"labels_path": None}, "labels_path has the wrong type"),
            ({"format": "parquet"}, "unknown format 'parquet', expected one of ('csv', 'binary')"),
        ],
        ids=["matrix-path-int", "matrix-path-list", "labels-path-null", "format-parquet"],
    )
    def test_bad_dataset_files_exit_one_before_loading(
        self, tmp_path, capsys, monkeypatch, files, message
    ):
        dataset = {"matrix_path": str(tmp_path / "m.csv"), "labels_path": str(tmp_path / "l.txt")}
        path = self._config(tmp_path, dataset={**dataset, **files})
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_experiment_config(json.loads(path.read_text()))

        def no_load(*args, **kwargs):
            raise AssertionError("loaded before the dataset files were checked")

        monkeypatch.setattr(harness, "load_dataset", no_load)
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("subclust: config error:")
        assert message in captured.err

    @pytest.mark.parametrize(
        "content",
        [
            b'{"trials": ' + b"9" * 5000 + b"}",  # beyond Python's 4300-digit int conversion
            b"\xff\xfe{}",  # not UTF-8
            b"[" * 100000 + b"]" * 100000,  # deeper than the recursion limit
        ],
        ids=["long-integer", "not-utf8", "deep-nesting"],
    )
    def test_unreadable_json_exits_one(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_experiment_config(path)
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"subclust: config error: invalid JSON in {path}")

    def test_config_is_read_as_utf8_in_any_locale(self, tmp_path):
        # JSON exchanged between systems is UTF-8 (RFC 8259), so a non-ASCII
        # name reaches the name check under the C locale instead of failing to decode
        cfg = {
            "dataset": {"matrix_path": "m.csv", "labels_path": "m.labels"},
            "solver": "lsr\u00e9", "affinity": "sm", "n_clusters": 2,
        }
        path = tmp_path / "cfg.json"
        path.write_bytes(json.dumps(cfg, ensure_ascii=False).encode("utf-8"))
        src = os.path.dirname(os.path.dirname(subclust.__file__))
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "subclust.cli", "run", "--config", str(path)],
            env=env, capture_output=True, text=True, encoding="utf-8", errors="replace",
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("subclust: config error: unknown solver")

    def test_missing_dataset_file_exits_two(self, tmp_path):
        cfg = {
            "dataset": {"matrix_path": str(tmp_path / "nope.csv"), "labels_path": str(tmp_path / "no.txt")},
            "solver": "lsr", "affinity": "sm", "n_clusters": 2,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2


class TestGrid:
    def test_grid_csv(self, tmp_path, capsys):
        matrix, labels = _write_synth(tmp_path)
        out = tmp_path / "grid.csv"
        code = main(
            [
                "grid", "--dataset", matrix, "--labels", labels,
                "--trials", "2", "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "method,indicator,LSR,SMR,LRRSC,SSC"
        assert len(lines) == 17
        assert "Method" in capsys.readouterr().out

    def test_grid_byte_identical_across_runs(self, tmp_path):
        matrix, labels = _write_synth(tmp_path)
        outs = []
        for name in ("g1.csv", "g2.csv"):
            out = tmp_path / name
            assert main(
                [
                    "grid", "--dataset", matrix, "--labels", labels,
                    "--trials", "2", "--seed", "5", "--out", str(out),
                ]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_failed_cells_reported_on_stderr(self, tmp_path, monkeypatch, capsys):
        matrix, labels = _write_synth(tmp_path)
        real_solve = harness.solve

        def flaky(solver, X, cfg):
            if solver == "smr":
                raise NumericalError("synthetic failure")
            return real_solve(solver, X, cfg)

        monkeypatch.setattr(harness, "solve", flaky)
        code = main(["grid", "--dataset", matrix, "--labels", labels, "--trials", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "ERR" in captured.out
        assert captured.err.splitlines() == [
            f"subclust: cell smr+{a} failed: NumericalError: synthetic failure"
            for a in AFFINITY_ROWS
        ]

    @pytest.mark.parametrize(
        "flags",
        [["--trials", "0"], ["--clusters", "1"], ["--clusters", "37"], ["--seed", "-1"]],
    )
    def test_bad_run_parameters_exit_one_without_a_table(self, tmp_path, capsys, flags):
        matrix, labels = _write_synth(tmp_path)  # n = 36
        capsys.readouterr()
        assert main(["grid", "--dataset", matrix, "--labels", labels, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("subclust: config error:")

    def test_missing_files_exit_two(self, tmp_path):
        assert main(
            ["grid", "--dataset", str(tmp_path / "a.csv"), "--labels", str(tmp_path / "b.txt")]
        ) == 2

    def test_bad_flag_exits_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["grid", "--dataset", "x", "--labels", "y", "--preset", "coil"])
        assert err.value.code == 1
        capsys.readouterr()

    def test_pca_applied(self, tmp_path):
        matrix, labels = _write_synth(tmp_path)
        out = tmp_path / "grid.csv"
        code = main(
            [
                "grid", "--dataset", matrix, "--labels", labels,
                "--pca", "9", "--trials", "1", "--seed", "0", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()


class TestExitCodes:
    def test_numerical_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalError("eigensolver went sideways")

        monkeypatch.setattr(cli, "run_experiment", boom)
        cfg = {
            "dataset": {
                "synthetic": {
                    "num_subspaces": 2, "subspace_dim": 2, "ambient_dim": 8,
                    "points_per_subspace": 6, "noise_sigma": 0.0, "seed": 0,
                }
            },
            "solver": "lsr", "affinity": "sm", "n_clusters": 2, "trials": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_lambda_exits_three(self, tmp_path, capsys):
        cfg = {
            "dataset": {
                "synthetic": {
                    "num_subspaces": 2, "subspace_dim": 2, "ambient_dim": 6,
                    "points_per_subspace": 5, "noise_sigma": 0.0, "seed": 1,
                }
            },
            "solver": "smr", "affinity": "sm", "n_clusters": 2, "trials": 1,
            "solver_config": {"lambda": 1e308},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(path)]) == 3
        assert "smr produced non-finite coefficients at lam=1e+308" in capsys.readouterr().err

    def test_dump_labels(self, tmp_path):
        matrix, labels = _write_synth(tmp_path)
        cfg = {
            "dataset": {"matrix_path": matrix, "labels_path": labels},
            "solver": "lsr", "affinity": "sm", "n_clusters": 3, "trials": 2,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out_labels = tmp_path / "pred.labels"
        code = main(["run", "--config", str(path), "--dump-labels", str(out_labels)])
        assert code == 0
        pred = np.loadtxt(out_labels, dtype=int)
        assert pred.shape == (36,)
        assert set(pred.tolist()) <= {0, 1, 2}
