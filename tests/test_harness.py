"""Experiment harness tests: presets, trial statistics, the grid, emission."""

import json
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

import subclust.harness as harness
from subclust import (
    AffinityConfig,
    DataMatrix,
    DatasetFiles,
    ExperimentConfig,
    ExperimentResult,
    PresetTable,
    SyntheticSpec,
    default_solver_config,
    emit_table,
    generate_synthetic,
    parse_experiment_config,
    prepare_dataset,
    run_experiment,
    run_grid,
    save_dataset,
    trial_seed,
)
from subclust.errors import ConfigError, NumericalError
from subclust.harness import AFFINITY_ROWS, GridResult, SOLVER_COLUMNS, summarize_trials

SMALL_SPEC = SyntheticSpec(3, 3, 24, 12, 0.0, seed=4)


def _small_config(**overrides):
    params = dict(
        dataset=SMALL_SPEC,
        solver="lsr",
        affinity="sm",
        n_clusters=3,
        trials=5,
        master_seed=17,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _no_solve(solver, X, cfg):
    raise AssertionError("solved before the run parameters were checked")


class TestPresets:
    def test_covers_all_48_cells(self):
        table = PresetTable.builtin()
        assert set(table.datasets()) == {"yaleb", "ar", "usps"}
        count = 0
        for dataset in table.datasets():
            for solver in SOLVER_COLUMNS:
                for affinity in AFFINITY_ROWS:
                    cell = table.cell(dataset, solver, affinity)
                    assert cell["lambda"] > 0
                    count += 1
        assert count == 48

    def test_reported_parameter_values(self):
        table = PresetTable.builtin()
        assert table.cell("yaleb", "lsr", "sm")["lambda"] == 0.01
        assert table.cell("yaleb", "lsr", "ssm")["k_top"] == 5
        assert table.cell("yaleb", "lsr", "ipm")["alpha"] == 6.0
        assert table.cell("yaleb", "smr", "sm")["lambda"] == 2.0**15
        assert table.cell("yaleb", "lrrsc", "sm")["lambda"] == 0.2
        assert table.cell("yaleb", "lrrsc", "ssm")["k_top"] == 7
        assert table.cell("yaleb", "ssc", "sm")["lambda"] == 20.0
        assert table.cell("yaleb", "ssc", "svdm")["alpha"] == 2.0
        assert table.cell("ar", "smr", "sm")["lambda"] == 2.0**20
        assert table.cell("ar", "ssc", "svdm")["alpha"] == 0.125
        assert table.cell("ar", "lrrsc", "sm")["lambda"] == 2.0
        assert table.cell("usps", "smr", "sm")["lambda"] == 2.0**-16
        assert table.cell("usps", "lrrsc", "svdm")["alpha"] == 4.0
        assert table.cell("usps", "ssc", "sm")["lambda"] == 10.0

    def test_pipeline_presets(self):
        table = PresetTable.builtin()
        assert table.pipeline("yaleb") == {"pca_dim": 60, "n_clusters": 10}
        assert table.pipeline("ar")["pca_dim"] == 120
        assert table.pipeline("usps")["pca_dim"] is None

    def test_config_builders(self):
        table = PresetTable.builtin()
        scfg = table.solver_config("yaleb", "smr")
        assert scfg == default_solver_config("smr", lam=2.0**15)
        acfg = table.affinity_config("yaleb", "lrrsc", "ssm")
        assert acfg.k_top == 7
        assert table.affinity_config("yaleb", "lsr", "sm") == AffinityConfig()

    def test_unknown_dataset(self):
        with pytest.raises(ConfigError):
            PresetTable.builtin().cell("coil20", "lsr", "sm")

    def test_unknown_solver(self):
        table = PresetTable.builtin()
        with pytest.raises(ConfigError, match="unknown solver"):
            table.cell("yaleb", "pca", "sm")
        with pytest.raises(ConfigError, match="unknown solver"):
            table.solver_config("yaleb", "pca")

    def test_malformed_table_rejected(self):
        with pytest.raises(ConfigError):
            PresetTable({"x": {"pipeline": {}, "solvers": {"lsr": {"lambda": 1.0}}}})

    @pytest.mark.parametrize("table", [[], 5, "yaleb", None])
    def test_table_that_is_no_object(self, table):
        with pytest.raises(ConfigError, match="^preset table must be an object$"):
            PresetTable(table)

    # the flat layout the table had before its affinity blocks used AffinityConfig
    # field names: (lambda, ssm_k, svdm_alpha, ipm_alpha) per dataset and solver
    FLAT = {
        "yaleb": {
            "lsr": (0.01, 5, 3.0, 6.0),
            "smr": (32768.0, 5, 5.0, 5.0),
            "lrrsc": (0.2, 7, 4.0, 3.0),
            "ssc": (20.0, 5, 2.0, 3.0),
        },
        "ar": {
            "lsr": (0.01, 5, 1.0, 1.0),
            "smr": (1048576.0, 5, 1.0, 5.0),
            "lrrsc": (2.0, 5, 1.0, 1.0),
            "ssc": (20.0, 8, 0.125, 1.0),
        },
        "usps": {
            "lsr": (5.0, 7, 3.0, 1.0),
            "smr": (1.52587890625e-05, 5, 3.0, 1.0),
            "lrrsc": (0.001, 7, 4.0, 2.0),
            "ssc": (10.0, 8, 1.0, 4.0),
        },
    }

    def test_cells_match_the_flat_layout(self):
        table = PresetTable.builtin()
        assert set(table.datasets()) == set(self.FLAT)
        for dataset, solvers in self.FLAT.items():
            for solver, (lam, ssm_k, svdm_alpha, ipm_alpha) in solvers.items():
                expected = {
                    "sm": {"lambda": lam},
                    "ssm": {"lambda": lam, "k_top": ssm_k},
                    "svdm": {"lambda": lam, "alpha": svdm_alpha},
                    "ipm": {"lambda": lam, "alpha": ipm_alpha},
                }
                for affinity in AFFINITY_ROWS:
                    cell = table.cell(dataset, solver, affinity)
                    assert cell == expected[affinity], (dataset, solver, affinity)
                    assert all(type(cell[k]) is type(v) for k, v in expected[affinity].items())

    @pytest.mark.parametrize("block", [{"k": 5}, 5])
    def test_bad_affinity_block_rejected(self, block):
        raw = json.loads(json.dumps(PresetTable.builtin().table))
        raw["ar"]["solvers"]["lrrsc"]["ssm"] = block
        with pytest.raises(ConfigError, match="unknown key|must be an object"):
            PresetTable(raw)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw["yaleb"].update(solvers=[]),
            lambda raw: raw["yaleb"]["solvers"].update(lrrcs={"lambda": 1.0}),
            lambda raw: raw["yaleb"].update(pipeline=[]),
            lambda raw: raw["yaleb"]["pipeline"].update(pca_dims=30),
            lambda raw: raw.update(yaleb=["pipeline", "solvers"]),
            lambda raw: raw.update(yaleb=5),
            lambda raw: raw["yaleb"]["pipeline"].update(pca_dim="60"),
            lambda raw: raw["yaleb"]["pipeline"].update(n_clusters=1),
            lambda raw: raw["yaleb"]["solvers"]["lrrsc"].update({"lambda": "0.2"}),
            lambda raw: raw["yaleb"]["solvers"]["ssc"]["svdm"].update(alpha=0.0),
            lambda raw: raw["yaleb"]["solvers"]["lrrsc"]["ssm"].update(k_top=0),
        ],
        ids=[
            "solvers-not-object",
            "misspelt-solver",
            "pipeline-not-object",
            "misspelt-pipeline",
            "block-a-list",
            "block-a-number",
            "pca-dim-a-string",
            "one-cluster",
            "lambda-a-string",
            "alpha-not-positive",
            "k-top-zero",
        ],
    )
    def test_bad_pipeline_or_solvers_block_rejected(self, edit):
        raw = json.loads(json.dumps(PresetTable.builtin().table))
        edit(raw)
        with pytest.raises(ConfigError, match="unknown key|must be an object|wrong type|must be >"):
            PresetTable(raw)


    @pytest.mark.parametrize(
        "edit, message",
        [
            # subclust grid --preset reads both keys of the pipeline by subscript
            (
                lambda raw: raw["yaleb"]["pipeline"].pop("pca_dim"),
                "required key(s) ['pca_dim'] missing in preset 'yaleb' pipeline",
            ),
            (
                lambda raw: raw["usps"]["pipeline"].pop("n_clusters"),
                "required key(s) ['n_clusters'] missing in preset 'usps' pipeline",
            ),
            (
                lambda raw: raw["yaleb"]["solvers"].pop("ssc"),
                "required key(s) ['ssc'] missing in preset 'yaleb' solvers",
            ),
            (
                lambda raw: raw["yaleb"].pop("solvers"),
                "required key(s) ['solvers'] missing in preset 'yaleb'",
            ),
            (
                lambda raw: raw["ar"]["solvers"]["lrrsc"].pop("lambda"),
                "required key(s) ['lambda'] missing in preset 'ar'/'lrrsc'",
            ),
            (
                lambda raw: raw["ar"]["solvers"]["lrrsc"].update(ssm={"k": 5}),
                "unknown key(s) ['k'] in preset 'ar'/'lrrsc'/'ssm'",
            ),
            (
                lambda raw: raw["ar"]["solvers"]["lrrsc"].update(ssm=5),
                "preset 'ar'/'lrrsc'/'ssm' must be an object",
            ),
            (
                lambda raw: raw["ar"]["solvers"]["lrrsc"]["ssm"].update(k_top=0),
                "preset 'ar'/'lrrsc'/'ssm': k_top must be >= 1, got 0",
            ),
            (
                lambda raw: raw["ar"]["solvers"]["lrrsc"].update({"lambda": -1.0}),
                "preset 'ar'/'lrrsc': lam must be > 0, got -1.0",
            ),
        ],
        ids=[
            "pipeline-without-pca-dim",
            "pipeline-without-n-clusters",
            "missing-solver",
            "missing-solvers",
            "missing-lambda",
            "unknown-affinity-key",
            "affinity-not-object",
            "bad-affinity-value",
            "bad-lambda",
        ],
    )
    def test_messages_name_the_path_once(self, edit, message):
        raw = json.loads(json.dumps(PresetTable.builtin().table))
        edit(raw)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            PresetTable(raw)


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [trial_seed(42, i) for i in range(20)]
        assert seeds == [trial_seed(42, i) for i in range(20)]
        assert len(set(seeds)) == 20

    def test_master_seed_matters(self):
        assert trial_seed(1, 0) != trial_seed(2, 0)


class TestRunExperiment:
    def test_structure_and_consistency(self):
        result = run_experiment(_small_config())
        assert len(result.per_trial) == 5
        arr = np.array(result.per_trial)
        assert result.mean == pytest.approx(arr.mean(), abs=1e-9)
        assert result.std == pytest.approx(arr.std(ddof=1), abs=1e-9)
        assert result.max == pytest.approx(arr.max(), abs=1e-9)
        assert result.min == pytest.approx(arr.min(), abs=1e-9)
        assert isinstance(result.solver_converged, bool)

    def test_deterministic(self):
        a = run_experiment(_small_config())
        b = run_experiment(_small_config())
        assert a.per_trial == b.per_trial
        assert (a.mean, a.std, a.max, a.min) == (b.mean, b.std, b.max, b.min)

    def test_single_trial_zero_std(self):
        result = run_experiment(_small_config(trials=1))
        assert result.std == 0.0
        assert len(result.per_trial) == 1

    def test_file_dataset_source(self, tmp_path):
        ds = generate_synthetic(SMALL_SPEC)
        save_dataset(ds, tmp_path / "m.csv", tmp_path / "l.txt", "csv")
        cfg = _small_config(
            dataset=DatasetFiles(str(tmp_path / "m.csv"), str(tmp_path / "l.txt"))
        )
        from_file = run_experiment(cfg)
        from_spec = run_experiment(_small_config())
        assert from_file.per_trial == from_spec.per_trial

    def test_too_many_clusters_rejected_before_solving(self, monkeypatch):
        monkeypatch.setattr(harness, "solve", _no_solve)
        with pytest.raises(ConfigError, match=r"n_clusters must be in 2\.\.36, got 37"):
            run_experiment(_small_config(n_clusters=37))

    def test_raw_matrix_freed_before_the_solve(self, monkeypatch):
        # else the unprepared d x n matrix stays alive through the solve and the trials
        raw = []
        real_generate, real_solve = harness.generate_synthetic, harness.solve

        def generate(spec):
            ds = real_generate(spec)
            raw.append(weakref.ref(ds.matrix))
            return ds

        def solve(solver, X, cfg):
            assert raw[0]() is None
            return real_solve(solver, X, cfg)

        monkeypatch.setattr(harness, "generate_synthetic", generate)
        monkeypatch.setattr(harness, "solve", solve)
        assert len(run_experiment(_small_config()).per_trial) == 5


class TestRunGrid:
    def test_sixteen_cells(self):
        ds = prepare_dataset(generate_synthetic(SMALL_SPEC), normalize=True)
        grid = run_grid(ds, trials=3, master_seed=9)
        assert len(grid.cells) == 16
        assert not grid.errors
        assert set(grid.cells) == {
            (s, a) for s in SOLVER_COLUMNS for a in AFFINITY_ROWS
        }

    def test_matches_independent_experiments(self):
        ds = prepare_dataset(generate_synthetic(SMALL_SPEC), normalize=True)
        grid = run_grid(ds, trials=4, master_seed=21)
        for solver in SOLVER_COLUMNS:
            for affinity in AFFINITY_ROWS:
                single = run_experiment(
                    _small_config(solver=solver, affinity=affinity, trials=4, master_seed=21)
                )
                cell = grid.cells[(solver, affinity)]
                assert np.max(np.abs(np.array(cell.per_trial) - np.array(single.per_trial))) <= 1e-12

    def test_solver_failure_contained(self, monkeypatch):
        ds = prepare_dataset(generate_synthetic(SMALL_SPEC), normalize=True)
        real_solve = harness.solve

        def flaky(solver, X, cfg):
            if solver == "smr":
                raise NumericalError("synthetic failure")
            return real_solve(solver, X, cfg)

        monkeypatch.setattr(harness, "solve", flaky)
        grid = run_grid(ds, trials=2, master_seed=1)
        assert len(grid.cells) == 12
        assert set(grid.errors) == {("smr", a) for a in AFFINITY_ROWS}
        assert grid.errors[("smr", "sm")] == "NumericalError: synthetic failure"

        def buggy(solver, X, cfg):
            raise RuntimeError("internal bug")

        monkeypatch.setattr(harness, "solve", buggy)
        with pytest.raises(RuntimeError, match="internal bug"):  # a bug is not a cell failure
            run_grid(ds, trials=2, master_seed=1)

    @pytest.mark.filterwarnings("ignore:.*zero:UserWarning")
    def test_zero_column_named_in_every_ssc_cell(self):
        ds = generate_synthetic(SMALL_SPEC)
        values = ds.matrix.values.copy()
        values[:, [5, 20]] = 0.0
        ds = prepare_dataset(replace(ds, matrix=DataMatrix(values)), normalize=True)
        grid = run_grid(ds, trials=2, master_seed=3)
        reason = (
            "DataError: ssc requires nonzero columns; 2 column(s) have zero norm, at index 5, 20"
        )
        assert grid.errors == {("ssc", affinity): reason for affinity in AFFINITY_ROWS}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore:.*zero-degree:UserWarning")
    def test_overflowing_data_fails_only_the_overflowed_solvers(self):
        # unnormalized data at 1e155: lsr's and smr's s**2 and ssc's X^T X
        # overflow; lrrsc's closed form V_r V_r^T is scale-free
        ds = generate_synthetic(SyntheticSpec(3, 2, 10, 8, 0.01, 3))
        ds = replace(ds, matrix=DataMatrix(ds.matrix.values * 1e155))
        grid = run_grid(ds, trials=2)
        assert set(grid.cells) == {("lrrsc", affinity) for affinity in AFFINITY_ROWS}
        assert set(grid.errors) == {
            (solver, affinity) for solver in ("lsr", "smr", "ssc") for affinity in AFFINITY_ROWS
        }
        assert all(reason.startswith("NumericalError: ") for reason in grid.errors.values())
        assert "mu_e = inf; the data scale is too large" in grid.errors[("ssc", "sm")]
        for solver in ("lsr", "smr"):
            assert "squares to inf; the data scale is too large" in grid.errors[(solver, "sm")]

    def test_presets_reach_every_cell(self, monkeypatch):
        raw = json.loads(json.dumps(PresetTable.builtin().table))
        # a distinct setting per cell, so a cell given another cell's settings shows
        for i, entry in enumerate(raw["usps"]["solvers"].values()):
            entry.update(ssm={"k_top": 6 + i}, svdm={"alpha": 2.0 + i}, ipm={"alpha": 0.25 + i / 2})
        presets = PresetTable(raw)
        real_solve, real_build = harness.solve, harness.build_affinity
        solved, seen = {}, {}

        def spy_solve(solver, X, cfg):
            C = real_solve(solver, X, cfg)
            solved[id(C)] = (solver, cfg)
            return C

        def spy_build(affinity, C, X, cfg):
            solver, scfg = solved[id(C)]
            seen[(solver, affinity)] = (scfg, cfg)
            return real_build(affinity, C, X, cfg)

        monkeypatch.setattr(harness, "solve", spy_solve)
        monkeypatch.setattr(harness, "build_affinity", spy_build)
        ds = prepare_dataset(generate_synthetic(SMALL_SPEC), normalize=True)
        grid = run_grid(ds, presets, trials=1, preset_name="usps")
        expected = {
            (s, a): (presets.solver_config("usps", s), presets.affinity_config("usps", s, a))
            for s in SOLVER_COLUMNS
            for a in AFFINITY_ROWS
        }
        assert len(set(expected.values())) == 16
        assert seen == expected
        assert len(grid.cells) == 16 and not grid.errors

    def test_cell_failing_after_its_solve_is_recorded(self):
        raw = json.loads(json.dumps(PresetTable.builtin().table))
        raw["usps"]["solvers"]["lsr"]["ssm"]["k_top"] = 500
        ds = prepare_dataset(generate_synthetic(SyntheticSpec(3, 3, 24, 10, 0.0, seed=4)))
        grid = run_grid(ds, PresetTable(raw), trials=2, preset_name="usps")  # n = 30
        assert grid.errors == {("lsr", "ssm"): "ConfigError: k_top must be in 1..30, got 500"}
        assert set(grid.cells) == {
            (s, a) for s in SOLVER_COLUMNS for a in AFFINITY_ROWS if (s, a) != ("lsr", "ssm")
        }

    def test_preset_requires_name(self):
        ds = prepare_dataset(generate_synthetic(SMALL_SPEC), normalize=True)
        with pytest.raises(ConfigError, match="given together"):
            run_grid(ds, PresetTable.builtin(), trials=1)
        # a name without a table would silently run the default configs
        with pytest.raises(ConfigError, match="given together"):
            run_grid(ds, trials=1, preset_name="yaleb")

    @pytest.mark.parametrize(
        "trials, n_clusters, message",
        [(0, None, "trials"), (2, 1, "n_clusters"), (2, 37, "n_clusters")],
    )
    def test_bad_run_parameters_rejected_before_solving(
        self, monkeypatch, trials, n_clusters, message
    ):
        ds = prepare_dataset(generate_synthetic(SMALL_SPEC), normalize=True)  # n = 36
        monkeypatch.setattr(harness, "solve", _no_solve)
        with pytest.raises(ConfigError, match=message):
            run_grid(ds, trials=trials, n_clusters=n_clusters)

    def test_negative_master_seed_rejected_before_solving(self, monkeypatch):
        ds = prepare_dataset(generate_synthetic(SMALL_SPEC), normalize=True)
        monkeypatch.setattr(harness, "solve", _no_solve)
        with pytest.raises(ConfigError, match="master_seed"):
            run_grid(ds, trials=2, master_seed=-1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("trials", 2.5),
            ("trials", True),
            ("master_seed", 1.5),
            ("n_clusters", 2.5),
            ("n_clusters", np.float64(3.0)),
        ],
    )
    def test_non_integer_run_parameters_rejected_before_solving(self, monkeypatch, name, value):
        ds = prepare_dataset(generate_synthetic(SMALL_SPEC), normalize=True)
        monkeypatch.setattr(harness, "solve", _no_solve)
        with pytest.raises(ConfigError, match=f"{name} has the wrong type"):
            run_grid(ds, **{name: value})


# a hand-built grid: cell (solver i, affinity j) has trials 100 - 10j - i and
# 100 - 10j - 7i/3; smr+svdm failed
GOLDEN_CSV = (
    "method,indicator,LSR,SMR,LRRSC,SSC\n"
    "SM,Mean,100.00,98.33,96.67,95.00\n"
    "SM,STD,0.00,0.94,1.89,2.83\n"
    "SM,Max,100.00,99.00,98.00,97.00\n"
    "SM,Min,100.00,97.67,95.33,93.00\n"
    "SSM,Mean,90.00,88.33,86.67,85.00\n"
    "SSM,STD,0.00,0.94,1.89,2.83\n"
    "SSM,Max,90.00,89.00,88.00,87.00\n"
    "SSM,Min,90.00,87.67,85.33,83.00\n"
    "SVDM,Mean,80.00,ERR,76.67,75.00\n"
    "SVDM,STD,0.00,ERR,1.89,2.83\n"
    "SVDM,Max,80.00,ERR,78.00,77.00\n"
    "SVDM,Min,80.00,ERR,75.33,73.00\n"
    "IPM,Mean,70.00,68.33,66.67,65.00\n"
    "IPM,STD,0.00,0.94,1.89,2.83\n"
    "IPM,Max,70.00,69.00,68.00,67.00\n"
    "IPM,Min,70.00,67.67,65.33,63.00\n"
)
GOLDEN_CONSOLE = (
    "Method  indicator        LSR      SMR    LRRSC      SSC\n"
    "SM      Mean          100.00    98.33    96.67    95.00\n"
    "        STD             0.00     0.94     1.89     2.83\n"
    "        Max           100.00    99.00    98.00    97.00\n"
    "        Min           100.00    97.67    95.33    93.00\n"
    "SSM     Mean           90.00    88.33    86.67    85.00\n"
    "        STD             0.00     0.94     1.89     2.83\n"
    "        Max            90.00    89.00    88.00    87.00\n"
    "        Min            90.00    87.67    85.33    83.00\n"
    "SVDM    Mean           80.00      ERR    76.67    75.00\n"
    "        STD             0.00      ERR     1.89     2.83\n"
    "        Max            80.00      ERR    78.00    77.00\n"
    "        Min            80.00      ERR    75.33    73.00\n"
    "IPM     Mean           70.00    68.33    66.67    65.00\n"
    "        STD             0.00     0.94     1.89     2.83\n"
    "        Max            70.00    69.00    68.00    67.00\n"
    "        Min            70.00    67.67    65.33    63.00\n"
)


def _golden_grid():
    cells = {
        (solver, affinity): summarize_trials(
            [100.0 - 10 * j - i, 100.0 - 10 * j - 7 * i / 3], True
        )
        for j, affinity in enumerate(AFFINITY_ROWS)
        for i, solver in enumerate(SOLVER_COLUMNS)
        if (solver, affinity) != ("smr", "svdm")
    }
    return GridResult(cells=cells, errors={("smr", "svdm"): "NumericalError: boom"})


class TestEmitTable:
    def _grid(self):
        ds = prepare_dataset(generate_synthetic(SMALL_SPEC), normalize=True)
        return run_grid(ds, trials=2, master_seed=3)

    def test_csv_layout(self):
        text = emit_table(self._grid(), "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "method,indicator,LSR,SMR,LRRSC,SSC"
        assert len(lines) == 17  # header + 4 affinities x 4 indicators
        assert lines[1].startswith("SM,Mean,")
        assert lines[5].startswith("SSM,Mean,")
        assert lines[16].startswith("IPM,Min,")
        for line in lines[1:]:
            assert len(line.split(",")) == 6

    def test_console_layout(self):
        text = emit_table(self._grid(), "console")
        lines = text.strip().split("\n")
        assert len(lines) == 17
        assert "LSR" in lines[0] and "SSC" in lines[0]

    def test_error_cell_rendered(self):
        grid = self._grid()
        cells = dict(grid.cells)
        del cells[("smr", "svdm")]
        partial = GridResult(cells=cells, errors={("smr", "svdm"): "RuntimeError: boom"})
        text = emit_table(partial, "csv")
        svdm_mean = [l for l in text.split("\n") if l.startswith("SVDM,Mean")][0]
        assert svdm_mean.split(",")[3] == "ERR"  # SMR column
        assert svdm_mean.split(",")[2] != "ERR"

    def test_deterministic_bytes(self):
        a = emit_table(self._grid(), "csv").encode()
        b = emit_table(self._grid(), "csv").encode()
        assert a == b

    def test_values_printed_to_two_decimals(self):
        text = emit_table(self._grid(), "csv")
        value = text.strip().split("\n")[1].split(",")[2]
        assert len(value.split(".")[1]) == 2

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit_table(self._grid(), "html")

    @pytest.mark.parametrize("format", ["csv", "console"])
    def test_golden_bytes(self, format):
        expected = GOLDEN_CSV if format == "csv" else GOLDEN_CONSOLE
        assert emit_table(_golden_grid(), format) == expected


class TestConfigParsing:
    FULL = {
        "dataset": {
            "synthetic": {
                "num_subspaces": 3,
                "subspace_dim": 3,
                "ambient_dim": 24,
                "points_per_subspace": 12,
                "noise_sigma": 0.0,
                "seed": 4,
            }
        },
        "solver": "ssc",
        "solver_config": {"lambda": 15.0, "max_iter": 50},
        "affinity": "ssm",
        "affinity_config": {"k_top": 4},
        "n_clusters": 3,
        "trials": 2,
        "master_seed": 5,
    }

    def test_full_round_trip(self):
        cfg = parse_experiment_config(self.FULL)
        assert cfg.solver == "ssc"
        assert cfg.solver_config.lam == 15.0
        assert cfg.solver_config.max_iter == 50
        assert cfg.solver_config.tol == 2e-4  # untouched ssc default
        assert cfg.affinity_config.k_top == 4
        assert isinstance(cfg.dataset, SyntheticSpec)
        result = run_experiment(cfg)
        assert len(result.per_trial) == 2

    def test_files_dataset(self):
        cfg = parse_experiment_config(
            {
                "dataset": {"matrix_path": "m.csv", "labels_path": "l.txt"},
                "solver": "lsr",
                "affinity": "sm",
                "n_clusters": 2,
            }
        )
        assert isinstance(cfg.dataset, DatasetFiles)
        assert cfg.dataset.format == "csv"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update({"lamda": 3}),
            lambda d: d["solver_config"].update({"lambda_e": 3}),
            lambda d: d["affinity_config"].update({"ktop": 3}),
            lambda d: d["dataset"]["synthetic"].update({"subspaces": 3}),
            # former options are rejected, not silently ignored
            lambda d: d.update({"laplacian": "random_walk"}),
            lambda d: d.update({"kmeans_restarts": 3}),
            lambda d: d["solver_config"].update({"diag_constraint": True}),
            lambda d: d["solver_config"].update({"lambda_z": 1.0}),
            lambda d: d["affinity_config"].update({"side": "cols_n"}),
            lambda d: d["affinity_config"].update({"zero_diagonal": True}),
            lambda d: d["solver_config"].update({"penalty_init": 1e-6}),
            lambda d: d["solver_config"].update({"penalty_growth": 1.1}),
            lambda d: d["affinity_config"].update({"rank_delta": 1e-4}),
            lambda d: d["dataset"]["synthetic"].update({"independent": True}),
        ],
    )
    def test_unknown_keys_rejected(self, mutate):
        blob = json.loads(json.dumps(self.FULL))
        mutate(blob)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_experiment_config(blob)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update({"solver_config": 5}),
            lambda d: d.update({"solver_config": ["lambda"]}),
            lambda d: d.update({"dataset": {"synthetic": 5}}),
            lambda d: d.update({"trials": "2"}),
            lambda d: d.update({"trials": 2.5}),
            lambda d: d.update({"n_clusters": 2.5}),
            lambda d: d.update({"pca_dim": 3.5}),
            lambda d: d.update({"master_seed": 1.5}),
            lambda d: d.update({"trials": True}),
            lambda d: d.update({"n_clusters": False}),
            # a JSON true is no number, and json.load parses NaN and Infinity
            lambda d: d["solver_config"].update({"lambda": True}),
            lambda d: d["affinity_config"].update({"alpha": True}),
            lambda d: d["solver_config"].update({"lambda": float("nan")}),
            lambda d: d["solver_config"].update({"tol": float("inf")}),
            lambda d: d["dataset"]["synthetic"].update({"num_subspaces": 2.5}),
            lambda d: d["dataset"]["synthetic"].update({"seed": True}),
            lambda d: d["dataset"]["synthetic"].update({"noise_sigma": float("nan")}),
            lambda d: d.update({"normalize": "no"}),
            # a path of the wrong type never reaches np.loadtxt, which reads a list as lines
            lambda d: d.update({"dataset": {"matrix_path": 5, "labels_path": "l.txt"}}),
            lambda d: d.update({"dataset": {"matrix_path": ["1,2", "3,4"], "labels_path": "l"}}),
        ],
    )
    def test_malformed_values_rejected(self, mutate):
        blob = json.loads(json.dumps(self.FULL))
        mutate(blob)
        with pytest.raises(ConfigError, match="must be an object|wrong type"):
            parse_experiment_config(blob)

    @pytest.mark.parametrize(
        "solver_config, message",
        [
            ({"lambda": -1}, "solver_config: lambda must be > 0, got -1"),
            ({"lambda": "1"}, "solver_config: lambda has the wrong type: expected a finite number"),
            ({"tol": 0}, "solver_config: tol must be > 0, got 0"),
            ({"max_iter": 0}, "solver_config: max_iter must be >= 1, got 0"),
        ],
    )
    def test_bad_solver_setting_names_section_and_key(self, solver_config, message):
        blob = dict(json.loads(json.dumps(self.FULL)), solver_config=solver_config)
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            parse_experiment_config(blob)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="required"):
            parse_experiment_config({"solver": "lsr", "affinity": "sm", "n_clusters": 2})
        blob = json.loads(json.dumps(self.FULL))
        del blob["dataset"]["synthetic"]["ambient_dim"]
        with pytest.raises(ConfigError, match=r"required key\(s\) \['ambient_dim'\]"):
            parse_experiment_config(blob)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.FULL))
        from subclust import load_experiment_config

        assert load_experiment_config(path).solver == "ssc"
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_experiment_config(bad)


class TestResultValidation:
    def test_summarize(self):
        result = summarize_trials([50.0, 60.0, 70.0], True)
        assert result.mean == 60.0
        assert result.min == 50.0 and result.max == 70.0
        assert result.std == pytest.approx(10.0)

    def test_inconsistent_stats_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentResult(
                mean=10.0, std=1.0, max=5.0, min=0.0, per_trial=(5.0,), solver_converged=True,
            )

    def test_experiment_config_validation(self):
        with pytest.raises(ConfigError):
            _small_config(trials=0)
        with pytest.raises(ConfigError, match="master_seed"):
            _small_config(master_seed=-1)
        with pytest.raises(ConfigError):
            _small_config(solver="pca")
