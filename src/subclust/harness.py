"""Experiment configuration, the solver x affinity grid, and table emission.

A single experiment solves the coefficient matrix once, builds one affinity,
and repeats spectral clustering over seeded trials; the grid runs all sixteen
solver/affinity combinations, reusing each solver's coefficient matrix across
its four affinities. Trial seeds derive from the master seed, so every number
is exactly reproducible.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, replace
from importlib import resources

import numpy as np

from .affinity import AFFINITIES, AffinityConfig, build_affinity
from .data import (
    Dataset,
    LabelVector,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    prepare_dataset,
)
from .errors import ConfigError, SubclustError
from .solvers import SOLVERS, SolverConfig, default_solver_config, solve
from .spectral import clustering_accuracy, kmeans, spectral_embed

SOLVER_COLUMNS = SOLVERS  # report column order
AFFINITY_ROWS = AFFINITIES
INDICATORS = ("Mean", "STD", "Max", "Min")


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Stable per-trial seed derived from the master seed."""
    return int(np.random.SeedSequence([master_seed, trial_index]).generate_state(1)[0])


@dataclass(frozen=True)
class DatasetFiles:
    """A matrix file plus a labels file on disk."""

    matrix_path: str
    labels_path: str
    format: str = "csv"


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one solver/affinity experiment."""

    dataset: DatasetFiles | SyntheticSpec
    solver: str
    affinity: str
    n_clusters: int
    solver_config: SolverConfig | None = None  # None -> per-solver defaults
    affinity_config: AffinityConfig = AffinityConfig()
    pca_dim: int | None = None
    normalize: bool = True
    trials: int = 20
    master_seed: int = 0

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.affinity not in AFFINITIES:
            raise ConfigError(f"unknown affinity {self.affinity!r}")
        if self.n_clusters < 2:
            raise ConfigError("n_clusters must be >= 2")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")


@dataclass(frozen=True)
class ExperimentResult:
    """Trial statistics of one experiment (accuracies in percent).

    wall_time_s covers affinity through scoring for a grid cell, and loading
    through scoring for run_experiment. artifacts holds (C, W, trial-0
    labels); only run_experiment sets it, so a grid holds one W at a time.
    """

    mean: float
    std: float
    max: float
    min: float
    per_trial: tuple[float, ...]
    wall_time_s: float
    solver_converged: bool
    artifacts: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (self.min <= self.mean <= self.max):
            raise ConfigError("inconsistent statistics: min <= mean <= max violated")
        if self.std < 0:
            raise ConfigError("standard deviation cannot be negative")


def summarize_trials(accuracies, wall_time_s: float, solver_converged: bool) -> ExperimentResult:
    """Aggregate per-trial accuracies with the sample (n-1) std convention."""
    acc = np.asarray(list(accuracies), dtype=np.float64)
    std = float(np.std(acc, ddof=1)) if acc.size > 1 else 0.0
    return ExperimentResult(
        mean=float(np.mean(acc)),
        std=std,
        max=float(np.max(acc)),
        min=float(np.min(acc)),
        per_trial=tuple(float(a) for a in acc),
        wall_time_s=wall_time_s,
        solver_converged=solver_converged,
    )


class PresetTable:
    """Per-(dataset, solver, affinity) parameter presets for reproduction runs."""

    def __init__(self, table: dict):
        for name, block in table.items():
            if set(block) != {"pipeline", "solvers"}:
                raise ConfigError(f"preset block {name!r} must have pipeline and solvers")
            for solver in SOLVER_COLUMNS:
                cell = block["solvers"].get(solver)
                if cell is None or set(cell) != {"lambda", "ssm_k", "svdm_alpha", "ipm_alpha"}:
                    raise ConfigError(
                        f"preset {name!r}/{solver!r} needs lambda, ssm_k, svdm_alpha, ipm_alpha"
                    )
        self.table = table

    @classmethod
    def builtin(cls) -> "PresetTable":
        text = resources.files("subclust").joinpath("presets.json").read_text()
        return cls(json.loads(text))

    def datasets(self) -> tuple[str, ...]:
        return tuple(self.table)

    def _block(self, dataset: str) -> dict:
        if dataset not in self.table:
            raise ConfigError(
                f"unknown preset dataset {dataset!r}, expected one of {tuple(self.table)}"
            )
        return self.table[dataset]

    def pipeline(self, dataset: str) -> dict:
        return dict(self._block(dataset)["pipeline"])

    def cell(self, dataset: str, solver: str, affinity: str) -> dict:
        """Parameters of one grid cell: lambda plus k_top or alpha when used."""
        if solver not in SOLVER_COLUMNS:
            raise ConfigError(f"unknown solver {solver!r}")
        if affinity not in AFFINITY_ROWS:
            raise ConfigError(f"unknown affinity {affinity!r}")
        raw = self._block(dataset)["solvers"][solver]
        out = {"lambda": raw["lambda"]}
        if affinity == "ssm":
            out["k_top"] = raw["ssm_k"]
        elif affinity == "svdm":
            out["alpha"] = raw["svdm_alpha"]
        elif affinity == "ipm":
            out["alpha"] = raw["ipm_alpha"]
        return out

    def solver_config(self, dataset: str, solver: str) -> SolverConfig:
        raw = self._block(dataset)["solvers"][solver]
        return default_solver_config(solver, lam=raw["lambda"])

    def affinity_config(self, dataset: str, solver: str, affinity: str) -> AffinityConfig:
        params = self.cell(dataset, solver, affinity)
        del params["lambda"]  # the solver's; k_top and alpha are AffinityConfig fields
        return AffinityConfig(**params)


def materialize_dataset(source: DatasetFiles | SyntheticSpec) -> Dataset:
    """Load the dataset files or generate the synthetic instance."""
    if isinstance(source, SyntheticSpec):
        return generate_synthetic(source)
    return load_dataset(source.matrix_path, source.labels_path, source.format)


def _score_cell(ds, C, affinity, acfg, k, seeds, t0):
    """Build W from C, embed it once and score one seeded k-means run per seed.

    Returns W, the per-trial labels and the trial statistics, whose
    wall_time_s runs from t0 to the end of scoring.
    """
    W = build_affinity(affinity, C, ds.matrix, acfg)
    embedding = spectral_embed(W, k)
    labels = [kmeans(embedding, k, seed=seed) for seed in seeds]
    accuracies = [clustering_accuracy(trial, ds.truth) for trial in labels]
    return W, labels, summarize_trials(accuracies, time.perf_counter() - t0, C.report.converged)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one experiment: solve, build affinity, repeat seeded clustering trials.

    Unlike a grid cell, the result carries artifacts: the coefficient
    matrix, the affinity and the trial-0 labels.
    """
    t0 = time.perf_counter()
    ds = prepare_dataset(materialize_dataset(cfg.dataset), cfg.pca_dim, cfg.normalize)
    C = solve(cfg.solver, ds.matrix, cfg.solver_config or default_solver_config(cfg.solver))
    seeds = [trial_seed(cfg.master_seed, i) for i in range(cfg.trials)]
    W, labels, result = _score_cell(
        ds, C, cfg.affinity, cfg.affinity_config, cfg.n_clusters, seeds, t0
    )
    return replace(result, artifacts=(C, W, LabelVector(labels[0], cfg.n_clusters)))


# the failures a grid records per cell; anything else is a bug and propagates
_CELL_ERRORS = (SubclustError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class GridResult:
    """Results of the full 4x4 solver/affinity grid; failures recorded per cell."""

    cells: dict
    errors: dict
    trials: int
    master_seed: int


def run_grid(
    dataset: Dataset,
    presets: PresetTable | None = None,
    trials: int = 20,
    master_seed: int = 0,
    *,
    preset_name: str | None = None,
    n_clusters: int | None = None,
) -> GridResult:
    """Run all 16 solver/affinity combinations on an already-prepared dataset.

    Each solver's coefficient matrix is computed once and reused across its
    four affinities. A cell that fails with a SubclustError or LinAlgError
    records its error and the grid continues; any other exception is a bug
    and propagates. A cell's wall_time_s covers affinity through scoring,
    not the solve.
    """
    if presets is not None and preset_name is None:
        raise ConfigError("preset_name is required when a PresetTable is supplied")
    k = n_clusters if n_clusters is not None else dataset.truth.k
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not 2 <= k <= dataset.matrix.n:
        raise ConfigError(f"n_clusters must be in 2..{dataset.matrix.n}, got {k}")
    seeds = [trial_seed(master_seed, i) for i in range(trials)]
    cells = {}
    errors = {}
    for solver in SOLVER_COLUMNS:
        scfg = (
            presets.solver_config(preset_name, solver)
            if presets is not None
            else default_solver_config(solver)
        )
        try:
            C = solve(solver, dataset.matrix, scfg)
        except _CELL_ERRORS as exc:  # a dead solver must not kill the grid
            for affinity in AFFINITY_ROWS:
                errors[(solver, affinity)] = f"{type(exc).__name__}: {exc}"
            continue
        for affinity in AFFINITY_ROWS:
            acfg = (
                presets.affinity_config(preset_name, solver, affinity)
                if presets is not None
                else AffinityConfig()
            )
            t0 = time.perf_counter()
            try:
                _, _, cells[(solver, affinity)] = _score_cell(
                    dataset, C, affinity, acfg, k, seeds, t0
                )
            except _CELL_ERRORS as exc:
                errors[(solver, affinity)] = f"{type(exc).__name__}: {exc}"
    return GridResult(cells=cells, errors=errors, trials=trials, master_seed=master_seed)


def _cell_text(grid: GridResult, solver: str, affinity: str, indicator: str) -> str:
    cell = grid.cells.get((solver, affinity))
    if cell is None:
        return "ERR"
    return f"{getattr(cell, indicator.lower()):.2f}"


def emit_table(grid: GridResult, format: str = "console") -> str:
    """Render the grid grouped by affinity then indicator, columns LSR SMR LRRSC SSC."""
    if format == "csv":
        lines = ["method,indicator," + ",".join(s.upper() for s in SOLVER_COLUMNS)]
        for affinity in AFFINITY_ROWS:
            for indicator in INDICATORS:
                values = [_cell_text(grid, s, affinity, indicator) for s in SOLVER_COLUMNS]
                lines.append(f"{affinity.upper()},{indicator}," + ",".join(values))
        return "\n".join(lines) + "\n"
    if format == "console":
        header = f"{'Method':<8}{'indicator':<11}" + "".join(
            f"{s.upper():>9}" for s in SOLVER_COLUMNS
        )
        lines = [header]
        for affinity in AFFINITY_ROWS:
            for row, indicator in enumerate(INDICATORS):
                label = affinity.upper() if row == 0 else ""
                values = "".join(
                    f"{_cell_text(grid, s, affinity, indicator):>9}" for s in SOLVER_COLUMNS
                )
                lines.append(f"{label:<8}{indicator:<11}" + values)
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown table format {format!r}, expected 'console' or 'csv'")


# config-file key -> SolverConfig field; the one rename is "lambda" -> lam
_SOLVER_CONFIG_KEYS = {
    "lambda" if f.name == "lam" else f.name: f.name for f in fields(SolverConfig)
}
_AFFINITY_CONFIG_KEYS = tuple(f.name for f in fields(AffinityConfig))
_SYNTHETIC_KEYS = tuple(f.name for f in fields(SyntheticSpec))
_TOP_LEVEL_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def _reject_unknown(obj: dict, allowed, context: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def _parse_dataset(obj: dict) -> DatasetFiles | SyntheticSpec:
    _reject_unknown(obj, ("synthetic", "matrix_path", "labels_path", "format"), "dataset")
    if "synthetic" in obj:
        _reject_unknown(obj, ("synthetic",), "dataset")
        spec = obj["synthetic"]
        _reject_unknown(spec, _SYNTHETIC_KEYS, "dataset.synthetic")
        return SyntheticSpec(**spec)
    for required in ("matrix_path", "labels_path"):
        if required not in obj:
            raise ConfigError(f"dataset.{required} is required")
    return DatasetFiles(**obj)


def parse_experiment_config(obj: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-style dict.

    Unknown keys, a section that is not an object and a value of the wrong
    type (such as "trials": "2") raise ConfigError.
    """
    _reject_unknown(obj, _TOP_LEVEL_KEYS, "experiment config")
    for required in ("dataset", "solver", "affinity", "n_clusters"):
        if required not in obj:
            raise ConfigError(f"experiment config key {required!r} is required")
    kwargs = {key: obj[key] for key in _TOP_LEVEL_KEYS if key in obj}
    try:
        if "solver_config" in obj:
            raw = obj["solver_config"]
            _reject_unknown(raw, _SOLVER_CONFIG_KEYS, "solver_config")
            kwargs["solver_config"] = default_solver_config(
                obj["solver"], **{_SOLVER_CONFIG_KEYS[key]: value for key, value in raw.items()}
            )
        if "affinity_config" in obj:
            raw = obj["affinity_config"]
            _reject_unknown(raw, _AFFINITY_CONFIG_KEYS, "affinity_config")
            kwargs["affinity_config"] = AffinityConfig(**raw)
        kwargs["dataset"] = _parse_dataset(obj["dataset"])
        return ExperimentConfig(**kwargs)
    except TypeError as exc:  # a JSON value of the wrong type met a comparison
        raise ConfigError(f"experiment config has a value of the wrong type: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    """Parse an experiment config JSON file."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_experiment_config(obj)
