"""Experiment configuration, the solver x affinity grid, and table emission.

A single experiment solves the coefficient matrix once, builds one affinity,
and repeats spectral clustering over seeded trials; the grid runs all sixteen
solver/affinity combinations, reusing each solver's coefficient matrix across
its four affinities. Trial seeds derive from the master seed, so every number
is exactly reproducible.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources

import numpy as np

from .affinity import AFFINITIES, AffinityConfig, build_affinity
from .data import (
    FORMATS,
    Dataset,
    LabelVector,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    prepare_dataset,
)
from .errors import ConfigError, SubclustError, require, require_one_of
from .solvers import SOLVERS, SolverConfig, default_solver_config, solve
from .spectral import clustering_accuracy, kmeans, spectral_embed

SOLVER_COLUMNS = SOLVERS  # report column order
AFFINITY_ROWS = AFFINITIES
INDICATORS = ("Mean", "STD", "Max", "Min")


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Stable per-trial seed derived from the master seed."""
    return int(np.random.SeedSequence([master_seed, trial_index]).generate_state(1)[0])


def _check_run_parameters(n_clusters, trials, master_seed) -> None:
    """Type and range checks of the run parameters that need no data."""
    require("n_clusters", n_clusters, int, at_least=2)
    require("trials", trials, int, at_least=1)
    require("master_seed", master_seed, int, at_least=0)


@dataclass(frozen=True)
class DatasetFiles:
    """A matrix file plus a labels file on disk."""

    matrix_path: str
    labels_path: str
    format: str = "csv"

    def __post_init__(self):
        require("matrix_path", self.matrix_path, str)
        require("labels_path", self.labels_path, str)
        require_one_of("format", self.format, FORMATS)


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
        require_one_of("solver", self.solver, SOLVERS)
        require_one_of("affinity", self.affinity, AFFINITIES)
        _check_run_parameters(self.n_clusters, self.trials, self.master_seed)
        if self.pca_dim is not None:
            require("pca_dim", self.pca_dim, int, at_least=1)
        require("normalize", self.normalize, bool)


@dataclass(frozen=True)
class ExperimentResult:
    """Trial statistics of one experiment (accuracies in percent).

    artifacts holds (C, W, trial-0 labels); only run_experiment sets it, so a
    grid holds one W at a time.
    """

    mean: float
    std: float
    max: float
    min: float
    per_trial: tuple[float, ...]
    solver_converged: bool
    artifacts: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (self.min <= self.mean <= self.max):
            raise ConfigError("inconsistent statistics: min <= mean <= max violated")
        if self.std < 0:
            raise ConfigError("standard deviation cannot be negative")


def summarize_trials(accuracies, solver_converged: bool) -> ExperimentResult:
    """Aggregate per-trial accuracies with the sample (n-1) std convention."""
    acc = np.asarray(list(accuracies), dtype=np.float64)
    std = float(np.std(acc, ddof=1)) if acc.size > 1 else 0.0
    return ExperimentResult(
        mean=float(np.mean(acc)),
        std=std,
        max=float(np.max(acc)),
        min=float(np.min(acc)),
        per_trial=tuple(float(a) for a in acc),
        solver_converged=solver_converged,
    )


class PresetTable:
    """Per-(dataset, solver, affinity) parameter presets for reproduction runs.

    Each solver entry holds its lambda and, per affinity that takes
    parameters, a block of AffinityConfig fields, such as
    {"lambda": 0.2, "ssm": {"k_top": 7}, "svdm": {"alpha": 4.0}}.
    """

    def __init__(self, table: dict):
        self._configs = {}  # (dataset, solver) -> (SolverConfig, {affinity: AffinityConfig})
        for name, block in table.items():
            _reject_unknown(block, ("pipeline", "solvers"), f"preset block {name!r}")
            if set(block) != {"pipeline", "solvers"}:
                raise ConfigError(f"preset block {name!r} must have pipeline and solvers")
            pipeline, solvers = block["pipeline"], block["solvers"]
            _reject_unknown(pipeline, ("pca_dim", "n_clusters"), f"preset {name!r} pipeline")
            if pipeline.get("pca_dim") is not None:
                require(f"preset {name!r} pca_dim", pipeline["pca_dim"], int, at_least=1)
            if "n_clusters" in pipeline:
                require(f"preset {name!r} n_clusters", pipeline["n_clusters"], int, at_least=2)
            _reject_unknown(solvers, SOLVER_COLUMNS, f"preset {name!r} solvers")
            for solver in SOLVER_COLUMNS:
                entry = solvers.get(solver)
                context = f"preset {name!r}/{solver!r}"
                _reject_unknown(entry, ("lambda", *AFFINITY_ROWS), context)
                if "lambda" not in entry:
                    raise ConfigError(f"{context} needs lambda")
                for affinity in AFFINITY_ROWS:
                    _reject_unknown(
                        entry.get(affinity, {}), _AFFINITY_CONFIG_KEYS, f"{context}/{affinity!r}"
                    )
                try:  # a bad value fails here, not in run_grid after other solvers' cells
                    self._configs[name, solver] = (
                        default_solver_config(solver, lam=entry["lambda"]),
                        {a: AffinityConfig(**entry.get(a, {})) for a in AFFINITY_ROWS},
                    )
                except ConfigError as exc:
                    raise ConfigError(f"{context}: {exc}") from None
        self.table = table

    @classmethod
    def builtin(cls) -> "PresetTable":
        text = resources.files("subclust").joinpath("presets.json").read_text()
        return cls(json.loads(text))

    def datasets(self) -> tuple[str, ...]:
        return tuple(self.table)

    def _block(self, dataset: str) -> dict:
        return self.table[require_one_of("preset dataset", dataset, self.table)]

    def pipeline(self, dataset: str) -> dict:
        return dict(self._block(dataset)["pipeline"])

    def _entry(self, dataset: str, solver: str) -> dict:
        return self._block(dataset)["solvers"][require_one_of("solver", solver, SOLVER_COLUMNS)]

    def cell(self, dataset: str, solver: str, affinity: str) -> dict:
        """Parameters of one grid cell: lambda plus k_top or alpha when used."""
        require_one_of("affinity", affinity, AFFINITY_ROWS)
        raw = self._entry(dataset, solver)
        return {"lambda": raw["lambda"], **raw.get(affinity, {})}

    def _kept(self, dataset: str, solver: str):
        require_one_of("preset dataset", dataset, self.table)
        return self._configs[dataset, require_one_of("solver", solver, SOLVER_COLUMNS)]

    def solver_config(self, dataset: str, solver: str) -> SolverConfig:
        return self._kept(dataset, solver)[0]

    def affinity_config(self, dataset: str, solver: str, affinity: str) -> AffinityConfig:
        require_one_of("affinity", affinity, AFFINITY_ROWS)
        return self._kept(dataset, solver)[1][affinity]


def materialize_dataset(source: DatasetFiles | SyntheticSpec) -> Dataset:
    """Load the dataset files or generate the synthetic instance."""
    if isinstance(source, SyntheticSpec):
        return generate_synthetic(source)
    return load_dataset(source.matrix_path, source.labels_path, source.format)


def _score_cell(ds, C, affinity, acfg, k, seeds):
    """Build W from C, embed it once and score one seeded k-means trial per seed.

    All trials go through one call of kmeans, whose labels per seed are those
    of a call with that seed alone. Returns W, the per-trial labels and the
    trial statistics.
    """
    W = build_affinity(affinity, C, ds.matrix, acfg)
    embedding = spectral_embed(W, k)
    labels = kmeans(embedding, k, seeds)
    accuracies = [clustering_accuracy(trial, ds.truth) for trial in labels]
    return W, labels, summarize_trials(accuracies, C.report.converged)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one experiment: solve, build affinity, repeat seeded clustering trials.

    Unlike a grid cell, the result carries artifacts: the coefficient
    matrix, the affinity and the trial-0 labels. n_clusters is checked
    against the number of points before the solve.
    """
    ds = prepare_dataset(materialize_dataset(cfg.dataset), cfg.pca_dim, cfg.normalize)
    require("n_clusters", cfg.n_clusters, int, at_least=2, at_most=ds.matrix.n)
    C = solve(cfg.solver, ds.matrix, cfg.solver_config or default_solver_config(cfg.solver))
    seeds = [trial_seed(cfg.master_seed, i) for i in range(cfg.trials)]
    W, labels, result = _score_cell(ds, C, cfg.affinity, cfg.affinity_config, cfg.n_clusters, seeds)
    return replace(result, artifacts=(C, W, LabelVector(labels[0], cfg.n_clusters)))


# the failures a grid records per cell; anything else is a bug and propagates
_CELL_ERRORS = (SubclustError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class GridResult:
    """Results of the full 4x4 solver/affinity grid; failures recorded per cell."""

    cells: dict
    errors: dict


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
    and propagates.
    """
    if (presets is None) != (preset_name is None):
        raise ConfigError("presets and preset_name must be given together")
    k = n_clusters if n_clusters is not None else dataset.truth.k
    _check_run_parameters(k, trials, master_seed)
    require("n_clusters", k, int, at_least=2, at_most=dataset.matrix.n)
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
            try:
                _, _, cells[(solver, affinity)] = _score_cell(dataset, C, affinity, acfg, k, seeds)
            except _CELL_ERRORS as exc:
                errors[(solver, affinity)] = f"{type(exc).__name__}: {exc}"
    return GridResult(cells=cells, errors=errors)


def emit_table(grid: GridResult, format: str = "console") -> str:
    """Render the grid grouped by affinity then indicator, columns LSR SMR LRRSC SSC.

    A cell with no result, failed or missing, prints ERR.
    """
    csv = require_one_of("table format", format, ("console", "csv")) == "csv"
    rows = [["method" if csv else "Method", "indicator", *(s.upper() for s in SOLVER_COLUMNS)]]
    for affinity in AFFINITY_ROWS:
        cells = [grid.cells.get((solver, affinity)) for solver in SOLVER_COLUMNS]
        for indicator in INDICATORS:
            # the console names each affinity on its first row only
            label = affinity.upper() if csv or indicator == INDICATORS[0] else ""
            values = ["ERR" if c is None else f"{getattr(c, indicator.lower()):.2f}" for c in cells]
            rows.append([label, indicator, *values])
    if csv:
        return "".join(",".join(row) + "\n" for row in rows)
    return "".join(
        f"{label:<8}{indicator:<11}" + "".join(f"{v:>9}" for v in values) + "\n"
        for label, indicator, *values in rows
    )


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


def _require_keys(obj: dict, cls, context: str) -> None:
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
    if missing:
        raise ConfigError(f"required key(s) {missing} missing in {context}")


def _parse_dataset(obj: dict) -> DatasetFiles | SyntheticSpec:
    _reject_unknown(obj, ("synthetic", "matrix_path", "labels_path", "format"), "dataset")
    if "synthetic" in obj:
        _reject_unknown(obj, ("synthetic",), "dataset")
        spec = obj["synthetic"]
        _reject_unknown(spec, _SYNTHETIC_KEYS, "dataset.synthetic")
        _require_keys(spec, SyntheticSpec, "dataset.synthetic")
        return SyntheticSpec(**spec)
    _require_keys(obj, DatasetFiles, "dataset")
    return DatasetFiles(**obj)


def parse_experiment_config(obj: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-style dict.

    Unknown or missing keys, a section that is not an object and a setting of
    the wrong type or out of range (such as "lambda": true) raise ConfigError.
    """
    _reject_unknown(obj, _TOP_LEVEL_KEYS, "experiment config")
    _require_keys(obj, ExperimentConfig, "experiment config")
    kwargs = {key: obj[key] for key in _TOP_LEVEL_KEYS if key in obj}
    if "solver_config" in obj:
        raw = obj["solver_config"]
        _reject_unknown(raw, _SOLVER_CONFIG_KEYS, "solver_config")
        kwargs["solver_config"] = default_solver_config(
            obj["solver"], **{_SOLVER_CONFIG_KEYS[key]: value for key, value in raw.items()}
        )
    if "affinity_config" in obj:
        _reject_unknown(obj["affinity_config"], _AFFINITY_CONFIG_KEYS, "affinity_config")
        kwargs["affinity_config"] = AffinityConfig(**obj["affinity_config"])
    kwargs["dataset"] = _parse_dataset(obj["dataset"])
    return ExperimentConfig(**kwargs)


def load_experiment_config(path) -> ExperimentConfig:
    """Parse an experiment config JSON file, read as UTF-8 (RFC 8259) in any locale.

    A file json.load cannot read raises ConfigError: bad syntax or encoding,
    an integer of more digits than Python converts, nesting deeper than the
    recursion limit.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_experiment_config(obj)
