"""Experiment configuration, the solver x affinity grid, and table emission.

A single experiment solves the coefficient matrix once, builds one affinity,
and repeats spectral clustering over seeded trials; the grid runs all sixteen
solver/affinity combinations, reusing each solver's coefficient matrix across
its four affinities. Trial seeds derive from the master seed, so every number
is exactly reproducible.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
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

    artifacts holds (C, W, trial-0 labels), W the n x n array that
    spectral_embed checked; only run_experiment sets it, so a grid holds one
    W at a time.
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

    A dataset block holds a pipeline of pca_dim (null: no PCA) and n_clusters,
    and per solver its lambda plus an AffinityConfig block per affinity that
    takes parameters: {"lambda": 0.2, "ssm": {"k_top": 7}, "svdm": {"alpha": 4.0}}.
    """

    def __init__(self, table: dict):
        self.table = table
        for name, block in _object(table, "preset table", allowed=table).items():
            path = f"preset {name!r}"
            _object(block, path, ("pipeline", "solvers"), ("pipeline", "solvers"))
            keys = ("pca_dim", "n_clusters")
            pipeline = _object(block["pipeline"], f"{path} pipeline", keys, keys)
            if pipeline["pca_dim"] is not None:
                require(f"{path} pca_dim", pipeline["pca_dim"], int, at_least=1)
            require(f"{path} n_clusters", pipeline["n_clusters"], int, at_least=2)
            solvers = _object(block["solvers"], f"{path} solvers", SOLVER_COLUMNS, SOLVER_COLUMNS)
            for solver in SOLVER_COLUMNS:
                solver_path = f"{path}/{solver!r}"
                _object(solvers[solver], solver_path, ("lambda", *AFFINITY_ROWS), ("lambda",))
                try:  # a bad value fails here, not in run_grid after other solvers' cells
                    self.solver_config(name, solver)
                except ConfigError as exc:
                    raise ConfigError(f"{solver_path}: {exc}") from None
                for affinity in AFFINITY_ROWS:
                    self.affinity_config(name, solver, affinity)

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

    def solver_config(self, dataset: str, solver: str) -> SolverConfig:
        return default_solver_config(solver, lam=self._entry(dataset, solver)["lambda"])

    def affinity_config(self, dataset: str, solver: str, affinity: str) -> AffinityConfig:
        require_one_of("affinity", affinity, AFFINITY_ROWS)
        block = self._entry(dataset, solver).get(affinity, {})
        return _from_json(AffinityConfig, block, f"preset {dataset!r}/{solver!r}/{affinity!r}")


def _score_cell(ds, C, affinity, acfg, k, seeds):
    """Build W from C, embed it once and score one seeded k-means trial per seed.

    All trials go through one call of kmeans, whose labels per seed are those
    of a call with that seed alone. Returns W, the per-trial labels and the
    trial statistics.
    """
    W = build_affinity(affinity, C.values, ds.matrix, acfg)
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
    src = cfg.dataset
    ds = generate_synthetic(src) if isinstance(src, SyntheticSpec) else load_dataset(**asdict(src))
    ds = prepare_dataset(ds, cfg.pca_dim, cfg.normalize)  # the raw matrix is freed before the solve
    require("n_clusters", cfg.n_clusters, int, at_least=2, at_most=ds.matrix.n)
    C = solve(cfg.solver, ds.matrix, cfg.solver_config or default_solver_config(cfg.solver))
    seeds = [trial_seed(cfg.master_seed, i) for i in range(cfg.trials)]
    W, labels, result = _score_cell(ds, C, cfg.affinity, cfg.affinity_config, cfg.n_clusters, seeds)
    return replace(result, artifacts=(C, W, LabelVector(labels[0], cfg.n_clusters)))


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
    four affinities. A cell that fails with a SubclustError records its error
    and the grid continues; any other exception is a bug and propagates.
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
        except SubclustError as exc:  # a dead solver must not kill the grid
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
            except SubclustError as exc:
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


def _object(obj, context: str, allowed, required=()) -> dict:
    """Return obj, a JSON object whose keys are all allowed and include every required one."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"required key(s) {missing} missing in {context}")
    return obj


def _field_names(cls) -> tuple[list, list]:  # all, and the required: those with no default
    return [f.name for f in fields(cls)], [f.name for f in fields(cls) if f.default is MISSING]


def _from_json(cls, obj, context: str):
    """Build the dataclass cls from a JSON object of its fields; a bad value names context."""
    kwargs = _object(obj, context, *_field_names(cls))
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def parse_experiment_config(obj: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-style dict.

    Each section is read as a preset table is: one that is not an object, an
    unknown or missing key and a bad value ("lambda": true) raise ConfigError.
    """
    kwargs = dict(_object(obj, "experiment config", *_field_names(ExperimentConfig)))
    if "solver_config" in obj:
        raw = _object(obj["solver_config"], "solver_config", _SOLVER_CONFIG_KEYS)
        renamed = {_SOLVER_CONFIG_KEYS[key]: value for key, value in raw.items()}
        defaults = default_solver_config(obj["solver"])
        try:
            kwargs["solver_config"] = replace(defaults, **renamed)
        except ConfigError as exc:
            raise ConfigError(f"solver_config: {exc}") from None
    if "affinity_config" in obj:
        raw = obj["affinity_config"]
        kwargs["affinity_config"] = _from_json(AffinityConfig, raw, "affinity_config")
    dataset = obj["dataset"]
    if isinstance(dataset, dict) and "synthetic" in dataset:
        spec = _object(dataset, "dataset", ("synthetic",))["synthetic"]
        kwargs["dataset"] = _from_json(SyntheticSpec, spec, "dataset.synthetic")
    else:
        kwargs["dataset"] = _from_json(DatasetFiles, dataset, "dataset")
    return ExperimentConfig(**kwargs)


def load_experiment_config(path) -> ExperimentConfig:
    """Parse an experiment config JSON file, read as UTF-8 (RFC 8259) in any locale.

    A file that cannot be read (missing, a directory) or that json.load cannot parse
    raises ConfigError naming the path: bad syntax or encoding, an integer of more
    digits than Python converts, nesting deeper than the recursion limit.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_experiment_config(obj)
