"""The benchmark's workloads: synthetic inputs shaped like the paper's datasets.

Each workload has a set-up pass (make the inputs from the seed), a timed unit
(one call into the program: a `run_grid`, or the eight `subclust run` CLI
calls) and a check of the unit's outputs that runs outside the timed section.
The program only ever sees the generated inputs.

Every call into a layer goes through a module attribute (`harness.run_grid`,
`cli.main`, `data.generate_synthetic`, ...), so the wrappers installed by
`tracing.Tracer` see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from subclust import cli, data, harness
from subclust.harness import AFFINITY_ROWS, SOLVER_COLUMNS

MASTER_SEED = 0  # trial seeds derive from this; the data seed is the workload seed


@dataclass(frozen=True)
class Shape:
    """A synthetic union of subspaces plus the preprocessing applied to it."""

    subspaces: int
    subspace_dim: int
    ambient_dim: int
    points_per_subspace: int
    noise_sigma: float
    pca_dim: int | None
    trials: int

    def spec(self, seed: int) -> data.SyntheticSpec:
        return data.SyntheticSpec(
            num_subspaces=self.subspaces,
            subspace_dim=self.subspace_dim,
            ambient_dim=self.ambient_dim,
            points_per_subspace=self.points_per_subspace,
            noise_sigma=self.noise_sigma,
            seed=seed,
        )


@dataclass
class UnitCheck:
    """What one unit's outputs showed: per-cell accuracy, failures and problems."""

    digest: str
    attempted: int
    cell_means: dict = field(default_factory=dict)  # cell -> mean accuracy (percent)
    failures: dict = field(default_factory=dict)  # cell -> reason the program gave
    problems: list = field(default_factory=list)  # output checks that did not hold


def _check_trials(cell: str, per_trial, mean, std, lo, hi, n: int, k: int, problems: list) -> None:
    """Invariants of one cell's trial statistics (accuracies in percent)."""
    acc = np.asarray(per_trial, dtype=np.float64)
    if not lo <= mean <= hi:
        problems.append(f"{cell}: min <= mean <= max violated ({lo!r}, {mean!r}, {hi!r})")
    if std < 0:
        problems.append(f"{cell}: negative std {std!r}")
    if acc.size == 0:
        problems.append(f"{cell}: no trials")
        return
    matched = acc * n / 100.0
    if np.any(np.abs(matched - np.round(matched)) > 1e-6):
        problems.append(f"{cell}: an accuracy is not a whole number of matched points")
    # an optimal one-to-one matching always captures at least n/k points
    if acc.min() < 100.0 / k - 1e-9 or acc.max() > 100.0 + 1e-9:
        problems.append(f"{cell}: accuracy outside [100/k, 100]")
    if abs(float(acc.min()) - lo) > 1e-6 or abs(float(acc.max()) - hi) > 1e-6:
        problems.append(f"{cell}: min/max disagree with the per-trial values")
    if abs(float(acc.mean()) - mean) > 1e-6:
        problems.append(f"{cell}: mean disagrees with the per-trial values")


class GridWorkload:
    """`run_grid` with one dataset's presets on a prepared synthetic dataset."""

    def __init__(self, name: str, preset: str, shape: Shape):
        self.name, self.preset, self.shape = name, preset, shape
        self.presets = harness.PresetTable.builtin()

    def setup(self, seed: int, workdir: str):
        raw = data.generate_synthetic(self.shape.spec(seed))
        return data.prepare_dataset(raw, pca_dim=self.shape.pca_dim, normalize=True)

    @staticmethod
    def setup_digest(state) -> str:
        return hashlib.sha256(state.matrix.values.tobytes()).hexdigest()

    def execute(self, state):
        grid = harness.run_grid(
            state, self.presets, trials=self.shape.trials,
            master_seed=MASTER_SEED, preset_name=self.preset,
        )
        return grid, harness.emit_table(grid, "csv")

    def check(self, state, outputs) -> UnitCheck:
        grid, csv = outputs
        n, k = state.matrix.n, state.truth.k
        result = UnitCheck(digest="", attempted=len(SOLVER_COLUMNS) * len(AFFINITY_ROWS))
        rows = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in csv.splitlines()[1:]}
        blob = hashlib.sha256(csv.encode())
        for s_idx, solver in enumerate(SOLVER_COLUMNS):
            for affinity in AFFINITY_ROWS:
                cell = f"{solver}+{affinity}"
                printed = [rows.get((affinity.upper(), ind), [None] * 4)[s_idx]
                           for ind in harness.INDICATORS]
                if (solver, affinity) in grid.errors:
                    result.failures[cell] = grid.errors[(solver, affinity)]
                    blob.update(f"{cell}:{result.failures[cell]}".encode())
                    if printed != ["ERR"] * 4:
                        result.problems.append(f"{cell}: failed cell not printed as ERR")
                    continue
                r = grid.cells.get((solver, affinity))
                if r is None:
                    result.problems.append(f"{cell}: neither a result nor an error")
                    continue
                result.cell_means[cell] = r.mean
                blob.update(np.asarray(r.per_trial, dtype=np.float64).tobytes())
                if len(r.per_trial) != self.shape.trials:
                    result.problems.append(f"{cell}: {len(r.per_trial)} trials, expected {self.shape.trials}")
                _check_trials(cell, r.per_trial, r.mean, r.std, r.min, r.max, n, k, result.problems)
                expected = [f"{getattr(r, ind.lower()):.2f}" for ind in harness.INDICATORS]
                if printed != expected:
                    result.problems.append(f"{cell}: CSV shows {printed}, result is {expected}")
        result.digest = blob.hexdigest()
        return result


# The preset parameters of the eight closed-form cells, as the CLI config spells them.
def _cli_config(presets, preset: str, solver: str, affinity: str, shape: Shape,
                matrix_path: str, labels_path: str) -> dict:
    params = presets.cell(preset, solver, affinity)
    affinity_config = {key: params[key] for key in ("k_top", "alpha") if key in params}
    return {
        "dataset": {"matrix_path": matrix_path, "labels_path": labels_path, "format": "csv"},
        "solver": solver,
        "solver_config": {"lambda": params["lambda"]},
        "affinity": affinity,
        "affinity_config": affinity_config,
        "n_clusters": shape.subspaces,
        "pca_dim": shape.pca_dim,
        "normalize": True,
        "trials": shape.trials,
        "master_seed": MASTER_SEED,
    }


_SUMMARY = re.compile(r"mean=(\S+) std=(\S+) max=(\S+) min=(\S+) \(trials=(\d+)")
_OUTPUTS = ("out", "coeff", "affinity", "labels")


@dataclass
class CliState:
    matrix_path: str
    cells: list  # (cell name, argv, {output kind: path}, solver lambda)
    truth: np.ndarray
    k: int
    digest: str
    prepared: np.ndarray | None = None  # the CLI's preprocessing, redone for the lsr oracle


class CliWorkload:
    """`subclust run` in-process for each closed-form cell, with every output flag."""

    solvers = ("lsr", "smr")

    def __init__(self, name: str, preset: str, shape: Shape):
        self.name, self.preset, self.shape = name, preset, shape
        self.presets = harness.PresetTable.builtin()

    def setup(self, seed: int, workdir: str) -> CliState:
        ds = data.generate_synthetic(self.shape.spec(seed))
        matrix_path = os.path.join(workdir, "data.csv")
        labels_path = os.path.join(workdir, "data.labels")
        data.save_dataset(ds, matrix_path, labels_path, format="csv")
        cells = []
        for solver in self.solvers:
            for affinity in AFFINITY_ROWS:
                cell = f"{solver}+{affinity}"
                config = _cli_config(self.presets, self.preset, solver, affinity, self.shape,
                                     matrix_path, labels_path)
                config_path = os.path.join(workdir, f"{cell}.json")
                with open(config_path, "w") as fh:
                    json.dump(config, fh)
                paths = {kind: os.path.join(workdir, f"{cell}.{kind}") for kind in _OUTPUTS}
                argv = ["run", "--config", config_path, "--out", paths["out"],
                        "--dump-coeff", paths["coeff"], "--dump-affinity", paths["affinity"],
                        "--dump-labels", paths["labels"]]
                cells.append((cell, argv, paths, config["solver_config"]["lambda"]))
        blob = hashlib.sha256()
        for path in (matrix_path, labels_path):
            with open(path, "rb") as fh:
                blob.update(fh.read())
        return CliState(matrix_path=matrix_path, cells=cells, truth=ds.truth.labels,
                        k=ds.truth.k, digest=blob.hexdigest())

    @staticmethod
    def setup_digest(state) -> str:
        return state.digest

    def execute(self, state: CliState):
        outputs = []
        for _, argv, _, _ in state.cells:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            outputs.append((code, out.getvalue(), err.getvalue()))
        return outputs

    def check(self, state: CliState, outputs) -> UnitCheck:
        n, k = state.truth.size, state.k
        result = UnitCheck(digest="", attempted=len(state.cells))
        blob = hashlib.sha256()
        for (cell, _, paths, lam), (code, out, err) in zip(state.cells, outputs):
            files = {}
            for kind, path in paths.items():
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        files[kind] = fh.read()
                    os.remove(path)  # a later unit must not see stale outputs
            for kind in _OUTPUTS:
                blob.update(files.get(kind, b"-"))
            if code != 0:
                result.failures[cell] = f"exit {code}: {err.strip()}"
                blob.update(result.failures[cell].encode())
                continue
            missing = [kind for kind in _OUTPUTS if kind not in files]
            if missing:
                result.problems.append(f"{cell}: outputs missing: {missing}")
                continue
            self._check_cell(state, cell, lam, out, files, n, k, result)
        result.digest = blob.hexdigest()
        return result

    def _check_cell(self, state, cell, lam, out, files, n, k, result) -> None:
        problems = result.problems
        summary = _SUMMARY.search(out)
        lines = files["out"].decode().splitlines()
        if summary is None or lines[:1] != ["trial,accuracy_percent"]:
            problems.append(f"{cell}: unreadable summary line or trials CSV")
            return
        acc = np.array([float(line.split(",")[1]) for line in lines[1:]])
        mean, std, hi, lo = (float(v) for v in summary.groups()[:4])
        if int(summary.group(5)) != acc.size or acc.size != self.shape.trials:
            problems.append(f"{cell}: {acc.size} trial rows, expected {self.shape.trials}")
        _check_trials(cell, acc, float(acc.mean()), std, float(acc.min()), float(acc.max()),
                      n, k, problems)
        if not lo <= mean <= hi:
            problems.append(f"{cell}: printed min <= mean <= max violated")
        if abs(mean - acc.mean()) > 0.0051:
            problems.append(f"{cell}: printed mean {mean} disagrees with the trials CSV")
        result.cell_means[cell] = float(acc.mean())

        C = _read_sscb(files["coeff"], n, f"{cell} coefficient dump", problems)
        W = _read_sscb(files["affinity"], n, f"{cell} affinity dump", problems)
        if W is not None and (np.max(np.abs(W - W.T)) > 1e-12 or W.min() < 0):
            problems.append(f"{cell}: affinity dump is not symmetric and nonnegative")
        if C is not None and cell.startswith("lsr+"):
            # ridge normal equations: (X^T X + lam I) C = X^T X
            X = self._prepared(state)
            G = X.T @ X
            resid = np.max(np.abs(G @ C + lam * C - G)) / max(1.0, np.max(np.abs(G)))
            if not resid <= 1e-8:
                problems.append(f"{cell}: lsr normal-equation residual {resid:.3g}")
        labels = np.array(files["labels"].split(), dtype=np.int64)
        if labels.size != n or labels.min() < 0 or labels.max() >= k:
            problems.append(f"{cell}: dumped labels are not {n} values in 0..{k - 1}")
        elif abs(_accuracy(labels, state.truth, k) - acc[0]) > 1e-4:
            problems.append(f"{cell}: dumped trial-0 labels disagree with trial 0's accuracy")

    def _prepared(self, state: CliState) -> np.ndarray:
        if state.prepared is None:
            X = np.loadtxt(state.matrix_path, delimiter=",").T
            state.prepared = X / np.linalg.norm(X, axis=0)
        return state.prepared


def _read_sscb(blob: bytes, n: int, what: str, problems: list):
    """Parse the SSCB binary matrix format independently of the program's reader."""
    if len(blob) < 13 or blob[:5] != b"SSCB\x01":
        problems.append(f"{what}: bad header")
        return None
    d, m = struct.unpack("<II", blob[5:13])
    if (d, m) != (n, n) or len(blob) != 13 + 8 * n * n:
        problems.append(f"{what}: shape {d}x{m}, expected {n}x{n}")
        return None
    values = np.frombuffer(blob, dtype="<f8", offset=13).reshape((n, n), order="F")
    if not np.all(np.isfinite(values)):
        problems.append(f"{what}: non-finite entries")
        return None
    return values


def _accuracy(pred: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Percent of points matched under the best one-to-one cluster pairing."""
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return 100.0 * table[rows, cols].sum() / truth.size
