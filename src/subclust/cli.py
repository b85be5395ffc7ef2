"""Command-line interface.

Subcommands: `synth` writes a synthetic union-of-subspaces dataset, `run`
executes one configured experiment, `grid` runs the full solver x affinity
comparison on a dataset. Exit codes: 0 success, 1 config error, 2 data
error, 3 numerical failure. `run` writes its dumps from the same solve that
produced its scores. `grid` exits 0 even when cells fail: each failed cell
prints ERR in the table and one `subclust: cell <solver>+<affinity> failed:
<reason>` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time

# cli.solve, cli.build_affinity and cli.cluster are unused; perfbench/tracing.py hooks them
from .affinity import build_affinity  # noqa: F401
from .data import (
    FORMATS,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    prepare_dataset,
    save_dataset,
    save_labels,
    save_matrix_binary,
)
from .errors import ConfigError, DataError, NumericalError
from .harness import (
    PresetTable,
    emit_table,
    load_experiment_config,
    run_experiment,
    run_grid,
)
from .solvers import solve  # noqa: F401
from .spectral import cluster  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="subclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic union-of-subspaces dataset")
    synth.add_argument("--subspaces", type=int, required=True, help="number of subspaces")
    synth.add_argument("--dim", type=int, required=True, help="dimension of each subspace")
    synth.add_argument("--ambient", type=int, required=True, help="ambient dimension")
    synth.add_argument("--points", type=int, required=True, help="points per subspace")
    synth.add_argument("--noise", type=float, default=0.0, help="Gaussian noise sigma")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output prefix: writes <out>.csv|.bin and <out>.labels")
    synth.add_argument("--format", choices=FORMATS, default="csv")

    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("--config", required=True, help="experiment config JSON file")
    run.add_argument("--out", help="write per-trial accuracies as CSV")
    run.add_argument("--dump-coeff", help="write the coefficient matrix (binary format)")
    run.add_argument("--dump-affinity", help="write the affinity matrix (binary format)")
    run.add_argument("--dump-labels", help="write trial-0 predicted labels, one per line")

    grid = sub.add_parser("grid", help="run the 4x4 solver x affinity grid")
    grid.add_argument("--dataset", required=True, help="matrix file (one sample per row for csv)")
    grid.add_argument("--labels", required=True, help="labels file, one integer per line")
    grid.add_argument("--format", choices=FORMATS, default="csv")
    grid.add_argument("--pca", type=int, default=None, help="PCA dimension before clustering")
    grid.add_argument("--no-normalize", action="store_true", help="skip column normalization")
    grid.add_argument("--preset", choices=PresetTable.builtin().datasets(), help="parameter presets")
    grid.add_argument("--clusters", type=int, default=None, help="number of clusters (default: from labels)")
    grid.add_argument("--trials", type=int, default=20)
    grid.add_argument("--seed", type=int, default=0, help="master seed for trial derivation")
    grid.add_argument("--out", help="write the result table as CSV")
    return parser


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        num_subspaces=args.subspaces,
        subspace_dim=args.dim,
        ambient_dim=args.ambient,
        points_per_subspace=args.points,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    ds = generate_synthetic(spec)
    suffix = "csv" if args.format == "csv" else "bin"
    matrix_path = f"{args.out}.{suffix}"
    labels_path = f"{args.out}.labels"
    save_dataset(ds, matrix_path, labels_path, format=args.format)
    print(f"wrote {matrix_path} ({ds.matrix.d}x{ds.matrix.n}) and {labels_path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    seconds = time.perf_counter() - t0  # loading through scoring
    converged = "yes" if result.solver_converged else "no"
    print(
        f"{cfg.solver}+{cfg.affinity}: mean={result.mean:.2f} std={result.std:.2f} "
        f"max={result.max:.2f} min={result.min:.2f} "
        f"(trials={len(result.per_trial)}, converged={converged}, "
        f"{seconds:.1f}s)"
    )
    if args.out:
        lines = ["trial,accuracy_percent"]
        lines += [f"{i},{acc:.6f}" for i, acc in enumerate(result.per_trial)]
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    C, W, labels = result.artifacts
    if args.dump_coeff:
        save_matrix_binary(C.values, args.dump_coeff)
    if args.dump_affinity:
        save_matrix_binary(W, args.dump_affinity)
    if args.dump_labels:
        save_labels(labels, args.dump_labels)
    return EXIT_OK


def _cmd_grid(args) -> int:
    ds = load_dataset(args.dataset, args.labels, format=args.format)
    presets = preset_name = None
    pca_dim = args.pca
    normalize = not args.no_normalize
    n_clusters = args.clusters
    if args.preset:
        presets = PresetTable.builtin()
        preset_name = args.preset
        pipeline = presets.pipeline(preset_name)
        if pca_dim is None:
            pca_dim = pipeline["pca_dim"]
        if n_clusters is None:
            n_clusters = pipeline["n_clusters"]
    ds = prepare_dataset(ds, pca_dim, normalize)
    grid = run_grid(
        ds,
        presets,
        trials=args.trials,
        master_seed=args.seed,
        preset_name=preset_name,
        n_clusters=n_clusters,
    )
    print(emit_table(grid, "console"), end="")
    for (solver, affinity), reason in grid.errors.items():
        print(f"subclust: cell {solver}+{affinity} failed: {reason}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(emit_table(grid, "csv"))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"synth": _cmd_synth, "run": _cmd_run, "grid": _cmd_grid}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"subclust: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"subclust: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"subclust: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
