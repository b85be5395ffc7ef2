"""Run benchmark workloads and print their metrics.

    python3 perfbench/run.py --workload grid-yaleb --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/run.py --workload run-usps --holdout

Human-readable lines come first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The full record
(samples, environment, failed cells with reasons, spans of a traced run) is
written to bench-out/results/. Exit status: 0 when every output check held,
1 when one did not, 2 when the program under test cannot be imported.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench-out"


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# Results are bitwise reproducible only for one seed and one BLAS thread count.
# One thread: at the benchmark's shapes two OpenBLAS threads on two cores make
# LRRSC 2.5x slower, burn twice the CPU and time whatever else the box runs.
BLAS_THREADS = 1


def _pin_blas_threads() -> None:
    """Fix the BLAS thread count; takes effect only before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _parse(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload data seed (default 0)")
    parser.add_argument("--holdout", action="store_true",
                        help="use the held-out seed instead of --seed")
    parser.add_argument("--seconds", type=float, default=40.0, help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def _run_all(args, names) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--seed", str(args.seed)]
        if args.holdout:
            argv.append("--holdout")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    spec = _spec()
    names = tuple(w["name"] for w in spec["workloads"])
    args = _parse(argv, names)
    if args.workload == "all":
        return _run_all(args, names)
    _pin_blas_threads()
    if not (ROOT / "src" / "subclust").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'subclust'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    seed = bench.HOLDOUT_SEED if args.holdout else args.seed
    workload = bench.WORKLOADS[args.workload]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT / "tmp") as workdir:
        record = bench.measure(workload, seed, args.seconds, bool(args.trace), workdir)
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}-{time.time_ns()}"
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(record, fh)

    print(f"workload {workload.name}  seed {seed}  BLAS threads {BLAS_THREADS}  "
          f"units {len(record['unit_samples_s'])}  record {results / stem}.json")
    group = spec["per_layer" if args.trace else "end_to_end"]
    values = record["per_layer" if args.trace else "end_to_end"]
    shown = [(m["name"], m["unit"]) for m in group]
    if not args.trace:
        shown.append(("failed_cell_frac", "ratio"))
    for name, unit in shown:
        print(f"  {name:<28} {values[name]:.6g} {unit}")
    for cell, reason in record["failures"].items():
        print(f"perfbench: cell {cell} failed: {reason}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    print(json.dumps(bench.result_line(record, spec)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
