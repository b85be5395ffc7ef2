"""Compare two sets of benchmark results, per workload and end-to-end metric.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of untraced result records (bench-out/results/
after runs of one commit) or a list of such files separated by commas. For
every workload and every end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles and a verdict:

- improved: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's quartile
  spread;
- no worse than the bound: the change's median is not worse than the
  parent's by more than the metric's bound;
- worse: it is, or every run of the change reads worse than every run of
  the parent;
- unresolved: the run-to-run spread of either side is wider than the bound,
  and not every run of the change reads better than every run of the parent.

Runs pair by seed when both sides ran the same seeds, else in order. It also
reports, per seed run on both sides, whether the outputs were byte-identical.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(where: str) -> dict[str, list[dict]]:
    """Untraced records by workload, in seed order."""
    path = Path(where)
    files = sorted(path.glob("*.json")) if path.is_dir() else [Path(p) for p in where.split(",")]
    by_workload: dict[str, list[dict]] = {}
    for file in files:
        record = json.loads(file.read_text())
        if not record["trace"]:
            by_workload.setdefault(record["workload"], []).append(record)
    for records in by_workload.values():
        records.sort(key=lambda r: r["seed"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> dict:
    """Apply the comparison rule to one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)

    def beats(x, y):
        return sign * (x - y) > 0

    wins = sum(1 for p, c in pairs if beats(c, p))
    all_better = all(beats(c, p) for c in change for p in parent)
    all_worse = all(beats(p, c) for c in change for p in parent)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    rel = (cm - pm) / abs(pm) if pm else 0.0
    worse_by = -sign * rel
    if pairs and wins >= 0.9 * len(pairs) and beats(cm, pm) and abs(cm - pm) > p3 - p1:
        result = "improved"
    elif all_worse:
        result = "worse"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "no worse than the bound"
    return {
        "parent": (pm, p1, p3, len(parent)),
        "change": (cm, c1, c3, len(change)),
        "wins": (wins, len(pairs)),
        "spread": spread,
        "relative_change": rel,
        "verdict": result,
    }


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]], spec: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in parent or workload not in change:
            continue
        pairs = list(zip(parent[workload], change[workload]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [r["end_to_end"][name] for r in parent[workload]],
                [r["end_to_end"][name] for r in change[workload]],
                [(p["end_to_end"][name], c["end_to_end"][name]) for p, c in pairs],
                metric["better"],
                metric["bound"],
            )
            row.update(workload=workload, metric=name, unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
        same = [p["digest"] == c["digest"] for p, c in pairs if p["seed"] == c["seed"]]
        rows.append({"workload": workload, "outputs_identical": (sum(same), len(same))})
    return rows


def _fmt(stats) -> str:
    median, q1, q3, n = stats
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={n}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_records(args[0]), load_records(args[1]), spec)
    if not rows:
        print("compare: no workload has untraced results on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<11} {'metric':<13} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'change':>7} {'wins':>6}  verdict (bound)")
    for row in rows:
        if "outputs_identical" in row:
            same, total = row["outputs_identical"]
            print(f"{row['workload']:<11} outputs byte-identical on {same} of {total} shared seeds")
            continue
        wins, pairs = row["wins"]
        print(f"{row['workload']:<11} {row['metric']:<13} {_fmt(row['parent']):<32} "
              f"{_fmt(row['change']):<32} {100 * row['relative_change']:>+6.1f}% {wins:>3}/{pairs:<2}  "
              f"{row['verdict']} ({row['bound']:.0%}, spread {row['spread']:.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
