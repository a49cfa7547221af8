"""Summarise and compare benchmark run records.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the JSON-lines records ``run.py --record FILE`` appends.
With one file: per workload and metric, the run count, median and the
spread (distance between the first and third quartile, as a share of the
median).  With two: also the change of the median, flagged when it is
worse than the metric's ``bound`` in ``BENCHMARK.json``.  Records taken on
a different ``cpu_count`` are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def summarise(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for record in records:
        for metric, entry in record["metrics"].items():
            values.setdefault((record["workload"], metric), []).append(
                entry["value"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else float("inf")


def cpu_counts(records: list[dict]) -> set:
    return {record["env"]["cpu_count"] for record in records}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)
    base = load(args.base)
    new = load(args.new) if args.new else []
    counts = cpu_counts(base) | cpu_counts(new)
    if len(counts) > 1:
        print(f"refusing to compare runs taken on different cpu_count: "
              f"{sorted(counts)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    base_values = summarise(base)
    new_values = summarise(new)
    worse = 0
    for (workload, metric), values in sorted(base_values.items()):
        line = (f"{workload:10s} {metric:28s} n={len(values):<3d} "
                f"median={statistics.median(values):<14.4f} "
                f"spread={spread(values):.3f}")
        other = new_values.get((workload, metric))
        if other:
            before, after = statistics.median(values), statistics.median(other)
            change = (after - before) / abs(before) if before else 0.0
            line += f"  new={after:<14.4f} change={change:+.3f}"
            entry = bounds.get(metric)
            if entry is not None:
                regression = (change if entry["better"] == "lower"
                              else -change)
                if regression > entry["bound"]:
                    line += "  WORSE THAN BOUND"
                    worse += 1
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
