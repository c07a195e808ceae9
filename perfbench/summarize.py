"""Summarise benchmark results: median and spread of each metric per workload.

    python3 perfbench/summarize.py [RESULT.json ...]

Reads the result files that run.py writes (default: every file in
``perfbench/out/``).  For each workload and metric it prints the number of
runs, the median, and the spread: the distance between the first and third
quartiles, as ``statistics.quantiles(values, n=4)`` gives them, as a share of
the median.  With ``--write FILE`` it also stores that summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(paths: list[Path]) -> dict:
    grouped: dict[tuple[str, str], dict[str, list[float]]] = {}
    hosts: dict[str, dict] = {}
    for path in paths:
        result = json.loads(path.read_text())
        kind = "per_layer" if result["trace"] else "end_to_end"
        metrics = grouped.setdefault((result["workload"], kind), {})
        for name, value in result[kind].items():
            metrics.setdefault(name, []).append(value)
        hosts[result["workload"]] = result["host"]
    summary: dict = {}
    for (workload, kind), metrics in sorted(grouped.items()):
        entry = summary.setdefault(workload, {"host": hosts[workload]})
        entry[kind] = {
            name: {"runs": len(values), "median": statistics.median(values),
                   "spread": spread(values)}
            for name, values in metrics.items()
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="*", type=Path)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)
    paths = args.results or sorted(OUT.glob("*.json"))
    if not paths:
        print("no result files", file=sys.stderr)
        return 2
    summary = summarize(paths)
    for workload, entry in summary.items():
        for kind in ("end_to_end", "per_layer"):
            for name, stats in entry.get(kind, {}).items():
                print(f"{workload:13s} {name:28s} runs={stats['runs']:2d}"
                      f" median={stats['median']:.6g} spread={stats['spread']:.4f}")
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
