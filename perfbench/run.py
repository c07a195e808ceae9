"""Run one workload of the minfilt benchmark and print its metrics.

    python3 perfbench/run.py --workload stream_m11 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout, never from an installed copy.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` records spans around each call into minfilt
and reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, spans included,
is written to ``perfbench/out/``.  Exit code 0 means a result was printed,
its ``correct`` field telling whether every output passed the gate; 1 means
a check inside the benchmark failed; 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream_m11", "retap_wide", "verify_exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minfilt" / "__init__.py").is_file():
        print(f"error: no minfilt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    host = result["host"]
    print(f"workload {result['workload']} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace} units {result['units']}"
          f" latency_samples {result['latency_samples']}")
    print(f"host nproc={host['nproc']} cpu={host['cpu_model']!r} python={host['python']}"
          f" numpy={host['numpy']} probe_ms start={result['probe_ms']['start']:.3f}"
          f" end={result['probe_ms']['end']:.3f}")
    for name, value in result["end_to_end"].items():
        print(f"{name} = {value:.6g} {bench.E2E_UNITS[name]}")
    print(f"error_rate = {result['error_rate']:.6g}"
          f" ({result['outputs_failed']} of {result['outputs_checked']} outputs)")
    print(f"speedup_vs_naive base: naive_fir median {result['naive_fir_base_ms']:.4g} ms;"
          f" np.correlate median {result['np_correlate_base_ms']:.4g} ms")
    for name, value in result["per_layer"].items():
        print(f"{name} = {value:.6g} {bench.LAYER_UNITS[name]}")
    print(f"full result: {out_file.relative_to(HERE.parent)}")

    if args.trace:
        chosen, units = result["per_layer"], bench.LAYER_UNITS
    else:
        chosen, units = result["end_to_end"], bench.E2E_UNITS
    metrics = {name: {"value": value, "unit": units[name]} for name, value in chosen.items()}
    print(json.dumps({
        "correct": result["outputs_failed"] == 0,
        "attempted": result["outputs_checked"],
        "failed": result["outputs_failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
