"""Benchmark of the corcomp CLI: Monte Carlo grids and the rank sweep.

Run from the repository root:

    python3 perfbench/run.py --workload grid-ref --seed 0 --seconds 30 --trace 0

It builds nothing: it imports ``corcomp`` from ``src/`` next to this
directory and exits with code 2, printing no result, when that source is
missing.  BLAS and OpenMP are pinned to one thread before numpy is
imported, and ``CORCOMP_WORKERS`` is removed so only ``--workers`` picks
the thread count.

Output: a table of every metric with its unit, a ``report`` JSON line
(environment, per-input timings and digests, failed checks), and last a
JSON line ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "corcomp" / "__init__.py").is_file():
        print(f"perfbench: no corcomp source under {src}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.pop("CORCOMP_WORKERS", None)
    sys.path.insert(0, str(src))

    import corcomp

    if Path(corcomp.__file__).resolve().parent != (src / "corcomp").resolve():
        print(f"perfbench: imported corcomp from {corcomp.__file__}, not {src}", file=sys.stderr)
        return 2

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    result, report = bench.run(
        bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT
    )
    units = metric_units()
    rows = {**report["end_to_end"], **report.get("per_layer", {})}
    for name, value in rows.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    print("report " + json.dumps(report))
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
