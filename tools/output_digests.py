"""Print the output digest of every benchmark call for a range of seeds.

Run from anywhere in a checkout:

    python3 tools/output_digests.py --seeds 0-9

For each seed and each workload of ``perfbench/bench.py`` it writes the
seed's input tensors and makes one CLI call per tensor, as the first pass
of a benchmark run does.  It prints one JSON object mapping
``<workload>/<input seed>`` to that call's output digest, so the outputs
of two checkouts compare with ``diff``.  BLAS and OpenMP are pinned to one
thread before numpy is imported, and ``corcomp`` is imported from the
``src/`` of the checkout holding this file.  Exits 1 when any call exits
nonzero, 2 when that source is missing.  ``peak_memory.py`` makes the same
calls through :func:`run_tool`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> range:
    """The seeds ``A`` to ``B`` of ``A-B``, both included."""
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return range(lo, hi + 1)


def run_tool(argv: list[str] | None, tool: str, doc: str,
             measure: Callable[[Callable], tuple[object, object]]) -> int:
    """The command line of a tool that maps every benchmark call of
    ``--seeds`` to a value: ``measure(call)`` makes the call (``call()``
    returns the ``bench.Call``) and returns the value and that ``Call``.
    Prints the JSON object, then each failed call on stderr, and returns
    the exit code."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="A-B",
                        help="inclusive range of benchmark seeds")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "corcomp" / "__init__.py").is_file():
        print(f"{tool}: no corcomp source under {src}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]

    import corcomp

    if Path(corcomp.__file__).resolve().parent != (src / "corcomp").resolve():
        print(f"{tool}: imported corcomp from {corcomp.__file__}, not {src}", file=sys.stderr)
        return 2

    import bench

    values: dict[str, object] = {}
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for name, workload in bench.WORKLOADS.items():
                workdir = Path(tmp) / f"{name}-{seed}"
                outdir = workdir / "out"
                outdir.mkdir(parents=True)
                for input_seed, path in bench.write_inputs(workload, seed, workdir):
                    key = f"{name}/{input_seed}"
                    values[key], call = measure(
                        partial(bench.run_call, workload.job, path, input_seed, outdir))
                    if call.rc != 0:
                        failures.append(f"{key}: exit code {call.rc}: {call.stderr.strip()}")
    print(json.dumps(values, indent=2))
    for failure in failures:
        print(f"{tool}: {failure}", file=sys.stderr)
    return 1 if failures else 0


def digest(call: Callable) -> tuple[str, object]:
    done = call()
    return done.digest, done


def main(argv: list[str] | None = None) -> int:
    return run_tool(argv, "output_digests", __doc__, digest)


if __name__ == "__main__":
    sys.exit(main())
