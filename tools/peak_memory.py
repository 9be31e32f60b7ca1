"""Print the traced peak memory of every benchmark call for a range of seeds.

Run from anywhere in a checkout:

    python3 tools/peak_memory.py --seeds 0-2

It makes the same calls on the same inputs as ``output_digests.py`` and
prints one JSON object mapping ``<workload>/<input seed>`` to that call's
``tracemalloc`` peak in MiB: the most memory the call's own Python and
numpy allocations held at once, counted from the start of the call (the
input file is written before tracing starts).  Two checkouts' outputs
compare with ``diff``.  Exits 1 when any call exits nonzero, 2 when the
``src/`` of this checkout is missing.
"""

from __future__ import annotations

import sys
import tracemalloc
from typing import Callable

from output_digests import run_tool


def traced_peak(call: Callable) -> tuple[float, object]:
    tracemalloc.start()
    try:
        done = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / 2**20, 3), done


def main(argv: list[str] | None = None) -> int:
    return run_tool(argv, "peak_memory", __doc__, traced_peak)


if __name__ == "__main__":
    sys.exit(main())
