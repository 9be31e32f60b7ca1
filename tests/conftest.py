"""Setup that runs before any test module is imported.

BLAS reads its thread count once, when numpy is first imported, so the
count is set here.  One thread keeps the suite's timings stable on a
shared machine: with the default count, a BLAS call can take many times
longer while other processes hold the cores.  A value already set in the
environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
