"""Deterministic seed derivation.

Every random draw in the package flows from a user-supplied 64-bit seed
through :func:`mix_seed`, so any unit of work (a restart, a Monte Carlo
sample, a sweep entry) can be recomputed in isolation and results are
independent of execution order.
"""

from __future__ import annotations

from .errors import check_int

_MASK64 = (1 << 64) - 1


def mix_seed(*components: int) -> int:
    """Hash integer components into a single 64-bit seed.

    Chains one splitmix64 finalization step per component:

        h := 0x9E3779B97F4A7C15
        for c in components:
            h := (h XOR c) * 0xBF58476D1CE4E5B9   (mod 2^64)
            h := (h XOR h>>30) * 0x94D049BB133111EB (mod 2^64)
            h := h XOR h>>31

    The function is stable across platforms and releases; it is part of
    the reproducibility contract for experiment runs.
    """
    h = 0x9E3779B97F4A7C15
    for c in components:
        h = ((h ^ (int(c) & _MASK64)) * 0xBF58476D1CE4E5B9) & _MASK64
        h = ((h ^ (h >> 30)) * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def check_seed(seed: int, name: str = "seed") -> int:
    """``seed`` as an int in [0, 2^64), where :func:`mix_seed` keeps distinct seeds apart."""
    return check_int(seed, name, 0, _MASK64)
