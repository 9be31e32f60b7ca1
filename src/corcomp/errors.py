"""Exception types shared across the package and the one rule for each kind
of setting: :func:`check_int` for a count, seed, index, mode or dim (an integer
in range, never truncated), :func:`check_dims` for a dims triple and
:func:`check_real` for a ratio, tolerance or noise level."""

import math
import numbers

__all__ = ["ShapeError", "FormatError", "ConfigError", "StepError"]


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class FormatError(ValueError):
    """A tensor file is malformed or cannot be decoded."""


class ConfigError(ValueError):
    """An experiment or CLI configuration is invalid or infeasible."""


class StepError(RuntimeError):
    """A step of an experiment grid or a rank sweep failed.

    The message names the coordinates that rerun the step in isolation;
    the original exception is chained as ``__cause__``.
    """


def check_int(value, name: str, lo: int = 1, hi: int | None = None) -> int:
    """``value`` as an int; :class:`ConfigError` unless a non-bool Integral in [lo, hi]."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def check_dims(dims, name: str = "dim") -> tuple[int, int, int]:
    """``dims`` as a triple of ints; :class:`ShapeError` unless it has three
    entries, and each entry must pass :func:`check_int` as ``name``."""
    if len(dims) != 3:
        raise ShapeError(f"{name}s must be a triple, got {dims!r}")
    return tuple(check_int(d, name) for d in dims)  # type: ignore[return-value]


def check_real(value, name: str) -> float:
    """``value`` as a float; :class:`ConfigError` unless a finite, non-bool Real."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        finite = False
    if not finite or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    return float(value)
