"""Exception types shared across the package, and :func:`check_int`, the one rule
for a count, seed, index, mode or dim: an integer in range, never truncated."""

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
