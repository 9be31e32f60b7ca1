"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class BoundsError(IndexError):
    """An index lies outside the tensor dimensions."""


class FormatError(ValueError):
    """A tensor file is malformed or cannot be decoded."""


class ConfigError(ValueError):
    """An experiment or CLI configuration is invalid or infeasible."""


class StepError(RuntimeError):
    """A step of an experiment grid or a rank sweep failed.

    The message names the coordinates that rerun the step in isolation;
    the original exception is chained as ``__cause__``.
    """
