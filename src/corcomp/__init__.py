"""corcomp: core consistency diagnostics for dense 3-mode tensors under
randomized compression.  The package re-exports each module's ``__all__``."""

__version__ = "0.1.0"

from . import errors as _errors, tensor as _tensor, decomp as _decomp
from . import corcondia as _corcondia, compress as _compress, harness as _harness, io as _io
from .errors import *
from .tensor import *
from .decomp import *
from .corcondia import *
from .compress import *
from .harness import *
from .io import *

_MODULES = (_errors, _tensor, _decomp, _corcondia, _compress, _harness, _io)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
