"""Randomized modewise tensor compression.

A compression operator is a triple of matrices (U: LxI, V: MxJ, W: NxK)
applied as n-mode products, giving the compressed tensor
``X' = X x1 U x2 V x3 W`` of dims (L, M, N).  Three constructions are
provided:

* ``gaussian``: i.i.d. standard normal entries (rows not orthonormal),
* ``orthonormal``: the ``gaussian`` operator of the same seed with its
  rows orthonormalized (reduced QR), so both span the same rowspaces,
* ``tucker``: transposes of fitted Tucker factors, so the compressed
  tensor equals the fitted Tucker core.

For any operator with orthonormal rows, ``project_onto_rowspaces``
computes ``X x1 U'U x2 V'V x3 W'W``, the projection of X onto the three
rowspaces; compression is lossless for the core consistency diagnostic
exactly when this projection leaves X unchanged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .decomp import FitConfig, tucker3
from .errors import ConfigError, ShapeError, check_dims, check_int, check_real
from .seeding import check_seed
from .tensor import DenseTensor3, _check_target, _multilinear, as_matrix

__all__ = [
    "Scheme",
    "CompressionOperator",
    "RatioSpec",
    "ratio_to_dims",
    "gaussian_operator",
    "orthonormal_operator",
    "tucker_operator",
    "compress",
    "project_onto_rowspaces",
]

_ORTHO_TOL = 1e-10

# Modes a ratio compresses unless told otherwise; mode 3 is typically too
# small to be worth reducing.
DEFAULT_MODES = (1, 2)


class Scheme(str, enum.Enum):
    """Compression operator construction (the string value appears in
    CLI flags and serialized results)."""

    GAUSSIAN = "gaussian"
    ORTHONORMAL = "orthonormal"
    TUCKER = "tucker"

    @property
    def wire_id(self) -> int:
        """Stable integer id used in seed derivation."""
        return {Scheme.GAUSSIAN: 0, Scheme.ORTHONORMAL: 1, Scheme.TUCKER: 2}[self]


@dataclass(frozen=True)
class CompressionOperator:
    """Modewise compression matrices, one per mode, none expanding its
    mode.  Orthonormal and Tucker operators have orthonormal rows,
    Gaussian ones do not; only :func:`project_onto_rowspaces` needs them.
    """

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray

    def __post_init__(self) -> None:
        for name, M in zip("UVW", (self.U, self.V, self.W)):
            arr = as_matrix(M, name)
            if arr.shape[0] > arr.shape[1]:
                raise ShapeError(
                    f"{name} must not expand its mode, got shape {arr.shape}"
                )
            object.__setattr__(self, name, arr)

    @property
    def source_dims(self) -> tuple[int, int, int]:
        return (self.U.shape[1], self.V.shape[1], self.W.shape[1])

    @property
    def target_dims(self) -> tuple[int, int, int]:
        return (self.U.shape[0], self.V.shape[0], self.W.shape[0])


@dataclass(frozen=True)
class RatioSpec:
    """Compression ratio and the set of modes it applies to.

    The ratio is the fraction each listed mode is reduced to, e.g. 0.5
    halves a mode.  By default only modes 1 and 2 are compressed
    (``DEFAULT_MODES``).
    """

    ratio: float
    compressed_modes: frozenset[int] = field(default_factory=lambda: frozenset(DEFAULT_MODES))

    def __post_init__(self) -> None:
        ratio = check_real(self.ratio, "ratio")
        if not 0.0 < ratio <= 1.0:
            raise ConfigError(f"ratio must lie in (0, 1], got {ratio}")
        object.__setattr__(self, "ratio", ratio)
        modes = frozenset(check_int(m, "compressed mode", 1, 3) for m in self.compressed_modes)
        if not modes:
            raise ConfigError("compressed modes must be nonempty")
        object.__setattr__(self, "compressed_modes", modes)


def ratio_to_dims(dims: tuple[int, int, int], spec: RatioSpec) -> tuple[int, int, int]:
    """Target dims for a ratio: floor(ratio * dim), clamped to >= 1, on
    each compressed mode; other modes are unchanged.  The product is
    rounded to 9 decimals before the floor, so 0.29 of 100 is 29 and not
    the 28 that ``0.29 * 100 == 28.999999999999996`` would give."""
    return tuple(  # type: ignore[return-value]
        max(1, math.floor(round(spec.ratio * d, 9))) if mode in spec.compressed_modes else d
        for mode, d in enumerate(check_dims(dims), start=1)
    )


def gaussian_operator(
    dims: tuple[int, int, int], target: tuple[int, int, int], seed: int
) -> CompressionOperator:
    """Operator with i.i.d. standard normal entries.

    U, V, W are drawn in that order from a single ``default_rng(seed)``
    stream, so identical arguments reproduce the operator bitwise.
    Entries are used as drawn, with no variance normalization; the core
    consistency of an exactly trilinear tensor is insensitive to the
    resulting global scale.  A seed outside [0, 2^64) or not an integer
    is a :class:`ConfigError`.
    """
    dims, target = _check_target(dims, target)
    rng = np.random.default_rng(check_seed(seed))
    U, V, W = (rng.standard_normal((t, d)) for t, d in zip(target, dims))
    return CompressionOperator(U=U, V=V, W=W)


def orthonormal_operator(
    dims: tuple[int, int, int], target: tuple[int, int, int], seed: int
) -> CompressionOperator:
    """Operator with orthonormal rows spanning a random subspace.

    Each factor is the transpose of the Q from the reduced QR of the
    transpose of the same mode's matrix G of
    ``gaussian_operator(dims, target, seed)``, so an orthonormal sample
    spans exactly the rowspaces of the Gaussian sample of the same seed.
    """
    gauss = gaussian_operator(dims, target, seed)
    U, V, W = (np.linalg.qr(G.T)[0].T for G in (gauss.U, gauss.V, gauss.W))
    return CompressionOperator(U=U, V=V, W=W)


def tucker_operator(
    X: DenseTensor3, target: tuple[int, int, int], cfg: FitConfig = FitConfig()
) -> CompressionOperator:
    """Operator from the transposed factors of a Tucker fit of X.

    Compressing X with the returned operator yields exactly the fitted
    core (same arithmetic, applied mode 1 then 2 then 3).
    """
    model = tucker3(X, target, cfg)
    return CompressionOperator(U=model.A.T, V=model.B.T, W=model.C.T)


def _check_source(X: DenseTensor3, op: CompressionOperator) -> None:
    if op.source_dims != X.dims:
        raise ShapeError(
            f"operator source dims {op.source_dims} do not match tensor dims {X.dims}"
        )


def compress(X: DenseTensor3, op: CompressionOperator) -> DenseTensor3:
    """Apply the operator: ``X x1 U x2 V x3 W``, one multilinear product
    (modes in order 1, 2, 3) and one tensor for the result."""
    _check_source(X, op)
    return DenseTensor3(_multilinear(X.data, (op.U, op.V, op.W)))


def project_onto_rowspaces(X: DenseTensor3, op: CompressionOperator) -> DenseTensor3:
    """Project X onto the operator rowspaces: ``X x1 U'U x2 V'V x3 W'W``,
    the same multilinear product as :func:`compress` with each mode's
    projector ``M'M`` in place of ``M``.

    Only orthonormal rows make it the orthogonal projector in each mode,
    so a matrix whose ``M M'`` is off the identity by more than
    ``_ORTHO_TOL`` (a Gaussian draw, say) is a ``ValueError`` naming it.
    The projection is idempotent and never increases the Frobenius norm;
    the compressed tensor preserves the core consistency of an exactly
    trilinear X whenever the projection equals X itself.
    """
    _check_source(X, op)
    for name, M in zip("UVW", (op.U, op.V, op.W)):
        if np.max(np.abs(M @ M.T - np.eye(M.shape[0]))) > _ORTHO_TOL:
            raise ValueError(f"projection requires orthonormal rows; {name} does not have them")
    return DenseTensor3(_multilinear(X.data, [M.T @ M for M in (op.U, op.V, op.W)]))
