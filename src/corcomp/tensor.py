"""Dense 3-mode tensor storage and multilinear primitives.

All higher-level functionality (decompositions, the core consistency
diagnostic, compression) is built on the operations defined here:
mode-n unfolding/folding, n-mode products, and the reconstruction maps
for CP and Tucker models.

Layout contract
---------------
A :class:`DenseTensor3` with dims ``(I, J, K)`` flattens with the mode-1
index fastest, then mode-2, then mode-3::

    flat[i + I*j + I*J*k] == X[i, j, k]        (0-based)

The mode-n unfolding is the ``I_n x (product of the other dims)`` matrix
whose columns are the mode-n fibers, ordered by cycling the remaining
modes in increasing order with the earlier mode varying fastest:

* mode 1: ``M[i, j + J*k] = X[i, j, k]``
* mode 2: ``M[j, i + I*k] = X[i, j, k]``
* mode 3: ``M[k, i + I*j] = X[i, j, k]``

Both orderings are fixed so that file round-trips and fold/unfold
round-trips are bit-exact.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ShapeError, check_dims, check_int

__all__ = [
    "DenseTensor3",
    "unfold",
    "fold",
    "n_mode_product",
    "frobenius_norm",
    "superdiagonal_identity",
    "reconstruct_cp",
    "reconstruct_tucker",
]

_MODES = (1, 2, 3)


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and convert a 2-D array-like to a float64 ndarray."""
    arr = np.asarray(M, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must have positive dimensions, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class DenseTensor3:
    """Immutable dense 3-mode tensor of 64-bit floats.

    Entries are addressed as ``X[i, j, k]`` with 0-based indices.
    Constructors reject non-finite values and non-3-mode data, so every
    instance satisfies the class invariants by construction.  The
    underlying array is C-ordered in memory (``X[i, j, k]`` with k
    fastest; files and :meth:`to_flat` stay mode-1 fastest) and marked
    read-only.
    """

    __slots__ = ("_data",)

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim != 3:
            raise ShapeError(f"expected a 3-mode array, got {arr.ndim} mode(s)")
        if min(arr.shape) < 1:
            raise ShapeError(f"all dims must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor contains non-finite values")
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def from_flat(cls, values: Sequence[float], dims: tuple[int, int, int]) -> "DenseTensor3":
        """Build a tensor from mode-1-fastest flat values (see layout contract)."""
        i, j, k = check_dims(dims)
        flat = np.asarray(values, dtype=np.float64).ravel()
        if flat.size != i * j * k:
            raise ShapeError(
                f"flat value count {flat.size} does not match dims {(i, j, k)} "
                f"(expected {i * j * k})"
            )
        return cls(flat.reshape((i, j, k), order="F"))

    def to_flat(self) -> np.ndarray:
        """Flat copy of the values, mode-1 index fastest."""
        return self._data.flatten(order="F")

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the underlying ``(I, J, K)`` array."""
        return self._data

    @property
    def dims(self) -> tuple[int, int, int]:
        return self._data.shape  # type: ignore[return-value]

    def __getitem__(self, key):
        return self._data[key]

    def __array__(self, dtype=None, copy=None):
        """A writable copy when ``copy`` is true (``np.array(X)``), else the
        read-only buffer unless ``dtype`` needs a cast (``np.asarray(X)``)."""
        return np.array(self._data, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"DenseTensor3(dims={self.dims})"


def unfold(X: DenseTensor3, mode: int) -> np.ndarray:
    """Mode-n unfolding under the module's fixed column ordering.

    Columns are the mode-n fibers of ``X``; column ``c`` corresponds to
    the remaining indices in increasing mode order with the earlier mode
    varying fastest (see the layout contract in the module docstring).
    """
    return _unfold(X.data, check_int(mode, "mode", 1, 3))


def _unfold(data: np.ndarray, mode: int) -> np.ndarray:
    """:func:`unfold` of a raw ``(I, J, K)`` array."""
    moved = np.moveaxis(data, mode - 1, 0)
    return moved.reshape((data.shape[mode - 1], -1), order="F")


def fold(M, mode: int, dims: tuple[int, int, int]) -> DenseTensor3:
    """Inverse of :func:`unfold`: rebuild the tensor with the given dims."""
    mode = check_int(mode, "mode", 1, 3)
    arr = as_matrix(M, "unfolding")
    dims = check_dims(dims)
    rest = [dims[m - 1] for m in _MODES if m != mode]
    expected = (dims[mode - 1], rest[0] * rest[1])
    if arr.shape != expected:
        raise ShapeError(
            f"unfolding shape {arr.shape} does not match mode-{mode} of dims {dims} "
            f"(expected {expected})"
        )
    cube = arr.reshape((dims[mode - 1], rest[0], rest[1]), order="F")
    return DenseTensor3(np.moveaxis(cube, 0, mode - 1))


def n_mode_product(X: DenseTensor3, Z, mode: int) -> DenseTensor3:
    """Multiply every mode-n fiber of ``X`` by the matrix ``Z``.

    The result replaces the size of mode ``n`` by ``Z.shape[0]``.
    """
    mode = check_int(mode, "mode", 1, 3)
    Zm = as_matrix(Z, "Z")
    if Zm.shape[1] != X.dims[mode - 1]:
        raise ShapeError(
            f"mode-{mode} product mismatch: Z has shape {Zm.shape} but tensor "
            f"dims are {X.dims}"
        )
    return DenseTensor3(_mode_product(X.data, Zm, mode))


def _mode_product(data: np.ndarray, Z: np.ndarray, mode: int) -> np.ndarray:
    """:func:`n_mode_product` of a raw array and matrix, unchecked; the
    result is a view of the product, which is not copied."""
    return np.moveaxis(np.tensordot(Z, data, axes=(1, mode - 1)), 0, mode - 1)


def _multilinear(data: np.ndarray, mats) -> np.ndarray:
    """``data x1 mats[0] x2 mats[1] x3 mats[2]``: :func:`_mode_product` in modes 1, 2, 3,
    unchecked and with no copy in between; the result is a view, which is not copied."""
    for mode, Z in zip(_MODES, mats):
        data = _mode_product(data, Z, mode)
    return data


def frobenius_norm(X: DenseTensor3) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(X.data.ravel()))


def superdiagonal_identity(R: int) -> DenseTensor3:
    """R x R x R tensor with ones where i == j == k and zeros elsewhere."""
    R = check_int(R, "R")
    arr = np.zeros((R, R, R))
    idx = np.arange(R)
    arr[idx, idx, idx] = 1.0
    return DenseTensor3(arr)


def _check_factor_columns(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> int:
    if not (A.shape[1] == B.shape[1] == C.shape[1]):
        raise ShapeError(
            "factor matrices must share a column count, got "
            f"{A.shape[1]}, {B.shape[1]}, {C.shape[1]}"
        )
    return A.shape[1]


def _check_target(dims, target) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    dims, target = check_dims(dims), check_dims(target, "target dim")
    for mode, (t, d) in enumerate(zip(target, dims), start=1):
        if t > d:
            raise ShapeError(f"target mode-{mode} size {t} exceeds source size {d}")
    return dims, target


def reconstruct_cp(A, B, C) -> DenseTensor3:
    """Dense tensor of the CP model: the sum of R rank-one outer products.

    Computed as the superdiagonal identity multiplied in each mode by the
    corresponding factor, which keeps it bitwise identical to
    ``reconstruct_tucker(superdiagonal_identity(R), A, B, C)``.
    """
    Am, Bm, Cm = as_matrix(A, "A"), as_matrix(B, "B"), as_matrix(C, "C")
    R = _check_factor_columns(Am, Bm, Cm)
    return reconstruct_tucker(superdiagonal_identity(R), Am, Bm, Cm)


def reconstruct_tucker(G: DenseTensor3, A, B, C) -> DenseTensor3:
    """Dense tensor of the Tucker model: ``G x1 A x2 B x3 C``."""
    Am, Bm, Cm = as_matrix(A, "A"), as_matrix(B, "B"), as_matrix(C, "C")
    expected = (Am.shape[1], Bm.shape[1], Cm.shape[1])
    if G.dims != expected:
        raise ShapeError(
            f"core dims {G.dims} do not match factor column counts {expected}"
        )
    return DenseTensor3(_multilinear(G.data, (Am, Bm, Cm)))
