"""Tensor file formats, synthetic tensor generation, and result
serialization.

Three on-disk tensor formats are supported, auto-detected on read by
magic bytes and extension:

* binary (``.tns``/``.bin``): magic ``TNS3``, a version byte (1), three
  little-endian u32 dims, then ``8*I*J*K`` bytes of little-endian f64
  values with the mode-1 index fastest.  Write/read round-trips are
  bitwise exact.
* text (``.txt``, default for unknown extensions): a header line
  ``I J K``, then one value per line in the same flat order.
* CSV triplets (``.csv``): lines ``i,j,k,value`` with 1-based indices,
  unlisted entries zero.  Dims come from a ``# dims: I J K`` comment
  line, else from the ``dims`` argument, which must match any file's dims;
  a second dims line is an error.

All writes go through a temporary file in the target directory followed
by an atomic rename.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .decomp import check_cp_rank
from .errors import ConfigError, FormatError, check_int, check_real
from .harness import ExperimentResult, SummaryStats
from .seeding import check_seed
from .tensor import DenseTensor3, frobenius_norm, reconstruct_cp

__all__ = [
    "read_tensor",
    "write_tensor",
    "SynthSpec",
    "synth_tensor",
    "experiment_to_json",
    "stats_csv_lines",
]

MAGIC = b"TNS3"
BINARY_VERSION = 1
_HEADER = struct.Struct("<4sBIII")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic low-rank tensor with optional noise.

    The tensor is a rank-``rank`` CP reconstruction from random factors
    plus Gaussian noise scaled so the noise-to-signal Frobenius ratio is
    exactly ``noise_level``.
    """

    dims: tuple[int, int, int]
    rank: int
    noise_level: float = 0.0
    factor_distribution: str = "uniform"
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.dims) != 3:
            raise ConfigError(f"dims must be three positive integers, got {self.dims}")
        dims = tuple(check_int(d, "dim") for d in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "rank", check_cp_rank(self.rank, dims))
        noise = check_real(self.noise_level, "noise_level")
        if noise < 0:
            raise ConfigError(f"noise_level must be >= 0, got {noise}")
        object.__setattr__(self, "noise_level", noise)
        if self.factor_distribution not in ("uniform", "gaussian"):
            raise ConfigError(
                f"factor_distribution must be 'uniform' or 'gaussian', "
                f"got {self.factor_distribution!r}"
            )
        object.__setattr__(self, "seed", check_seed(self.seed))


def synth_tensor(spec: SynthSpec) -> DenseTensor3:
    """Generate the tensor described by ``spec``, deterministically in
    ``spec.seed`` (factors A, B, C are drawn first, then the noise)."""
    rng = np.random.default_rng(spec.seed)
    if spec.factor_distribution == "uniform":
        draw = rng.random
    else:
        draw = rng.standard_normal
    A, B, C = (draw((d, spec.rank)) for d in spec.dims)
    clean = reconstruct_cp(A, B, C)
    if spec.noise_level == 0.0:
        return clean
    signal = frobenius_norm(clean)
    if signal == 0.0:
        raise ValueError("degenerate draw: the noiseless tensor is zero")
    noise = rng.standard_normal(spec.dims)
    noise *= spec.noise_level * signal / np.linalg.norm(noise.ravel())
    return DenseTensor3(clean.data + noise)


# ---------------------------------------------------------------------------
# tensor files


def _atomic_write(path: Path, payload: bytes) -> None:
    # Mode 0o666 leaves the permissions to the umask, as open() does (not mkstemp).
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor(X: DenseTensor3, path: str | Path) -> None:
    """Write a tensor in the format its file extension names (``.csv``
    triplets, ``.txt`` text, anything else binary)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".txt":
        lines = ["%d %d %d" % X.dims]
        lines.extend(repr(float(v)) for v in X.to_flat())
        payload = ("\n".join(lines) + "\n").encode()
    elif suffix == ".csv":
        lines = ["# dims: %d %d %d" % X.dims]
        # The transpose's nonzeros come out with the mode-1 index fastest.
        nonzero = np.nonzero(X.data.T)
        for k, j, i, v in zip(*nonzero, X.data.T[nonzero].tolist()):
            lines.append(f"{i + 1},{j + 1},{k + 1},{v!r}")
        payload = ("\n".join(lines) + "\n").encode()
    else:
        header = _HEADER.pack(MAGIC, BINARY_VERSION, *X.dims)
        payload = header + X.to_flat().astype("<f8").tobytes()
    _atomic_write(path, payload)


def read_tensor(path: str | Path, dims: tuple[int, int, int] | None = None) -> DenseTensor3:
    """Read a tensor file (format auto-detected; see module docstring).

    ``dims`` gives the dims of a CSV file without a ``# dims:`` line; a
    file that states its dims must state the same ones.
    """
    path = Path(path)
    dims = None if dims is None else tuple(check_int(d, "dim") for d in dims)  # type: ignore
    raw = path.read_bytes()
    if raw[:4] == MAGIC:
        X = _read_binary(raw, path)
    elif path.suffix.lower() in (".tns", ".bin"):
        raise FormatError(f"{path}: bad magic bytes {raw[:4]!r} (expected {MAGIC!r})")
    elif path.suffix.lower() == ".csv":
        X = _read_csv(raw.decode(), path, dims)
    else:
        X = _read_text(raw.decode(), path)
    if dims is not None and dims != X.dims:
        raise FormatError(
            f"{path}: dims argument {dims} differs from the file's dims {X.dims}"
        )
    return X


def _read_binary(raw: bytes, path: Path) -> DenseTensor3:
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: header truncated ({len(raw)} bytes)")
    magic, version, i, j, k = _HEADER.unpack_from(raw)
    if version != BINARY_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if min(i, j, k) < 1:
        raise FormatError(f"{path}: dims must be positive, got {(i, j, k)}")
    expected = 8 * i * j * k
    actual = len(raw) - _HEADER.size
    if actual != expected:
        raise FormatError(
            f"{path}: payload length mismatch, expected {expected} bytes, "
            f"found {actual}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: payload contains non-finite values")
    return DenseTensor3.from_flat(values, (i, j, k))


def _read_text(text: str, path: Path) -> DenseTensor3:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError(f"{path}: empty tensor file")
    head = lines[0].split()
    if len(head) != 3:
        raise FormatError(f"{path}: expected header 'I J K', got {lines[0]!r}")
    try:
        i, j, k = (int(h) for h in head)
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer dims in header {lines[0]!r}") from exc
    if min(i, j, k) < 1:
        raise FormatError(f"{path}: dims must be positive, got {(i, j, k)}")
    body = lines[1:]
    if len(body) != i * j * k:
        raise FormatError(
            f"{path}: expected {i * j * k} values for dims {(i, j, k)}, found {len(body)}"
        )
    try:
        values = np.array([float(v) for v in body])
    except ValueError as exc:
        raise FormatError(f"{path}: unparsable value: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: file contains non-finite values")
    return DenseTensor3.from_flat(values, (i, j, k))


def _read_csv(
    text: str, path: Path, dims: tuple[int, int, int] | None
) -> DenseTensor3:
    header_dims: tuple[int, int, int] | None = None
    dims_line = 0
    entries: list[tuple[int, int, int, float, int]] = []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            stripped = ln.lstrip("#").strip()
            if stripped.lower().startswith("dims:"):
                if dims_line:
                    raise FormatError(f"{path}:{lineno}: dims line repeats line {dims_line}")
                dims_line = lineno
                parts = stripped[5:].split()
                try:
                    if len(parts) != 3:
                        raise ValueError
                    header_dims = tuple(int(p) for p in parts)  # type: ignore[assignment]
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: malformed dims comment {ln!r}") from None
            continue
        parts = ln.split(",")
        if len(parts) != 4:
            raise FormatError(
                f"{path}:{lineno}: expected 'i,j,k,value', got {ln!r}"
            )
        try:
            i, j, k = (int(p) for p in parts[:3])
            v = float(parts[3])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: unparsable triplet {ln!r}") from exc
        if not np.isfinite(v):
            raise FormatError(f"{path}:{lineno}: non-finite value {parts[3]!r}")
        entries.append((i, j, k, v, lineno))
    use_dims = header_dims if header_dims is not None else dims
    if use_dims is None:
        raise FormatError(
            f"{path}: CSV input needs dims via a '# dims: I J K' line or the dims argument"
        )
    if len(use_dims) != 3 or min(use_dims) < 1:
        raise FormatError(f"{path}: dims must be three positive integers, got {use_dims}")
    arr = np.zeros(use_dims)
    first_line: dict[tuple[int, int, int], int] = {}
    for i, j, k, v, lineno in entries:
        if not (1 <= i <= use_dims[0] and 1 <= j <= use_dims[1] and 1 <= k <= use_dims[2]):
            raise FormatError(
                f"{path}:{lineno}: index ({i},{j},{k}) out of range for dims {use_dims} "
                f"(indices are 1-based)"
            )
        first = first_line.setdefault((i, j, k), lineno)
        if first != lineno:
            raise FormatError(f"{path}:{lineno}: index ({i},{j},{k}) repeats line {first}")
        arr[i - 1, j - 1, k - 1] = v
    return DenseTensor3(arr)


# ---------------------------------------------------------------------------
# experiment results


def experiment_to_json(result: ExperimentResult) -> str:
    """Deterministic JSON rendering of an experiment result.

    Raw per-sample values are always included so plots and alternative
    summaries never require refitting.
    """
    # Scheme is a str enum, so its members serialize as their values.
    config = asdict(result.config)
    doc = {
        "config": {**config, "compressed_modes": sorted(config["compressed_modes"])},
        "baseline": {
            "rank": result.baseline.rank,
            "value": result.baseline.value,
            "core_flat": [float(v) for v in result.baseline.core.to_flat()],
            "factor_rank_deficient": result.baseline.factor_rank_deficient,
        },
        "cells": [asdict(cell) for cell in result.cells.values()],
    }
    return json.dumps(doc, indent=2) + "\n"


def stats_csv_lines(result: ExperimentResult) -> list[str]:
    """Per-cell boxplot statistics as CSV rows, one column per
    :class:`SummaryStats` field (floats in repr form, so they round-trip
    exactly)."""
    lines = [",".join(["scheme", "ratio"] + [f.name for f in fields(SummaryStats)])]
    for cell in result.cells.values():
        stats = [repr(v) for v in asdict(cell.stats).values()]
        lines.append(",".join([cell.scheme.value, repr(cell.ratio)] + stats))
    return lines
