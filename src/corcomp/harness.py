"""Monte Carlo protocol for core consistency under compression.

For every (scheme, ratio) cell of a grid, the harness draws independent
compression operators, compresses the input tensor, fits a CP model at a
fixed component count, and records the core consistency value of each
sample.  Negative values are clamped to zero before any statistics are
computed, and each cell is summarized with Tukey boxplot statistics plus
a mean taken after winsorizing outliers to the whisker values.

Reproducibility: the operator for sample ``s`` of cell ``(scheme,
ratio)`` is seeded by ``mix_seed(master_seed, scheme.wire_id,
round(ratio * 10000), s)`` and the CP fit of that sample by
``mix_seed(sample_seed, FIT_TAG)``, so any cell or sample can be
recomputed in isolation: :func:`run_sample` (``corcomp sample``) reruns
one sample bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .corcondia import CorcondiaReport, corcondia
from .compress import (
    DEFAULT_MODES,
    CompressionOperator,
    RatioSpec,
    Scheme,
    compress,
    gaussian_operator,
    orthonormal_operator,
    ratio_to_dims,
    tucker_operator,
)
from .decomp import CpModel, FitConfig, cp_als, cp_als_batch, max_feasible_cp_rank
from .errors import ConfigError, StepError
from .seeding import check_seed, mix_seed
from .tensor import DenseTensor3

__all__ = [
    "ExperimentConfig",
    "SummaryStats",
    "CellResult",
    "ExperimentResult",
    "clamp_negatives",
    "summarize",
    "make_operator",
    "run_experiment",
    "run_sample",
]

# Tags mixed with the master seed for work items that are not cell samples.
BASELINE_TAG = 3
FIT_TAG = 4

# Bytes of compressed samples fitted per cp_als_batch call (at least one
# sample).  Batch members never interact, so this changes no result; it
# keeps a cell's memory from growing with its sample count.
BATCH_BYTES = 1 << 20

DEFAULT_RATIOS = (0.5, 0.4, 0.3, 0.2, 0.1, 0.08, 0.04)
DEFAULT_SAMPLES = {Scheme.GAUSSIAN: 1000, Scheme.ORTHONORMAL: 1000, Scheme.TUCKER: 10}


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition and sampling budget for one experiment run.

    Defaults mirror the reference protocol: ratios from 50% down to 4%
    over modes 1 and 2, 1000 samples for the random schemes and 10 for
    the Tucker scheme, three CP components.
    """

    rank: int = 3
    schemes: tuple[Scheme, ...] = (Scheme.GAUSSIAN, Scheme.ORTHONORMAL, Scheme.TUCKER)
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    samples_per_cell: Mapping[Scheme, int] = field(default_factory=lambda: dict(DEFAULT_SAMPLES))
    compressed_modes: frozenset[int] = field(default_factory=lambda: frozenset(DEFAULT_MODES))
    master_seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        check_seed(self.master_seed, "master_seed")
        schemes = tuple(Scheme(s) for s in self.schemes)
        if not schemes:
            raise ConfigError("schemes must be nonempty")
        for scheme in schemes:
            if schemes.count(scheme) > 1:
                raise ConfigError(f"scheme {scheme.value} is listed twice")
        ratios = tuple(float(r) for r in self.ratios)
        if not ratios:
            raise ConfigError("ratios must be nonempty")
        seen: dict[int, float] = {}
        for r in ratios:
            RatioSpec(r, self.compressed_modes)  # validates range and modes
            bp = _basis_points(r)
            if seen.get(bp) == r:
                raise ConfigError(f"ratio {r} is listed twice")
            if bp in seen:
                raise ConfigError(
                    f"ratios {seen[bp]} and {r} round to the same basis point, so "
                    "their samples would draw identical operators"
                )
            seen[bp] = r
        samples = {Scheme(k): int(v) for k, v in self.samples_per_cell.items()}
        for s in schemes:
            if samples.get(s, 0) < 1:
                raise ConfigError(f"samples_per_cell[{s.value}] must be >= 1")
        object.__setattr__(self, "schemes", schemes)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "samples_per_cell", samples)
        object.__setattr__(self, "compressed_modes", frozenset(int(m) for m in self.compressed_modes))


@dataclass(frozen=True)
class SummaryStats:
    """Tukey boxplot statistics of one sample vector.

    Quartiles use linear interpolation between order statistics;
    whiskers sit at the most extreme samples within 1.5 IQR of the
    quartiles; ``outliers`` are the samples beyond the whiskers; and
    ``smoothed_mean`` is the mean after winsorizing outliers to the
    nearest whisker value.
    """

    n: int
    min: float
    q1: float
    median: float
    q3: float
    max: float
    lower_whisker: float
    upper_whisker: float
    outliers: tuple[float, ...]
    smoothed_mean: float


@dataclass(frozen=True)
class CellResult:
    """Samples and statistics for one (scheme, ratio) cell.

    ``clamped_samples[i] == max(raw_samples[i], 0)``; the statistics are
    computed from the clamped samples.
    """

    scheme: Scheme
    ratio: float
    raw_samples: tuple[float, ...]
    clamped_samples: tuple[float, ...]
    stats: SummaryStats


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    cells: dict[tuple[Scheme, float], CellResult]
    baseline: CorcondiaReport


def clamp_negatives(samples: Sequence[float]) -> list[float]:
    """Elementwise max(sample, 0); length preserved."""
    return [max(float(v), 0.0) for v in samples]


def summarize(samples: Sequence[float]) -> SummaryStats:
    """Boxplot statistics with a winsorized mean (see :class:`SummaryStats`)."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample list")
    q1, median, q3 = (float(q) for q in np.percentile(arr, [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    inside = arr[(arr >= q1 - 1.5 * iqr) & (arr <= q3 + 1.5 * iqr)]
    lower_whisker = float(inside.min())
    upper_whisker = float(inside.max())
    outliers = arr[(arr < lower_whisker) | (arr > upper_whisker)]
    winsorized = np.clip(arr, lower_whisker, upper_whisker)
    return SummaryStats(
        n=int(arr.size),
        min=float(arr.min()),
        q1=q1,
        median=median,
        q3=q3,
        max=float(arr.max()),
        lower_whisker=lower_whisker,
        upper_whisker=upper_whisker,
        outliers=tuple(float(v) for v in np.sort(outliers)),
        smoothed_mean=float(winsorized.mean()),
    )


def _basis_points(ratio: float) -> int:
    return int(round(ratio * 10000))


def sample_seed(master_seed: int, scheme: Scheme, ratio: float, index: int) -> int:
    """Operator seed for one Monte Carlo sample (ratio in basis points)."""
    return mix_seed(master_seed, scheme.wire_id, _basis_points(ratio), index)


def make_operator(
    X: DenseTensor3, scheme: Scheme, target: tuple[int, int, int], fit: FitConfig, seed: int
) -> CompressionOperator:
    """The ``scheme`` operator compressing X to ``target``: a random draw
    from ``seed``, or a Tucker fit of X under ``fit`` with its seed set
    to ``seed``."""
    if scheme is Scheme.GAUSSIAN:
        return gaussian_operator(X.dims, target, seed)
    if scheme is Scheme.ORTHONORMAL:
        return orthonormal_operator(X.dims, target, seed)
    return tucker_operator(X, target, replace(fit, seed=seed))


def _target(X: DenseTensor3, cfg: ExperimentConfig, ratio: float) -> tuple[int, int, int]:
    """The dims X compresses to at ``ratio``, checked to support ``cfg.rank``
    CP components."""
    target = ratio_to_dims(X.dims, RatioSpec(ratio, cfg.compressed_modes))
    feasible = max_feasible_cp_rank(target)
    if cfg.rank > feasible:
        raise ConfigError(
            f"ratio {ratio} compresses {X.dims} to {target}, which supports at "
            f"most {feasible} CP components (rank {cfg.rank} requested)"
        )
    return target


def _rerun_hint(cfg: ExperimentConfig, scheme: Scheme, ratio: float, index: int) -> str:
    modes = " ".join(str(m) for m in sorted(cfg.compressed_modes))
    return (
        "; rerun it with the grid's --input (and --dims) added to: corcomp sample "
        f"--scheme {scheme.value} --ratio {ratio!r} --index {index} --seed {cfg.master_seed} "
        f"--rank {cfg.rank} --modes {modes} --max-iter {cfg.fit.max_iterations} "
        f"--tol {cfg.fit.rel_tolerance!r} --restarts {cfg.fit.restarts}"
    )


def _sample(
    X: DenseTensor3, cfg: ExperimentConfig, scheme: Scheme, ratio: float,
    target: tuple[int, int, int], index: int, shared: DenseTensor3 | None = None,
) -> tuple[DenseTensor3, int]:
    """Compressed tensor and CP-fit seed of one sample (``shared``: its Tucker cell's)."""
    seed = sample_seed(cfg.master_seed, scheme, ratio, index)
    if shared is None:
        shared = compress(X, make_operator(X, scheme, target, cfg.fit, seed))
    return shared, mix_seed(seed, FIT_TAG)


def _run_cell(
    X: DenseTensor3, scheme: Scheme, ratio: float, target: tuple[int, int, int],
    cfg: ExperimentConfig,
) -> list[float]:
    """Raw diagnostic values of one (scheme, ratio) cell, in sample order.

    Samples run in chunks of about ``BATCH_BYTES`` of compressed data, one
    :func:`cp_als_batch` call per chunk.  ``tucker3`` ignores its seed, so a
    Tucker cell compresses once, with sample 0's seed.  A failing step raises
    :class:`StepError` with its coordinates and the ``corcomp sample`` rerun.
    """
    n = cfg.samples_per_cell[scheme]
    seeds = [sample_seed(cfg.master_seed, scheme, ratio, s) for s in range(n)]

    def sample_failed(s: int, exc: Exception) -> StepError:
        return StepError(
            f"sample {s} of cell ({scheme.value}, {ratio}) failed "
            f"(operator seed {seeds[s]}): {exc}" + _rerun_hint(cfg, scheme, ratio, s)
        )

    def sample(s: int, shared: DenseTensor3 | None) -> tuple[DenseTensor3, int]:
        try:
            return _sample(X, cfg, scheme, ratio, target, s, shared)
        except Exception as exc:
            raise sample_failed(s, exc) from exc

    shared = sample(0, None)[0] if scheme is Scheme.TUCKER else None
    values: list[float] = []
    per_batch = max(1, BATCH_BYTES // (8 * int(np.prod(target))))
    for start in range(0, n, per_batch):
        chunk = range(start, min(start + per_batch, n))
        compressed, fit_seeds = zip(*(sample(s, shared) for s in chunk))
        try:
            models = cp_als_batch(compressed, cfg.rank, cfg.fit, fit_seeds)
        except Exception as exc:
            raise StepError(
                f"CP fit of samples {chunk.start}-{chunk.stop - 1} of cell ({scheme.value}, "
                f"{ratio}) failed (sample seeds {seeds[chunk.start:chunk.stop]}): {exc}; each "
                f"reruns alone with its index in place of --index {chunk.start}"
                + _rerun_hint(cfg, scheme, ratio, chunk.start)
            ) from exc
        for s, Xc, model in zip(chunk, compressed, models):
            try:
                values.append(corcondia(Xc, model).value)
            except Exception as exc:
                raise sample_failed(s, exc) from exc
    return values


def run_sample(
    X: DenseTensor3, cfg: ExperimentConfig, scheme: Scheme, ratio: float, index: int
) -> tuple[DenseTensor3, CpModel, CorcondiaReport]:
    """Sample ``index`` of cell ``(scheme, ratio)`` under ``cfg``, computed alone:
    its compressed tensor, CP model and diagnostic, bit for bit as in
    :func:`run_experiment` (a Tucker cell's samples share one compression)."""
    if index < 0:
        raise ConfigError(f"sample index must be >= 0, got {index}")
    compressed, fit_seed = _sample(X, cfg, scheme, ratio, _target(X, cfg, ratio), index)
    model = cp_als(compressed, cfg.rank, replace(cfg.fit, seed=fit_seed))
    return compressed, model, corcondia(compressed, model)


def run_experiment(X: DenseTensor3, cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full (scheme, ratio) grid and summarize each cell.

    The grid is validated before any computation: every compressed shape
    in it must support ``cfg.rank`` CP components.  Cells run one after
    another.
    """
    targets = {ratio: _target(X, cfg, ratio) for ratio in cfg.ratios}
    baseline_model = cp_als(
        X, cfg.rank, replace(cfg.fit, seed=mix_seed(cfg.master_seed, BASELINE_TAG))
    )
    baseline = corcondia(X, baseline_model)

    cells: dict[tuple[Scheme, float], CellResult] = {}
    for scheme in cfg.schemes:
        for ratio in cfg.ratios:
            raw = _run_cell(X, scheme, ratio, targets[ratio], cfg)
            clamped = clamp_negatives(raw)
            cells[(scheme, ratio)] = CellResult(
                scheme=scheme,
                ratio=ratio,
                raw_samples=tuple(raw),
                clamped_samples=tuple(clamped),
                stats=summarize(clamped),
            )
    return ExperimentResult(config=cfg, cells=cells, baseline=baseline)
