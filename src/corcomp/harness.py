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
recomputed in isolation.  One generator computes every sample: the grid
reads a whole cell from it, and :func:`run_sample` (``corcomp sample``)
reads one sample, bit for bit as in the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Sequence

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
from .errors import ConfigError, StepError, check_int
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

# HOOI's fit-change tolerance for the Tucker scheme's operator, whatever the
# CP fits' tolerance (``max_iterations`` still caps it).  Tighter ones only
# refine noise directions: on the benchmark's grid inputs 1e-7 took 2-89
# sweeps where 1e-4 takes 2, moving no criterion-5 Tucker sample by 1e-3.
TUCKER_TOLERANCE = 1e-4

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
        object.__setattr__(self, "rank", check_int(self.rank, "rank"))
        object.__setattr__(self, "master_seed", check_seed(self.master_seed, "master_seed"))
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
            modes = RatioSpec(r, self.compressed_modes).compressed_modes  # validates r and modes
            bp = _basis_points(r)
            if seen.get(bp) == r:
                raise ConfigError(f"ratio {r} is listed twice")
            if bp in seen:
                raise ConfigError(
                    f"ratios {seen[bp]} and {r} round to the same basis point, so "
                    "their samples would draw identical operators"
                )
            seen[bp] = r
        given = {Scheme(k): v for k, v in self.samples_per_cell.items()}
        samples = {s: check_int(given.get(s, 0), f"samples_per_cell[{s.value}]") for s in schemes}
        object.__setattr__(self, "schemes", schemes)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "samples_per_cell", samples)
        object.__setattr__(self, "compressed_modes", modes)


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
    to ``seed`` and its fit-change tolerance set to ``TUCKER_TOLERANCE``."""
    if scheme is Scheme.GAUSSIAN:
        return gaussian_operator(X.dims, target, seed)
    if scheme is Scheme.ORTHONORMAL:
        return orthonormal_operator(X.dims, target, seed)
    return tucker_operator(X, target, replace(fit, seed=seed, rel_tolerance=TUCKER_TOLERANCE))


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


def _cell_samples(
    X: DenseTensor3, cfg: ExperimentConfig, scheme: Scheme, ratio: float,
    target: tuple[int, int, int], indices: range,
) -> Iterator[tuple[DenseTensor3, CpModel, CorcondiaReport]]:
    """Compressed tensor, CP model and diagnostic of each sample of
    ``indices`` in cell ``(scheme, ratio)``, in index order.

    Samples run in chunks of about ``BATCH_BYTES`` of compressed data, one
    :func:`cp_als_batch` call per chunk.  ``tucker3`` ignores its seed, so
    Tucker samples compress once, with the first index's seed.  A failing
    step raises :class:`StepError` with its coordinates and the ``corcomp
    sample`` rerun; exceptions other than ``ValueError`` are bugs and pass
    through.
    """
    seeds = {s: sample_seed(cfg.master_seed, scheme, ratio, s) for s in indices}

    def sample_failed(s: int, exc: Exception) -> StepError:
        return StepError(
            f"sample {s} of cell ({scheme.value}, {ratio}) failed "
            f"(operator seed {seeds[s]}): {exc}" + _rerun_hint(cfg, scheme, ratio, s)
        )

    def compressed(s: int) -> DenseTensor3:
        try:
            return compress(X, make_operator(X, scheme, target, cfg.fit, seeds[s]))
        except ValueError as exc:
            raise sample_failed(s, exc) from exc

    shared = compressed(indices.start) if scheme is Scheme.TUCKER else None
    per_batch = max(1, BATCH_BYTES // (8 * int(np.prod(target))))
    for start in range(indices.start, indices.stop, per_batch):
        chunk = range(start, min(start + per_batch, indices.stop))
        tensors = [compressed(s) if shared is None else shared for s in chunk]
        try:
            models = cp_als_batch(tensors, cfg.rank, cfg.fit,
                                  [mix_seed(seeds[s], FIT_TAG) for s in chunk])
        except ValueError as exc:
            if len(chunk) == 1:
                raise sample_failed(start, exc) from exc
            raise StepError(
                f"CP fit of samples {start}-{chunk.stop - 1} of cell ({scheme.value}, "
                f"{ratio}) failed (sample seeds {[seeds[s] for s in chunk]}): {exc}; each "
                f"reruns alone with its index in place of --index {start}"
                + _rerun_hint(cfg, scheme, ratio, start)
            ) from exc
        for s, Xc, model in zip(chunk, tensors, models):
            try:
                report = corcondia(Xc, model)
            except ValueError as exc:
                raise sample_failed(s, exc) from exc
            yield Xc, model, report


def run_sample(
    X: DenseTensor3, cfg: ExperimentConfig, scheme: Scheme, ratio: float, index: int
) -> tuple[DenseTensor3, CpModel, CorcondiaReport]:
    """Sample ``index`` of cell ``(scheme, ratio)`` under ``cfg``, computed alone
    by the grid's own code: its compressed tensor, CP model and diagnostic,
    bit for bit as in :func:`run_experiment`.  An index outside [0, 2^64)
    is a :class:`ConfigError`: the seed derivation would map it onto a
    smaller index's streams."""
    index = check_seed(index, "sample index")
    target = _target(X, cfg, ratio)
    return next(_cell_samples(X, cfg, scheme, ratio, target, range(index, index + 1)))


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
            indices = range(cfg.samples_per_cell[scheme])
            raw = [report.value for _, _, report in
                   _cell_samples(X, cfg, scheme, ratio, targets[ratio], indices)]
            clamped = clamp_negatives(raw)
            cells[(scheme, ratio)] = CellResult(
                scheme=scheme,
                ratio=ratio,
                raw_samples=tuple(raw),
                clamped_samples=tuple(clamped),
                stats=summarize(clamped),
            )
    return ExperimentResult(config=cfg, cells=cells, baseline=baseline)
