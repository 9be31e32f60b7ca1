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
reads every cell of one ratio from it, fitting all schemes' samples in
shared batches (they have one compressed shape), and :func:`run_sample`
(``corcomp sample``) reads one sample, bit for bit as in the grid.
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
from .decomp import CpModel, FitConfig, check_cp_rank, cp_als, cp_als_batch
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
# sample), filled across the schemes of one ratio.  Batch members never
# interact, so this changes no result; it keeps a ratio's memory from
# growing with its sample count.
BATCH_BYTES = 1 << 20

# HOOI's fit-change tolerance for the Tucker scheme's operator, whatever the
# CP fits' settings (FitConfig's default caps its sweeps).  Tighter ones only
# refine noise directions: on the benchmark's grid inputs 1e-7 took 2-89
# sweeps where 1e-4 takes 2, moving no criterion-5 Tucker sample by 1e-3.
TUCKER_TOLERANCE = 1e-4

DEFAULT_RATIOS = (0.5, 0.4, 0.3, 0.2, 0.1, 0.08, 0.04)
DEFAULT_SAMPLES = {Scheme.GAUSSIAN: 1000, Scheme.ORTHONORMAL: 1000, Scheme.TUCKER: 10}


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition and sampling budget for one experiment run.

    ``samples_per_cell`` maps each scheme of the grid to its Monte Carlo
    sample count; its order is the order of the cells.  Defaults mirror
    the reference protocol: ratios from 50% down to 4% over modes 1 and
    2, 1000 samples for the random schemes and 10 for the Tucker scheme,
    three CP components.
    """

    rank: int = 3
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    samples_per_cell: Mapping[Scheme, int] = field(default_factory=lambda: dict(DEFAULT_SAMPLES))
    compressed_modes: frozenset[int] = field(default_factory=lambda: frozenset(DEFAULT_MODES))
    master_seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rank", check_int(self.rank, "rank"))
        object.__setattr__(self, "master_seed", check_seed(self.master_seed, "master_seed"))
        if self.fit.seed != FitConfig.seed:
            raise ConfigError(f"fit.seed must stay {FitConfig.seed}, got {self.fit.seed}: "
                              "every seed of a grid derives from master_seed")
        samples = {}
        for key, n in self.samples_per_cell.items():
            scheme = Scheme(key)
            samples[scheme] = check_int(n, f"samples_per_cell[{scheme.value}]")
        if not samples:
            raise ConfigError("samples_per_cell must name at least one scheme")
        ratios = tuple(float(r) for r in self.ratios)
        if not ratios:
            raise ConfigError("ratios must be nonempty")
        seen: dict[int, float] = {}
        for r in ratios:
            modes = RatioSpec(r, self.compressed_modes).compressed_modes  # validates r and modes
            bp = _basis_points(r)
            if bp in seen:
                raise ConfigError(
                    f"ratios {seen[bp]} and {r} both round to basis point {bp}, so "
                    "their samples would draw identical operators"
                )
            seen[bp] = r
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "samples_per_cell", samples)
        object.__setattr__(self, "compressed_modes", modes)


@dataclass(frozen=True)
class SummaryStats:
    """Tukey boxplot statistics of one sample vector.

    Quartiles use linear interpolation between order statistics;
    whiskers sit at the most extreme samples within 1.5 IQR of the
    quartiles; ``n_outliers`` counts the samples beyond the whiskers; and
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
    n_outliers: int
    smoothed_mean: float


@dataclass(frozen=True)
class CellResult:
    """Samples and statistics for one (scheme, ratio) cell; the statistics
    are ``summarize(clamp_negatives(raw_samples))``."""

    scheme: Scheme
    ratio: float
    raw_samples: tuple[float, ...]
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
        n_outliers=int(np.count_nonzero((arr < lower_whisker) | (arr > upper_whisker))),
        smoothed_mean=float(winsorized.mean()),
    )


def _basis_points(ratio: float) -> int:
    return int(round(ratio * 10000))


def sample_seed(master_seed: int, scheme: Scheme, ratio: float, index: int) -> int:
    """Operator seed for one Monte Carlo sample (ratio in basis points)."""
    return mix_seed(master_seed, scheme.wire_id, _basis_points(ratio), index)


def make_operator(
    X: DenseTensor3, scheme: Scheme, target: tuple[int, int, int], seed: int
) -> CompressionOperator:
    """The ``scheme`` operator compressing X to ``target``: a random draw
    from ``seed``, or a Tucker fit of X (labelled with ``seed``) whose HOOI
    stops at ``TUCKER_TOLERANCE`` or ``FitConfig``'s default sweep cap."""
    if scheme is Scheme.GAUSSIAN:
        return gaussian_operator(X.dims, target, seed)
    if scheme is Scheme.ORTHONORMAL:
        return orthonormal_operator(X.dims, target, seed)
    return tucker_operator(X, target, FitConfig(rel_tolerance=TUCKER_TOLERANCE, seed=seed))


def _target(X: DenseTensor3, cfg: ExperimentConfig, ratio: float) -> tuple[int, int, int]:
    """The dims X compresses to at ``ratio``, checked to support ``cfg.rank``
    CP components."""
    target = ratio_to_dims(X.dims, RatioSpec(ratio, cfg.compressed_modes))
    try:
        check_cp_rank(cfg.rank, target)
    except ConfigError as exc:
        raise ConfigError(f"ratio {ratio} compresses {X.dims} to {target}: {exc}") from None
    return target


def _rerun_hint(cfg: ExperimentConfig, scheme: Scheme, ratio: float, index: int) -> str:
    modes = " ".join(str(m) for m in sorted(cfg.compressed_modes))
    return (
        "; rerun it with the grid's --input (and --dims) added to: corcomp sample "
        f"--scheme {scheme.value} --ratio {ratio!r} --index {index} --seed {cfg.master_seed} "
        f"--rank {cfg.rank} --modes {modes} --max-iter {cfg.fit.max_iterations} "
        f"--tol {cfg.fit.rel_tolerance!r} --restarts {cfg.fit.restarts}"
    )


def _ratio_samples(
    X: DenseTensor3, cfg: ExperimentConfig, ratio: float, target: tuple[int, int, int],
    cells: Sequence[tuple[Scheme, range]],
) -> Iterator[tuple[Scheme, DenseTensor3, CpModel, CorcondiaReport]]:
    """Scheme, compressed tensor, CP model and diagnostic of each sample of
    ``cells``, ``(scheme, indices)`` pairs at ``ratio``, in cell then index order.

    The cells share one compressed shape, so samples run in chunks of about
    ``BATCH_BYTES`` that fill across cell boundaries, one
    :func:`cp_als_batch` call per chunk.  ``tucker3`` ignores its seed, so a
    Tucker cell compresses once, with its first index's seed.  A failing
    step raises :class:`StepError` with its coordinates and the ``corcomp
    sample`` rerun (a failed batch fit refits its samples one at a time to
    find it); exceptions other than ``ValueError`` are bugs and pass through.
    """
    samples = [(scheme, s) for scheme, indices in cells for s in indices]
    seeds = {(scheme, s): sample_seed(cfg.master_seed, scheme, ratio, s) for scheme, s in samples}

    def sample_failed(scheme: Scheme, s: int, exc: Exception) -> StepError:
        return StepError(
            f"sample {s} of cell ({scheme.value}, {ratio}) failed "
            f"(operator seed {seeds[scheme, s]}): {exc}" + _rerun_hint(cfg, scheme, ratio, s)
        )

    def compressed(scheme: Scheme, s: int) -> DenseTensor3:
        try:
            return compress(X, make_operator(X, scheme, target, seeds[scheme, s]))
        except ValueError as exc:
            raise sample_failed(scheme, s, exc) from exc

    shared = {scheme: compressed(scheme, indices.start)
              for scheme, indices in cells if scheme is Scheme.TUCKER}
    per_batch = max(1, BATCH_BYTES // (8 * int(np.prod(target))))
    for start in range(0, len(samples), per_batch):
        chunk = samples[start:start + per_batch]
        tensors = [shared[scheme] if scheme in shared else compressed(scheme, s)
                   for scheme, s in chunk]
        fit_seeds = [mix_seed(seeds[sample], FIT_TAG) for sample in chunk]
        try:
            models = cp_als_batch(tensors, cfg.rank, cfg.fit, fit_seeds)
        except ValueError:
            # Batch and single fits agree bit for bit: if no sample fails alone, it is a bug.
            for sample, Xc, fit_seed in zip(chunk, tensors, fit_seeds):
                try:
                    cp_als_batch([Xc], cfg.rank, cfg.fit, [fit_seed])
                except ValueError as exc:
                    raise sample_failed(*sample, exc) from exc
            raise
        for (scheme, s), Xc, model in zip(chunk, tensors, models):
            try:
                report = corcondia(Xc, model)
            except ValueError as exc:
                raise sample_failed(scheme, s, exc) from exc
            yield scheme, Xc, model, report


def run_sample(
    X: DenseTensor3, cfg: ExperimentConfig, scheme: Scheme, ratio: float, index: int
) -> tuple[DenseTensor3, CpModel, CorcondiaReport]:
    """Sample ``index`` of cell ``(scheme, ratio)`` under ``cfg``, computed alone
    by the grid's own code: its compressed tensor, CP model and diagnostic,
    bit for bit as in :func:`run_experiment`.  An index outside [0, 2^64)
    is a :class:`ConfigError`: the seed derivation would map it onto a
    smaller index's streams."""
    index = check_seed(index, "sample index")
    cell = [(scheme, range(index, index + 1))]
    return next(_ratio_samples(X, cfg, ratio, _target(X, cfg, ratio), cell))[1:]


def run_experiment(X: DenseTensor3, cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full (scheme, ratio) grid and summarize each cell.

    The grid is validated before any computation: every compressed shape
    in it must support ``cfg.rank`` CP components.  Ratios run one after
    another; at each ratio every scheme's samples share
    :func:`cp_als_batch` calls of about ``BATCH_BYTES`` of compressed data.
    """
    targets = {ratio: _target(X, cfg, ratio) for ratio in cfg.ratios}
    fit_seed = mix_seed(cfg.master_seed, BASELINE_TAG)
    try:
        baseline = corcondia(X, cp_als(X, cfg.rank, replace(cfg.fit, seed=fit_seed)))
    except ValueError as exc:
        raise StepError(f"baseline of the uncompressed tensor at rank {cfg.rank} failed "
                        f"(fit seed {fit_seed}): {exc}") from exc

    # Keys in scheme-major order, the order of the JSON cells and CSV rows.
    raw = {(scheme, ratio): [] for scheme in cfg.samples_per_cell for ratio in cfg.ratios}
    per_scheme = [(scheme, range(n)) for scheme, n in cfg.samples_per_cell.items()]
    for ratio in cfg.ratios:
        for scheme, _, _, report in _ratio_samples(X, cfg, ratio, targets[ratio], per_scheme):
            raw[scheme, ratio].append(report.value)

    cells = {key: CellResult(*key, tuple(samples), summarize(clamp_negatives(samples)))
             for key, samples in raw.items()}
    return ExperimentResult(config=cfg, cells=cells, baseline=baseline)
