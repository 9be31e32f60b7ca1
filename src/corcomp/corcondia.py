"""Core consistency diagnostic for CP models.

Given CP factors (A, B, C) fitted to a tensor X, the diagnostic asks how
close the unconstrained least-squares core

    G = X x1 A+ x2 B+ x3 C+

is to the superdiagonal identity the CP model implicitly assumes, and
reports

    (1 - ||I - G||^2 / ||I||^2) * 100.

Values near 100 indicate the trilinear model is appropriate; values near
zero or below indicate overfactoring.  The core is one multilinear
product by the factors' pseudoinverses, the minimum-norm solution of
``argmin_G ||X - G x1 A x2 B x3 C||`` without materializing the Kronecker
system.  A core or value that overflows is a ``ValueError``, not a value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .decomp import CpModel, FitConfig, check_cp_rank, cp_als, pseudoinverse_and_rank
from .errors import ConfigError, ShapeError, StepError
from .seeding import mix_seed
from .tensor import (
    DenseTensor3,
    _check_factor_columns,
    _multilinear,
    as_matrix,
    superdiagonal_identity,
)

__all__ = [
    "CorcondiaReport",
    "corcondia",
    "corcondia_from_factors",
    "corcondia_sweep",
]


@dataclass(frozen=True)
class CorcondiaReport:
    """Diagnostic value, the least-squares core it was derived from, and
    the component count.  ``factor_rank_deficient`` flags models whose
    fitted factors had numerical rank below the component count; the
    pseudoinverse tolerance handles those, and a low diagnostic value is
    exactly the symptom they should produce."""

    value: float
    core: DenseTensor3
    rank: int
    factor_rank_deficient: bool = False


def corcondia_from_factors(X: DenseTensor3, A, B, C) -> CorcondiaReport:
    """Diagnostic for explicit factor matrices (no fitting involved), from
    one SVD per factor and one multilinear product for the minimum-norm
    least-squares core; ``ValueError`` if the core or value overflows."""
    Am, Bm, Cm = as_matrix(A, "A"), as_matrix(B, "B"), as_matrix(C, "C")
    R = _check_factor_columns(Am, Bm, Cm)
    if (Am.shape[0], Bm.shape[0], Cm.shape[0]) != X.dims:
        raise ShapeError(
            f"factor row counts {(Am.shape[0], Bm.shape[0], Cm.shape[0])} "
            f"do not match tensor dims {X.dims}"
        )
    invs, ranks = zip(*(pseudoinverse_and_rank(F) for F in (Am, Bm, Cm)))
    core = DenseTensor3(_multilinear(X.data, invs))
    ident = superdiagonal_identity(R)
    value = (1.0 - float(np.sum((ident.data - core.data) ** 2)) / R) * 100.0
    if not np.isfinite(value):
        raise ValueError(f"core consistency is {value}: the core's distance from I overflows")
    return CorcondiaReport(value=value, core=core, rank=R, factor_rank_deficient=min(ranks) < R)


def corcondia(X: DenseTensor3, model: CpModel) -> CorcondiaReport:
    """Diagnostic of a fitted CP model against the tensor it was fit to."""
    return corcondia_from_factors(X, model.A, model.B, model.C)


def corcondia_sweep(
    X: DenseTensor3, ranks: list[int], cfg: FitConfig = FitConfig()
) -> list[CorcondiaReport]:
    """Fit one CP model per entry of ``ranks`` and report each diagnostic.

    Fits are independent, with per-rank seeds derived from ``cfg.seed``,
    so entries could be computed concurrently; output order matches the
    input order.  Every rank is checked against the dims and for a repeat
    before any fit runs.  A ``ValueError`` at any rank aborts the sweep as
    a StepError naming the rank; any other exception is a bug and passes through.
    """
    if not ranks:
        raise ConfigError("ranks must be nonempty")
    for i, rank in enumerate(ranks):
        check_cp_rank(rank, X.dims)
        if rank in ranks[:i]:
            raise ConfigError(f"rank {rank} is listed twice")
    reports = []
    for rank in ranks:
        try:
            model = cp_als(X, rank, replace(cfg, seed=mix_seed(cfg.seed, rank)))
            reports.append(corcondia(X, model))
        except ValueError as exc:
            raise StepError(f"core consistency sweep failed at rank {rank}: {exc}") from exc
    return reports
