"""CP (alternating least squares) and Tucker fitting, plus the SVD-based
pseudoinverse the core consistency diagnostic relies on.

CP models are fit with multi-restart ALS, every restart of every tensor
of a batch stacked into one loop; Tucker models with a truncated
higher-order SVD refined by orthogonal iteration, each leading subspace
taken from the Gram matrix's eigendecomposition when the unfolding is
wide and from an SVD when it is tall.  Both fitters are pure
functions of ``(input, config)``: all randomness flows from the config
seed through per-restart derived streams, so results are reproducible
and independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .seeding import check_seed
from .tensor import (
    DenseTensor3,
    _check_target,
    as_matrix,
    frobenius_norm,
    n_mode_product,
    reconstruct_tucker,
    unfold,
)

__all__ = [
    "FitConfig",
    "CpModel",
    "TuckerModel",
    "cp_als",
    "cp_als_batch",
    "tucker3",
    "pseudoinverse",
]


@dataclass(frozen=True)
class FitConfig:
    """Stopping rule and restart policy for the iterative fitters.

    ``rel_tolerance`` bounds the change in relative reconstruction error
    between consecutive sweeps; once the change drops below it the fit is
    flagged converged.  ``restarts`` independent random initializations
    are run and the best fit kept; restart ``r`` draws from a stream
    seeded by ``(seed, r)``.
    """

    max_iterations: int = 500
    rel_tolerance: float = 1e-8
    restarts: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not 0 < self.rel_tolerance < np.inf:
            raise ConfigError("rel_tolerance must be finite and > 0")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        check_seed(self.seed)


@dataclass(frozen=True)
class CpModel:
    """Fitted CP model with factors A (IxR), B (JxR), C (KxR).

    ``fit`` is 1 minus the relative reconstruction error.  Column norms
    of A and B are absorbed into C during fitting, so A and B have
    unit-norm columns (up to degenerate zero columns).
    ``error_history`` records the relative reconstruction error after
    each ALS sweep of the winning restart.  Each of these errors, and so
    ``fit``, comes from the Gram identity, or from the explicit residual
    where the identity falls below 1e-5 (see :func:`cp_als`).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    fit: float
    iterations: int
    converged: bool
    error_history: tuple[float, ...] = ()

    @property
    def rank(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class TuckerModel:
    """Fitted Tucker model: core (PxQxR) and orthonormal-column factors.

    ``fit`` is 1 minus the relative reconstruction error.
    """

    core: DenseTensor3
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    fit: float
    iterations: int
    converged: bool


def _khatri_rao(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker products of stacked factors, Q's row index
    varying fastest: ``(..., p, R)`` and ``(..., q, R)`` give ``(..., p*q, R)``.

    The result is column-major when both inputs are and row-major
    otherwise.  BLAS picks its kernel, and so the last bits of the
    products taken with the result, by that layout, so it is fixed here
    rather than left to numpy's broadcasting.
    """
    lead, R = P.shape[:-2], P.shape[-1]
    if P.strides[-2] == Q.strides[-2] == P.itemsize:  # both column-major
        Pt, Qt = P.swapaxes(-1, -2), Q.swapaxes(-1, -2)
        return (Pt[..., :, None] * Qt[..., None, :]).reshape(lead + (R, -1)).swapaxes(-1, -2)
    out = np.empty(lead + (P.shape[-2], Q.shape[-2], R))
    np.multiply(P[..., :, None, :], Q[..., None, :, :], out=out)
    return out.reshape(lead + (-1, R))


def _gram(F: np.ndarray) -> np.ndarray:
    return F.swapaxes(-1, -2) @ F


def _solve_one(gram: np.ndarray, rhs_t: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(gram, rhs_t)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram) @ rhs_t


def _solve_factors(
    unfs: list[np.ndarray], spans: list[slice], kr: np.ndarray, gram: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares update of one factor for every member.

    ``unfs[t]`` is the unfolding of the t-th live tensor and ``spans[t]``
    the members fitting it; the unfolding multiplies all of their
    Khatri-Rao products in one stacked product.  The normal equations are
    solved as one batch.  When any member's Gram matrix is singular the
    batch is redone member by member, and only the failing members take
    the pseudoinverse.  Returns the factors column-major, ``(M, d, R)``,
    and the right-hand sides ``unf @ kr``.
    """
    rhs = np.empty(kr.shape[:-2] + (unfs[0].shape[0], kr.shape[-1]))
    for unf, span in zip(unfs, spans):
        np.matmul(unf, kr[span], out=rhs[span])
    rhs_t = rhs.swapaxes(-1, -2)
    try:
        solved = np.linalg.solve(gram, rhs_t)
    except np.linalg.LinAlgError:
        solved = np.stack([_solve_one(g, b) for g, b in zip(gram, rhs_t)])
    return solved.swapaxes(-1, -2), rhs


def _absorb_norms(F: np.ndarray, C: np.ndarray) -> None:
    """Normalize F's columns in place, absorbing their norms into C."""
    # The same reduction np.linalg.norm(F, axis=-2) makes, without its overhead.
    norms = np.sqrt(np.add.reduce(F * F, axis=-2))[..., None, :]
    ok = norms > np.finfo(np.float64).tiny
    np.divide(F, norms, out=F, where=ok)
    np.multiply(C, norms, out=C, where=ok)


def _als_sweep(unfs, spans, A, B, C):
    """One ALS sweep of every member; returns the new factors and what the
    residual is taken with: the mode-3 Khatri-Rao product, right-hand side
    ``X_(3) @ kr3`` and Gram product of C's update."""
    A, _ = _solve_factors(unfs[0], spans, _khatri_rao(C, B), _gram(C) * _gram(B))
    _absorb_norms(A, C)
    gram_a = _gram(A)
    B, _ = _solve_factors(unfs[1], spans, _khatri_rao(C, A), _gram(C) * gram_a)
    _absorb_norms(B, C)
    kr3 = _khatri_rao(B, A)
    gram_ab = _gram(B) * gram_a
    C, rhs3 = _solve_factors(unfs[2], spans, kr3, gram_ab)
    return A, B, C, kr3, rhs3, gram_ab


def _identity_norms(norms, rhs3, C, gram_ab) -> np.ndarray:
    """Residual norm of every member from the Gram identity
    ``||X||^2 - 2<X_(3) kr3, C> + sum(G_AB * G_C)``, each sum an
    ``np.add.reduce`` over the row-major flattened elementwise product."""
    cross = np.add.reduce((rhs3 * C).reshape(len(C), -1), axis=-1)
    model = np.add.reduce((gram_ab * _gram(C)).reshape(len(C), -1), axis=-1)
    return np.sqrt(np.maximum(norms * norms - 2.0 * cross + model, 0.0))


def _live_tensors(unfs, live: np.ndarray, restarts: int):
    """Unfoldings of the tensors with live members, and the contiguous
    run of live members that fits each."""
    owners = live // restarts
    starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
    ends = np.r_[starts[1:], len(owners)]
    tensor_ids = owners[starts].tolist()
    spans = [slice(a, b) for a, b in zip(starts.tolist(), ends.tolist())]
    return [[u[t] for t in tensor_ids] for u in unfs], spans


# Below this relative error the Gram identity is mostly cancellation noise,
# of order sqrt(eps), so such members take the explicit residual.
_EXPLICIT_RESIDUAL_BELOW = 1e-5


def max_feasible_cp_rank(dims: tuple[int, int, int]) -> int:
    """Largest R for which the ALS subproblems are not underdetermined."""
    i, j, k = dims
    return min(j * k, i * k, i * j)


def cp_als(X: DenseTensor3, R: int, cfg: FitConfig = FitConfig()) -> CpModel:
    """Fit an R-component CP model by alternating least squares.

    Each sweep solves the three linear least-squares problems over the
    mode unfoldings in turn; the reconstruction error is therefore
    nonincreasing from sweep to sweep.  Factors are initialized with
    uniform(-1, 1) entries, ``cfg.restarts`` times, and the best fit is
    returned.  Non-convergence within ``cfg.max_iterations`` is reported
    through ``converged=False``, not as an error.  The error behind the
    stopping rule, ``error_history`` and ``fit`` comes from the Gram
    identity, O(KR + R^2) per sweep; below 1e-5 it comes from the
    explicit residual, a tensor-sized product.

    Raises ``ValueError`` for the all-zero tensor (no meaningful model
    exists and the core consistency of the result would be undefined).
    This is :func:`cp_als_batch` on one tensor with seed ``cfg.seed``.
    """
    return cp_als_batch([X], R, cfg, [cfg.seed])[0]


def cp_als_batch(
    tensors: Sequence[DenseTensor3], R: int, cfg: FitConfig, seeds: Sequence[int]
) -> list[CpModel]:
    """Fit an R-component CP model to each of several same-shaped tensors.

    ``cfg.seed`` is not used: tensor ``t``'s restarts are seeded from
    ``seeds[t]``, so it gets exactly the model ``cp_als(tensors[t], R,
    replace(cfg, seed=seeds[t]))`` would give, bit for bit: restart ``r``
    draws from a stream seeded by ``(seeds[t], r)``, stops at the sweep
    where its own error change drops below ``cfg.rel_tolerance``, and the
    first restart with the strictly best fit wins.  Every restart of every
    tensor is one member of stacked factor arrays, so a sweep costs a few
    dozen numpy calls for the whole batch plus four per tensor, instead
    of a few dozen per member.  Members leave the stacks as they finish.

    Raises ``ShapeError`` when the tensors' dims differ and ``ValueError``
    naming the index of an all-zero tensor.
    """
    tensors = list(tensors)
    seeds = [int(s) for s in seeds]
    if not tensors:
        raise ValueError("cp_als_batch needs at least one tensor")
    if len(seeds) != len(tensors):
        raise ValueError(f"got {len(seeds)} seeds for {len(tensors)} tensors")
    dims = tensors[0].dims
    for t, X in enumerate(tensors):
        if X.dims != dims:
            raise ShapeError(f"tensor {t} has dims {X.dims}, tensor 0 has {dims}")
    R = int(R)
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if R > max_feasible_cp_rank(dims):
        raise ShapeError(
            f"R={R} exceeds the feasible component count "
            f"{max_feasible_cp_rank(dims)} for dims {dims}"
        )
    norms = [frobenius_norm(X) for X in tensors]
    for t, norm_x in enumerate(norms):
        if norm_x == 0.0:
            raise ValueError(f"cannot fit a CP model to the all-zero tensor (tensor {t})")

    restarts = cfg.restarts
    members = len(tensors) * restarts
    # Row-major like the draws; every sweep's solves return column-major.
    A, B, C = (np.empty((members, d, R)) for d in dims)
    for m in range(members):
        t, restart = divmod(m, restarts)
        rng = np.random.default_rng(np.random.SeedSequence((seeds[t], restart)))
        for F, d in zip((A, B, C), dims):
            F[m] = rng.uniform(-1.0, 1.0, (d, R))

    # A tensor listed more than once (a Tucker cell's samples) is unfolded once.
    unfolded = {id(X): [unfold(X, mode) for mode in (1, 2, 3)] for X in tensors}
    unfs = [[unfolded[id(X)][m] for X in tensors] for m in range(3)]
    # Sized by the sweeps run, not by the cap, which may be huge.
    history = np.empty((min(cfg.max_iterations, 64), members))
    live = np.arange(members)
    live_unfs, spans = _live_tensors(unfs, live, restarts)
    live_norms = np.repeat(norms, restarts)
    prev_err = np.full(members, np.inf)
    fits: list[CpModel] = [None] * members  # type: ignore[list-item]
    for sweep in range(cfg.max_iterations):
        A, B, C, kr3, rhs3, gram_ab = _als_sweep(live_unfs, spans, A, B, C)
        err = _identity_norms(live_norms, rhs3, C, gram_ab) / live_norms
        for k in np.flatnonzero(err < _EXPLICIT_RESIDUAL_BELOW):
            # ||X_(3) - C kr3^T||, the product overwritten by the residual.
            residual = C[k] @ kr3[k].T
            np.subtract(unfs[2][live[k] // restarts], residual, out=residual)
            err[k] = np.linalg.norm(residual) / live_norms[k]
        if sweep == len(history):
            history = np.concatenate((history, np.empty_like(history)))
        history[sweep, live] = err
        converged = np.abs(prev_err - err) <= cfg.rel_tolerance
        prev_err = err
        done = converged | (sweep + 1 == cfg.max_iterations)
        if not done.any():
            continue
        for k in np.flatnonzero(done):
            errors = tuple(history[: sweep + 1, live[k]].tolist())
            fits[live[k]] = CpModel(
                A=A[k].copy(order="F"),
                B=B[k].copy(order="F"),
                C=C[k].copy(order="F"),
                fit=1.0 - errors[-1],
                iterations=sweep + 1,
                converged=bool(converged[k]),
                error_history=errors,
            )
        if done.all():
            break
        keep = ~done
        # Indexing the transposed stacks keeps the factors column-major.
        A, B, C = (F.swapaxes(-1, -2)[keep].swapaxes(-1, -2) for F in (A, B, C))
        live, live_norms, prev_err = live[keep], live_norms[keep], prev_err[keep]
        live_unfs, spans = _live_tensors(unfs, live, restarts)

    # max keeps the first of equally good restarts: the strict ">" rule.
    return [
        max(fits[t * restarts : (t + 1) * restarts], key=lambda model: model.fit)
        for t in range(len(tensors))
    ]


def _fix_signs(U: np.ndarray) -> np.ndarray:
    """Flip singular-vector columns so the largest-magnitude entry is positive."""
    pivot = np.abs(U).argmax(axis=0)
    signs = np.sign(U[pivot, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs


def _leading_singular_vectors(M: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the k-dimensional leading left singular subspace
    of M, columns in descending singular-value order with fixed signs.

    A wide M (rows <= cols) takes the top eigenvectors of its rows x rows
    Gram matrix, which costs far less than an SVD of M and computes no
    right singular vectors.  A tall M takes a thin SVD, or a full one
    when k exceeds its column count.
    """
    rows, cols = M.shape
    if rows <= cols:
        _, V = np.linalg.eigh(M @ M.T)
        return _fix_signs(V[:, ::-1][:, :k])
    U, _, _ = np.linalg.svd(M, full_matrices=k > cols)
    return _fix_signs(U[:, :k])


def tucker3(
    X: DenseTensor3, target: tuple[int, int, int], cfg: FitConfig = FitConfig()
) -> TuckerModel:
    """Fit a Tucker model with core dims ``target`` = (P, Q, R).

    Initializes each factor with the leading left singular subspace of
    the corresponding unfolding (HOSVD), then refines by orthogonal
    iteration (HOOI) until the relative fit change drops below
    ``cfg.rel_tolerance``.  A leading subspace comes from the
    eigendecomposition of the unfolding's Gram matrix when the unfolding
    is wide and from its SVD when it is tall.  The procedure is
    deterministic; ``cfg.seed`` and ``cfg.restarts`` have no effect on
    the result.
    """
    _, target = _check_target(X.dims, target)

    norm_x = frobenius_norm(X)
    factors = [_leading_singular_vectors(unfold(X, m), target[m - 1]) for m in (1, 2, 3)]
    core = DenseTensor3(np.zeros(target))  # the core of the all-zero tensor
    iterations = 0
    converged = norm_x == 0.0
    prev_err = np.inf
    while iterations < cfg.max_iterations and not converged:
        iterations += 1
        for m in (1, 2, 3):
            Y = X
            for other in (1, 2, 3):
                if other != m:
                    Y = n_mode_product(Y, factors[other - 1].T, other)
            factors[m - 1] = _leading_singular_vectors(unfold(Y, m), target[m - 1])
        # Y = X x1 A^T x2 B^T, so this is the core of the current factors.
        core = n_mode_product(Y, factors[2].T, 3)
        # With orthonormal factors the residual satisfies
        # ||X - rec||^2 = ||X||^2 - ||core||^2; cheap enough per sweep.
        core_norm = frobenius_norm(core)
        err = float(np.sqrt(max(norm_x**2 - core_norm**2, 0.0))) / norm_x
        if abs(prev_err - err) <= cfg.rel_tolerance:
            converged = True
        prev_err = err

    # Final fit from the explicit residual; the cancellation-prone norm
    # identity above is only used for the stopping rule.
    rec = reconstruct_tucker(core, *factors)
    fit = 1.0 - float(np.linalg.norm(X.data - rec.data)) / norm_x if norm_x > 0 else 1.0
    return TuckerModel(
        core=core,
        A=factors[0],
        B=factors[1],
        C=factors[2],
        fit=fit,
        iterations=iterations,
        converged=converged,
    )


def pseudoinverse(M, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``tol`` are treated as zero; the default
    is ``max(rows, cols) * eps * largest_singular_value``, so the zero
    matrix maps to the zero matrix of transposed shape.
    """
    return pseudoinverse_and_rank(M, tol)[0]


def pseudoinverse_and_rank(M, tol: float | None = None) -> tuple[np.ndarray, int]:
    """:func:`pseudoinverse` and the number of singular values it kept,
    the numerical rank of M at ``tol``, from one SVD."""
    Mm = as_matrix(M, "M")
    U, s, Vt = np.linalg.svd(Mm, full_matrices=False)
    if tol is None:
        tol = max(Mm.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    elif not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    inv = np.zeros_like(s)
    keep = s > tol
    inv[keep] = 1.0 / s[keep]
    return Vt.T @ (inv[:, None] * U.T), int(np.count_nonzero(keep))
