"""CP (alternating least squares) and Tucker fitting, plus the SVD-based
pseudoinverse the core consistency diagnostic relies on.

CP models are fit with multi-restart ALS, every restart of every tensor
of a batch stacked into one loop.  A sweep updates the largest mode
first; each update multiplies its right-hand side by the batched inverse
of the R x R Hadamard product of Grams (the pseudoinverse for an exactly
singular member).  A and B column norms move into C once, on recording.
Tucker models are fit by a truncated HOSVD refined by orthogonal
iteration.  Both fitters are pure functions of ``(input, config)``: all
randomness flows from the config seed through per-restart streams, so
results are reproducible and independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError, check_int, check_real
from .seeding import check_seed
from .tensor import (
    DenseTensor3,
    _check_target,
    _mode_product,
    _unfold,
    as_matrix,
    frobenius_norm,
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
        for name in ("max_iterations", "restarts"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        tol = check_real(self.rel_tolerance, "rel_tolerance")
        if tol <= 0:
            raise ConfigError(f"rel_tolerance must be > 0, got {tol}")
        object.__setattr__(self, "rel_tolerance", tol)
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True)
class CpModel:
    """Fitted CP model with factors A (IxR), B (JxR), C (KxR).

    ``fit`` is 1 minus the relative reconstruction error.  Column norms
    of A and B are absorbed into C when the model is recorded, so A and
    B have unit-norm columns (up to degenerate zero columns).  ``fit`` comes
    from the Gram identity, or from the explicit residual where the
    identity falls below 1e-5 (see :func:`cp_als`).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    fit: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class TuckerModel:
    """Fitted Tucker model: core (PxQxR) and orthonormal-column factors."""

    core: DenseTensor3
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    iterations: int
    converged: bool


def _khatri_rao(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker products of stacked factors, Q's row index
    varying fastest: ``(..., p, R)`` and ``(..., q, R)`` give ``(..., p*q, R)``."""
    lead, R = P.shape[:-2], P.shape[-1]
    Pt, Qt = P.swapaxes(-1, -2), Q.swapaxes(-1, -2)
    return (Pt[..., :, None] * Qt[..., None, :]).reshape(lead + (R, -1)).swapaxes(-1, -2)


def _gram(F: np.ndarray) -> np.ndarray:
    return F.swapaxes(-1, -2) @ F


def _solve_one(gram: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(gram)


def _solve(rhs: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Least-squares update of one factor for every member: its right-hand
    side times the batched inverse of its R x R Gram product.  If a member's
    product is exactly singular, the inverses are redone one by one and only
    the failing members take the pseudoinverse."""
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inverse = np.stack([_solve_one(g) for g in gram])
    return rhs @ inverse


def _stacked_products(mats: list[np.ndarray], spans: list[slice], F: np.ndarray) -> np.ndarray:
    """``mats[t] @ F[m]`` for every member m of ``spans[t]``, the members
    fitting the t-th live tensor, in one stacked product per tensor."""
    out = np.empty(F.shape[:-2] + (mats[0].shape[0], F.shape[-1]))
    for mat, span in zip(mats, spans):
        np.matmul(mat, F[span], out=out[span])
    return out


def _absorb_norms(C: np.ndarray, *normalized: np.ndarray) -> None:
    """Normalize the columns of each of ``normalized`` in place, absorbing
    their norms into C's columns."""
    for F in normalized:
        norms = np.linalg.norm(F, axis=-2, keepdims=True)
        ok = norms > np.finfo(np.float64).tiny
        np.divide(F, norms, out=F, where=ok)
        np.multiply(C, norms, out=C, where=ok)


def _update(F, G, mode: int, rhs: np.ndarray) -> np.ndarray:
    """Solve mode's factor of every member from its right-hand side and
    refresh its Gram; returns the Gram product the solve inverted."""
    a, b = (m for m in range(3) if m != mode)
    gram = G[a] * G[b]
    F[mode] = _solve(rhs, gram)
    G[mode] = _gram(F[mode])
    return gram


def _als_sweep(mats, spans, F, G, n):
    """One ALS sweep of every member, updating the factors in the list F
    and their Grams in G in the order n (the largest mode), o1, o2.

    Mode n's right-hand side is the tensor times the Khatri-Rao product of
    F[o1] and F[o2].  Then ``Z = X x_n F[n]^T``, ``(M, d_o1, d_o2, R)``,
    contracted with one factor, gives each other mode's.  Nothing is
    rescaled.  Returns mode o2, its right-hand side and Gram product."""
    o1, o2 = (m for m in range(3) if m != n)
    _update(F, G, n, _stacked_products(mats, spans, _khatri_rao(F[o1], F[o2])))
    Z = _stacked_products([mat.T for mat in mats], spans, F[n])
    Z = Z.reshape(len(Z), F[o1].shape[-2], F[o2].shape[-2], -1)
    _update(F, G, o1, np.einsum("mpqr,mqr->mpr", Z, F[o2]))
    rhs = np.einsum("mpqr,mpr->mqr", Z, F[o1])
    return o2, rhs, _update(F, G, o2, rhs)


def _identity_norms(norms, rhs, F, gram_others, gram_f) -> np.ndarray:
    """Residual norm of every member from the Gram identity
    ``||X||^2 - 2<M, F> + sum(G_others * G_F)``, F being the last-updated
    factor, M its right-hand side (its MTTKRP in exact arithmetic); each
    sum is an ``np.add.reduce`` over the row-major flattened product."""
    cross = np.add.reduce((rhs * F).reshape(len(F), -1), axis=-1)
    model = np.add.reduce((gram_others * gram_f).reshape(len(F), -1), axis=-1)
    return np.sqrt(np.maximum(norms * norms - 2.0 * cross + model, 0.0))


def _live_tensors(mats, live: np.ndarray, restarts: int):
    """Matrices of the tensors with live members, and the contiguous run
    of live members that fits each."""
    owners = live // restarts
    starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
    ends = np.r_[starts[1:], len(owners)]
    spans = [slice(a, b) for a, b in zip(starts.tolist(), ends.tolist())]
    return [mats[t] for t in owners[starts].tolist()], spans


# Below this relative error the Gram identity is mostly cancellation noise,
# of order sqrt(eps), so such members take the explicit residual.
_EXPLICIT_RESIDUAL_BELOW = 1e-5


def max_feasible_cp_rank(dims: tuple[int, int, int]) -> int:
    """Largest R for which the ALS subproblems are not underdetermined."""
    i, j, k = dims
    return min(j * k, i * k, i * j)


def check_cp_rank(rank: int, dims: tuple[int, int, int]) -> int:
    """``rank`` as an int; :class:`ConfigError` unless in [1, :func:`max_feasible_cp_rank`]."""
    feasible = max_feasible_cp_rank(dims)
    try:
        return check_int(rank, "rank", 1, feasible)
    except ConfigError:
        raise ConfigError(
            f"rank {rank!r} is infeasible for dims {dims} (must be an integer in [1, {feasible}])"
        ) from None


def cp_als(X: DenseTensor3, R: int, cfg: FitConfig = FitConfig()) -> CpModel:
    """Fit an R-component CP model by alternating least squares.

    Each sweep solves the three linear least-squares problems for the
    factors, largest mode first (the first on ties), then the two others
    in mode order.  Each right-hand side is multiplied by the inverse of
    the R x R Hadamard product of the two other factors' Grams (its
    pseudoinverse if exactly singular), so the reconstruction error never
    rises from sweep to sweep.
    Two tensor-sized products per sweep, both along the largest mode, give
    the right-hand sides: one with the Khatri-Rao product of the two other
    factors, one with that mode's factor alone, whose result serves the two
    other modes.  Factors start from uniform(-1, 1) entries,
    ``cfg.restarts`` times, and the best fit is returned.  Non-convergence
    within ``cfg.max_iterations`` is reported through ``converged=False``,
    not as an error.  The error behind the stopping rule and ``fit`` comes
    from the Gram identity, O(KR + R^2) per sweep; below 1e-5, from the
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
    dozen numpy calls for the whole batch plus its two tensor-sized
    products per tensor, instead of a few dozen per member.  Members
    leave the stacks as they finish; copies of their factors then take
    the :class:`CpModel` norm convention, the one place it is applied.

    Raises ``ShapeError`` when the tensors' dims differ, ``ConfigError``
    when :func:`check_cp_rank` rejects R, and ``ValueError`` for an
    all-zero tensor, naming its index in a batch of two or more.
    """
    tensors = list(tensors)
    seeds = [check_seed(s, f"seeds[{t}]") for t, s in enumerate(seeds)]
    if not tensors:
        raise ValueError("cp_als_batch needs at least one tensor")
    if len(seeds) != len(tensors):
        raise ValueError(f"got {len(seeds)} seeds for {len(tensors)} tensors")
    dims = tensors[0].dims
    for t, X in enumerate(tensors):
        if X.dims != dims:
            raise ShapeError(f"tensor {t} has dims {X.dims}, tensor 0 has {dims}")
    R = check_cp_rank(R, dims)
    norms = [frobenius_norm(X) for X in tensors]
    for t, norm_x in enumerate(norms):
        if norm_x == 0.0:
            where = f" (tensor {t})" if len(tensors) > 1 else ""
            raise ValueError(f"cannot fit a CP model to the all-zero tensor{where}")

    restarts = cfg.restarts
    members = len(tensors) * restarts
    F = [np.empty((members, d, R)) for d in dims]
    for m in range(members):
        t, restart = divmod(m, restarts)
        rng = np.random.default_rng(np.random.SeedSequence((seeds[t], restart)))
        for factor, d in zip(F, dims):
            factor[m] = rng.uniform(-1.0, 1.0, (d, R))

    # The largest mode's matrix, columns ordered as the Khatri-Rao product
    # of the two other factors.  DenseTensor3 data is C-ordered, so this is
    # a free view when the first mode is the largest (every benchmark input
    # and compressed sample); a tensor whose largest mode is second or
    # third is copied once per call.
    n = dims.index(max(dims))
    mats = [np.moveaxis(X.data, n, 0).reshape(dims[n], -1) for X in tensors]
    live = np.arange(members)
    live_mats, spans = _live_tensors(mats, live, restarts)
    G = [_gram(factor) for factor in F]
    live_norms = np.repeat(norms, restarts)
    prev_err = np.full(members, np.inf)
    fits: list[CpModel] = [None] * members  # type: ignore[list-item]
    for sweep in range(cfg.max_iterations):
        last, rhs, gram = _als_sweep(live_mats, spans, F, G, n)
        A, B, C = F
        err = _identity_norms(live_norms, rhs, F[last], gram, G[last]) / live_norms
        for k in np.flatnonzero(err < _EXPLICIT_RESIDUAL_BELOW):
            # ||X_(1) - A (B kr C)^T|| on the mode-1 view, the product
            # overwritten by the residual.
            residual = A[k] @ _khatri_rao(B[k], C[k]).T
            X1 = tensors[live[k] // restarts].data.reshape(dims[0], -1)
            np.subtract(X1, residual, out=residual)
            err[k] = np.linalg.norm(residual) / live_norms[k]
        converged = np.abs(prev_err - err) <= cfg.rel_tolerance
        prev_err = err
        done = converged | (sweep + 1 == cfg.max_iterations)
        if not done.any():
            continue
        for k in np.flatnonzero(done):
            # The model's convention: unit-norm A and B columns, norms in C.
            a, b, c = A[k].copy(), B[k].copy(), C[k].copy()
            _absorb_norms(c, a, b)
            fits[live[k]] = CpModel(A=a, B=b, C=c, fit=1.0 - float(err[k]),
                                    iterations=sweep + 1, converged=bool(converged[k]))
        if done.all():
            break
        keep = ~done
        F, G = [f[keep] for f in F], [g[keep] for g in G]
        live, live_norms, prev_err = live[keep], live_norms[keep], prev_err[keep]
        live_mats, spans = _live_tensors(mats, live, restarts)

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

    Initializes the mode-2 and mode-3 factors with the leading left
    singular subspaces of their unfoldings (HOSVD), then refines all three
    by orthogonal iteration (HOOI), whose first step gives mode 1, until the
    relative fit change drops below ``cfg.rel_tolerance``.  The all-zero
    tensor runs no sweep and keeps all three HOSVD factors.  A leading
    subspace comes from the eigendecomposition of the unfolding's Gram
    matrix when the unfolding is wide and from its SVD when it is tall.
    The procedure is deterministic; ``cfg.seed`` and ``cfg.restarts`` have
    no effect on the result.
    """
    _, target = _check_target(X.dims, target)

    norm_x = frobenius_norm(X)
    # The products run on raw arrays: X is finite, and so is every product.
    data = X.data
    converged = norm_x == 0.0
    # HOOI's first step replaces the mode-1 factor without reading it, and
    # max_iterations >= 1, so HOSVD starts mode 1 only when no sweep runs.
    factors = [_leading_singular_vectors(_unfold(data, m), target[m - 1])
               if m > 1 or converged else None for m in (1, 2, 3)]
    core = np.zeros(target)  # the core of the all-zero tensor
    iterations = 0
    prev_err = np.inf
    while iterations < cfg.max_iterations and not converged:
        iterations += 1
        Y = _mode_product(_mode_product(data, factors[1].T, 2), factors[2].T, 3)
        factors[0] = _leading_singular_vectors(_unfold(Y, 1), target[0])
        # Y = X x1 A^T serves both the mode-2 and the mode-3 step.
        Y = _mode_product(data, factors[0].T, 1)
        factors[1] = _leading_singular_vectors(
            _unfold(_mode_product(Y, factors[2].T, 3), 2), target[1]
        )
        Y = _mode_product(Y, factors[1].T, 2)
        factors[2] = _leading_singular_vectors(_unfold(Y, 3), target[2])
        # Y = X x1 A^T x2 B^T, so this is the core of the current factors.
        core = _mode_product(Y, factors[2].T, 3)
        # With orthonormal factors the residual satisfies
        # ||X - rec||^2 = ||X||^2 - ||core||^2; cheap enough per sweep.
        core_norm = float(np.linalg.norm(core.ravel()))
        err = float(np.sqrt(max(norm_x**2 - core_norm**2, 0.0))) / norm_x
        if abs(prev_err - err) <= cfg.rel_tolerance:
            converged = True
        prev_err = err

    return TuckerModel(
        core=DenseTensor3(core),
        A=factors[0],
        B=factors[1],
        C=factors[2],
        iterations=iterations,
        converged=converged,
    )


def pseudoinverse(M) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``max(rows, cols) * eps *
    largest_singular_value`` are treated as zero, so the zero matrix maps
    to the zero matrix of transposed shape.
    """
    return pseudoinverse_and_rank(as_matrix(M, "M"))[0]


def pseudoinverse_and_rank(M: np.ndarray) -> tuple[np.ndarray, int]:
    """:func:`pseudoinverse` of a matrix :func:`as_matrix` has checked, and the
    number of singular values it kept, the numerical rank of M, from one SVD."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    tol = max(M.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    inv = np.zeros_like(s)
    keep = s > tol
    inv[keep] = 1.0 / s[keep]
    return Vt.T @ (inv[:, None] * U.T), int(np.count_nonzero(keep))
