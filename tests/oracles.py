"""Independent brute-force oracles used to check the library.

Everything here is written from the definitions with explicit index
loops or a generic dense solver, deliberately avoiding the code paths
under test.
"""

import numpy as np


def unfold_oracle(data: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n unfolding by explicit index arithmetic: remaining modes in
    increasing order, earlier mode varying fastest."""
    I, J, K = data.shape
    if mode == 1:
        M = np.zeros((I, J * K))
        for i in range(I):
            for j in range(J):
                for k in range(K):
                    M[i, j + J * k] = data[i, j, k]
    elif mode == 2:
        M = np.zeros((J, I * K))
        for i in range(I):
            for j in range(J):
                for k in range(K):
                    M[j, i + I * k] = data[i, j, k]
    else:
        M = np.zeros((K, I * J))
        for i in range(I):
            for j in range(J):
                for k in range(K):
                    M[k, i + I * j] = data[i, j, k]
    return M


def tucker_triple_sum(G: np.ndarray, A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Tucker reconstruction as the explicit triple sum of scaled outer
    products."""
    P, Q, R = G.shape
    out = np.zeros((A.shape[0], B.shape[0], C.shape[0]))
    for p in range(P):
        for q in range(Q):
            for r in range(R):
                out += G[p, q, r] * np.einsum("i,j,k->ijk", A[:, p], B[:, q], C[:, r])
    return out


def cp_fit_oracle(data: np.ndarray, A: np.ndarray, B: np.ndarray, C: np.ndarray) -> float:
    """1 - relative reconstruction error of a CP model, reconstructing
    sum_r a_r o b_r o c_r with einsum."""
    rec = np.einsum("ir,jr,kr->ijk", A, B, C)
    return 1.0 - float(np.linalg.norm(data - rec)) / float(np.linalg.norm(data))


def tucker_residual_oracle(data: np.ndarray, model) -> float:
    """Relative reconstruction error ||X - rec|| / ||X|| of a Tucker model,
    reconstructing core x1 A x2 B x3 C with einsum."""
    rec = np.einsum("pqr,ip,jq,kr->ijk", model.core.data, model.A, model.B, model.C,
                    optimize=True)
    return float(np.linalg.norm(data - rec)) / float(np.linalg.norm(data))


def core_lstsq_oracle(data: np.ndarray, A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Minimum-norm core by solving the dense least-squares system whose
    design columns are the vectorized outer products a_p o b_q o c_r."""
    P, Q, R = A.shape[1], B.shape[1], C.shape[1]
    cols = []
    for r in range(R):
        for q in range(Q):
            for p in range(P):
                cols.append(
                    np.einsum("i,j,k->ijk", A[:, p], B[:, q], C[:, r]).ravel(order="F")
                )
    design = np.stack(cols, axis=1)
    g, *_ = np.linalg.lstsq(design, data.ravel(order="F"), rcond=None)
    return g.reshape((P, Q, R), order="F")


def leading_left_singular_vectors_oracle(M: np.ndarray, k: int) -> np.ndarray:
    """The first k left singular vectors of a thin SVD, each column's
    largest-magnitude entry made positive: the subspace step HOOI took
    before it used the Gram eigendecomposition for wide unfoldings."""
    U, _, _ = np.linalg.svd(M, full_matrices=False)
    U = U[:, :k]
    signs = np.sign(U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs


def cp_als_loop_oracle(X, R: int, cfg):
    """CP-ALS one restart at a time with 2-D numpy calls: the sequential
    loop that ``cp_als_batch`` stacks.  The arithmetic is the same, so the
    batched engine must reproduce its models bit for bit.

    Each sweep updates mode n, the largest (the first on ties), then the
    two others o1 < o2.  Mode n takes its right-hand side from the moved
    tensor and the Khatri-Rao product of the two other factors.  Right
    after it, ``Z = X x_n F_n^T`` gives the two other modes' right-hand
    sides, each by contracting one small mode.  Each sweep's relative
    error comes from the Gram identity ``||X||^2 - 2<M, F_o2> + sum(G *
    F_o2^T F_o2)``, M and G being mode o2's right-hand side and Gram
    product, and from the explicit residual on the mode-1 view where that
    falls below the library's guard.  A finished restart's A and B
    columns are normalized, their norms absorbed into C."""
    from corcomp import CpModel, frobenius_norm
    from corcomp.decomp import _EXPLICIT_RESIDUAL_BELOW as guard

    def khatri_rao(P, Q):
        return (P[:, None, :] * Q[None, :, :]).reshape(-1, P.shape[1])

    def solve(rhs, gram):
        try:
            return rhs @ np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            return rhs @ np.linalg.pinv(gram)

    def absorb_norms(F, C):
        norms = np.linalg.norm(F, axis=0)
        ok = norms > np.finfo(np.float64).tiny
        F[:, ok] /= norms[ok]
        C[:, ok] *= norms[ok]

    dims = X.dims
    n = dims.index(max(dims))
    o1, o2 = (m for m in range(3) if m != n)
    Xn = np.moveaxis(X.data, n, 0).reshape(dims[n], -1)
    X1 = X.data.reshape(dims[0], -1)
    norm_x = frobenius_norm(X)
    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, restart)))
        F = [rng.uniform(-1.0, 1.0, (d, R)) for d in dims]
        history = []
        converged = False
        prev_err = np.inf
        for _ in range(cfg.max_iterations):
            for mode in (n, o1, o2):
                a, b = (m for m in range(3) if m != mode)
                gram = (F[a].T @ F[a]) * (F[b].T @ F[b])
                if mode == n:
                    rhs = Xn @ khatri_rao(F[a], F[b])
                elif mode == o1:
                    rhs = np.einsum("pqr,qr->pr", Z3, F[o2])
                else:
                    rhs = np.einsum("pqr,pr->qr", Z3, F[o1])
                F[mode] = solve(rhs, gram)
                if mode == n:
                    Z3 = (Xn.T @ F[n]).reshape(dims[o1], dims[o2], R)
            A, B, C = F
            # The Gram identity, and the explicit residual below the guard.
            cross = np.add.reduce((rhs * F[o2]).ravel())
            model = np.add.reduce((gram * (F[o2].T @ F[o2])).ravel())
            err = float(np.sqrt(max(norm_x * norm_x - 2.0 * cross + model, 0.0))) / norm_x
            if err < guard:
                err = float(np.linalg.norm(X1 - A @ khatri_rao(B, C).T)) / norm_x
            history.append(err)
            if abs(prev_err - err) <= cfg.rel_tolerance:
                converged = True
                break
            prev_err = err
        absorb_norms(A, C)
        absorb_norms(B, C)
        model = CpModel(A=A, B=B, C=C, fit=1.0 - history[-1], iterations=len(history),
                        converged=converged)
        if best is None or model.fit > best.fit:
            best = model
    return best
