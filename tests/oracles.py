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
    batched engine must reproduce its models bit for bit."""
    from corcomp import CpModel, frobenius_norm, unfold

    def khatri_rao(P, Q):
        return (P[:, None, :] * Q[None, :, :]).reshape(-1, P.shape[1])

    def solve(unf, kr, gram):
        rhs = unf @ kr
        try:
            return np.linalg.solve(gram, rhs.T).T
        except np.linalg.LinAlgError:
            return (np.linalg.pinv(gram) @ rhs.T).T

    def absorb_norms(F, C):
        norms = np.linalg.norm(F, axis=0)
        ok = norms > np.finfo(np.float64).tiny
        F[:, ok] /= norms[ok]
        C[:, ok] *= norms[ok]

    norm_x = frobenius_norm(X)
    unfs = [unfold(X, m) for m in (1, 2, 3)]
    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, restart)))
        A, B, C = (rng.uniform(-1.0, 1.0, (d, R)) for d in X.dims)
        history = []
        converged = False
        prev_err = np.inf
        for _ in range(cfg.max_iterations):
            A = solve(unfs[0], khatri_rao(C, B), (C.T @ C) * (B.T @ B))
            absorb_norms(A, C)
            B = solve(unfs[1], khatri_rao(C, A), (C.T @ C) * (A.T @ A))
            absorb_norms(B, C)
            kr3 = khatri_rao(B, A)
            C = solve(unfs[2], kr3, (B.T @ B) * (A.T @ A))
            err = float(np.linalg.norm(unfs[2] - C @ kr3.T)) / norm_x
            history.append(err)
            if abs(prev_err - err) <= cfg.rel_tolerance:
                converged = True
                break
            prev_err = err
        model = CpModel(A=A, B=B, C=C, fit=1.0 - history[-1], iterations=len(history),
                        converged=converged, error_history=tuple(history))
        if best is None or model.fit > best.fit:
            best = model
    return best
