from dataclasses import replace
import itertools
import re

import numpy as np
import pytest

from corcomp import (
    ConfigError,
    DenseTensor3,
    FitConfig,
    ShapeError,
    SynthSpec,
    compress,
    cp_als,
    fold,
    frobenius_norm,
    gaussian_operator,
    orthonormal_operator,
    pseudoinverse,
    reconstruct_cp,
    reconstruct_tucker,
    superdiagonal_identity,
    synth_tensor,
    tucker3,
    tucker_operator,
)
import corcomp.decomp as decomp
from corcomp.decomp import cp_als_batch
from oracles import (
    cp_als_loop_oracle,
    cp_fit_oracle,
    leading_left_singular_vectors_oracle,
    tucker_residual_oracle,
)

TIGHT = FitConfig(max_iterations=2000, rel_tolerance=1e-12, restarts=3, seed=0)


def random_cp_tensor(dims, rank, seed):
    rng = np.random.default_rng(seed)
    A, B, C = (rng.standard_normal((d, rank)) for d in dims)
    return reconstruct_cp(A, B, C), (A, B, C)


class TestCpAls:
    def test_recovers_exact_instance(self):
        X, _ = random_cp_tensor((4, 5, 6), 2, seed=1)
        model = cp_als(X, 2, TIGHT)
        assert model.fit >= 1 - 1e-8
        assert model.converged

    def test_rank_one_recovery_up_to_scaling(self):
        rng = np.random.default_rng(2)
        a, b, c = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(6)
        X = reconstruct_cp(a[:, None], b[:, None], c[:, None])
        model = cp_als(X, 1, TIGHT)
        rec = reconstruct_cp(model.A, model.B, model.C)
        rel = frobenius_norm(DenseTensor3(X.data - rec.data)) / frobenius_norm(X)
        assert rel <= 1e-8

    def test_zero_tensor_is_an_error(self):
        with pytest.raises(ValueError, match="zero"):
            cp_als(DenseTensor3(np.zeros((3, 3, 3))), 1, TIGHT)

    def test_infeasible_rank(self):
        X, _ = random_cp_tensor((2, 2, 2), 1, seed=3)
        with pytest.raises(ConfigError, match=r"rank 5 is infeasible for dims \(2, 2, 2\)"):
            cp_als(X, 5, TIGHT)

    def test_fractional_rank_is_rejected_not_truncated(self):
        X, _ = random_cp_tensor((4, 5, 6), 3, seed=3)
        with pytest.raises(ValueError, match="2.7"):
            cp_als(X, 2.7, TIGHT)
        with pytest.raises(ConfigError, match="2.5"):
            decomp.check_cp_rank(2.5, X.dims)
        model = cp_als(X, np.int64(3), replace(TIGHT, max_iterations=20))
        assert model.A.shape == (4, 3)

        # Every integer setting of a fit and every shape argument:
        # (name, fractional value, numpy value, build, the stored value or None).
        short = replace(TIGHT, max_iterations=5)
        rows = [
            ("max_iterations", 2.5, 20, lambda v: FitConfig(max_iterations=v),
             lambda c: c.max_iterations),
            ("restarts", 1.5, 2, lambda v: FitConfig(restarts=v), lambda c: c.restarts),
            ("seed", 1.7, 1, lambda v: FitConfig(seed=v), lambda c: c.seed),
            ("seeds[0]", 2.7, 2, lambda v: cp_als_batch([X], 2, short, [v]), None),
            ("rank", 2.7, 2, lambda v: cp_als(X, v, short), None),
            ("rank", 2.5, 2, lambda v: decomp.check_cp_rank(v, X.dims), lambda r: r),
            ("R", 2.5, 2, superdiagonal_identity, lambda G: G.dims[0]),
            ("target dim", 5.9, 5, lambda v: gaussian_operator((12, 10, 6), (v, 5, 6), 0),
             lambda op: op.target_dims[0]),
            ("dim", 2.5, 2, lambda v: DenseTensor3.from_flat(range(8), (v, 4, 1)),
             lambda T: T.dims[0]),
            ("dim", 2.5, 2, lambda v: fold(np.zeros((2, 4)), 1, (v, 2, 2)),
             lambda T: T.dims[0]),
        ]
        for name, fractional, whole, build, stored in rows:
            for bad in (fractional, True):  # a bool is not a count
                with pytest.raises(ConfigError, match=f"{re.escape(name)} .*{bad}"):
                    build(bad)
            out = build(np.int64(whole))
            if stored is not None:
                assert type(stored(out)) is int and stored(out) == whole, name

    def test_best_fit_never_falls_with_more_sweeps(self):
        rng = np.random.default_rng(4)
        X = DenseTensor3(rng.standard_normal((5, 6, 7)))
        cfg = FitConfig(rel_tolerance=1e-300, restarts=2)
        fits = [cp_als(X, 3, replace(cfg, max_iterations=n)).fit for n in range(1, 41)]
        for prev, cur in zip(fits, fits[1:]):
            assert cur >= prev - 1e-12

    def test_stored_fit_matches_recomputation(self):
        rng = np.random.default_rng(5)
        X = DenseTensor3(rng.standard_normal((6, 5, 4)))
        model = cp_als(X, 2, FitConfig(max_iterations=300, rel_tolerance=1e-10, restarts=2))
        assert abs(cp_fit_oracle(X.data, model.A, model.B, model.C) - model.fit) <= 1e-10

    def test_bit_reproducible(self):
        rng = np.random.default_rng(6)
        X = DenseTensor3(rng.standard_normal((5, 4, 3)))
        cfg = FitConfig(max_iterations=50, rel_tolerance=1e-9, restarts=2, seed=7)
        m1 = cp_als(X, 2, cfg)
        m2 = cp_als(X, 2, cfg)
        assert np.array_equal(m1.A, m2.A)
        assert np.array_equal(m1.B, m2.B)
        assert np.array_equal(m1.C, m2.C)
        assert m1.fit == m2.fit

    def test_iteration_cap_does_not_size_memory(self):
        # Nothing is allocated per allowed sweep, only per sweep run.
        X = DenseTensor3(np.random.default_rng(9).standard_normal((4, 5, 6)))
        model = cp_als(X, 2, FitConfig(max_iterations=10**11, rel_tolerance=1e-8, restarts=2))
        assert model.converged
        assert model.iterations < 10**4

    def test_nonconvergence_is_flagged_not_raised(self):
        rng = np.random.default_rng(8)
        X = DenseTensor3(rng.standard_normal((6, 6, 6)))
        model = cp_als(X, 3, FitConfig(max_iterations=2, rel_tolerance=1e-15, restarts=1))
        assert not model.converged
        assert model.iterations == 2


def assert_same_model(got, want):
    assert np.array_equal(got.A, want.A)
    assert np.array_equal(got.B, want.B)
    assert np.array_equal(got.C, want.C)
    assert got.fit == want.fit
    assert got.iterations == want.iterations
    assert got.converged == want.converged


class TestCpAlsBatch:
    CFG = FitConfig(max_iterations=40, rel_tolerance=1e-10, restarts=2)

    def test_members_match_one_tensor_fits(self):
        rng = np.random.default_rng(41)
        exact, _ = random_cp_tensor((6, 5, 4), 2, seed=40)
        tensors = [
            exact,
            DenseTensor3(exact.data + 0.05 * rng.standard_normal((6, 5, 4))),
            DenseTensor3(rng.standard_normal((6, 5, 4))),
        ]
        seeds = [3, 4, 5]
        batch = cp_als_batch(tensors, 2, self.CFG, seeds)
        for got, X, seed in zip(batch, tensors, seeds):
            assert_same_model(got, cp_als(X, 2, replace(self.CFG, seed=seed)))
        assert len({m.iterations for m in batch}) == 3
        capped = [m for m in batch if m.iterations == self.CFG.max_iterations]
        assert len(capped) == 1 and not capped[0].converged

    def test_matches_sequential_loop(self):
        # Bits depend on memory layouts, so cover each way a tensor is made:
        # compressed (n-mode products), C-ordered and F-ordered (file) data.
        X, _ = random_cp_tensor((12, 9, 5), 3, seed=45)
        rng = np.random.default_rng(46)
        noisy = X.data + 0.1 * rng.standard_normal(X.dims)
        op = orthonormal_operator(X.dims, (6, 4, 5), seed=47)
        # The paper protocol's two smallest targets, ratios 0.04 and 0.08:
        # a unit mode, and a rank above a mode's size.
        P, _ = random_cp_tensor((268, 44, 7), 3, seed=48)
        paper = DenseTensor3(P.data + 0.05 * rng.standard_normal(P.dims))
        # Transposes put the largest mode second and third.
        tensors = [
            compress(DenseTensor3(noisy), op),
            DenseTensor3(noisy),
            DenseTensor3.from_flat(noisy.ravel(order="F"), X.dims),
            DenseTensor3(noisy.transpose(1, 0, 2)),
            DenseTensor3(noisy.transpose(2, 1, 0)),
            compress(paper, orthonormal_operator(paper.dims, (10, 1, 7), seed=49)),
            compress(paper, orthonormal_operator(paper.dims, (21, 3, 7), seed=50)),
        ]
        for R in (1, 3):
            for Xt in tensors:
                cfg = replace(self.CFG, seed=R)
                assert_same_model(cp_als(Xt, R, cfg), cp_als_loop_oracle(Xt, R, cfg))

    def test_pinv_fallback_stays_with_its_member(self, monkeypatch):
        # One nonzero entry makes every factor a signed unit vector, so the
        # third Gram matrix of the first sweep is exactly singular.
        spike = np.zeros((4, 3, 3))
        spike[0, 0, 0] = 2.5
        rng = np.random.default_rng(42)
        tensors = [
            DenseTensor3(rng.standard_normal((4, 3, 3))),
            DenseTensor3(spike),
            DenseTensor3(rng.standard_normal((4, 3, 3))),
        ]
        seeds = [6, 7, 8]
        pinv_calls = []
        real_pinv = np.linalg.pinv

        def counting_pinv(M, *args, **kwargs):
            pinv_calls.append(M)
            return real_pinv(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
        batch = cp_als_batch(tensors, 2, self.CFG, seeds)
        in_batch = len(pinv_calls)
        alone = [cp_als(X, 2, replace(self.CFG, seed=s)) for X, s in zip(tensors, seeds)]
        assert in_batch > 0
        assert len(pinv_calls) == 2 * in_batch  # every call came from the spike
        for got, want in zip(batch, alone):
            assert_same_model(got, want)
        assert_same_model(batch[1], cp_als_loop_oracle(tensors[1], 2, replace(self.CFG, seed=7)))

    def test_members_below_the_guard_match_the_loop(self):
        X, _ = random_cp_tensor((12, 9, 5), 3, seed=48)
        noisy = DenseTensor3(X.data + 0.1 * np.random.default_rng(49).standard_normal(X.dims))
        cfg = replace(self.CFG, restarts=3, seed=9)
        batch = cp_als_batch([noisy, X], 3, cfg, [9, 10])
        for got, Xt, seed in zip(batch, (noisy, X), (9, 10)):
            assert_same_model(got, cp_als_loop_oracle(Xt, 3, replace(cfg, seed=seed)))
        # The exact fit ends on the explicit residual, the noisy one on the identity.
        assert 1 - batch[1].fit < decomp._EXPLICIT_RESIDUAL_BELOW
        assert 1 - batch[0].fit >= decomp._EXPLICIT_RESIDUAL_BELOW

    def test_exact_fit_ends_on_the_explicit_residual(self):
        X, _ = random_cp_tensor((4, 5, 6), 2, seed=1)
        model = cp_als(X, 2, TIGHT)
        first = cp_als(X, 2, replace(TIGHT, max_iterations=1))
        # The Gram identity took the first sweep, the explicit residual the last.
        assert 1 - first.fit >= decomp._EXPLICIT_RESIDUAL_BELOW > 1 - model.fit
        assert_same_model(model, cp_als_loop_oracle(X, 2, TIGHT))
        # The identity alone gives 0 here; the stored fit is the explicit one.
        assert abs(cp_fit_oracle(X.data, model.A, model.B, model.C) - model.fit) <= 1e-14

    @pytest.mark.parametrize("shape", [(7, 5, 4), (4, 7, 5), (4, 5, 7), (6, 6, 3)])
    def test_right_hand_sides_are_the_mttkrp(self, monkeypatch, shape):
        # Every solve's right-hand side against the MTTKRP definition,
        # X_(n) times the Khatri-Rao product of the two other factors as
        # they stand when the solve runs, over three sweeps.
        rng = np.random.default_rng(50)
        tensors = [DenseTensor3(rng.standard_normal(shape)) for _ in range(2)]
        data = np.stack([X.data for X in tensors])
        specs = ("mijk,mjr,mkr->mir", "mijk,mir,mkr->mjr", "mijk,mir,mjr->mkr")
        real_sweep, real_solve = decomp._als_sweep, decomp._solve
        state, errors = {}, []

        def sweep(mats, spans, F, G, n):
            o1, o2 = (m for m in range(3) if m != n)
            state["F"], state["modes"] = F, iter((n, o1, o2))
            return real_sweep(mats, spans, F, G, n)

        def solve(rhs, gram):
            mode = next(state["modes"])
            a, b = (m for m in range(3) if m != mode)
            X = np.repeat(data, len(rhs) // len(data), axis=0)
            want = np.einsum(specs[mode], X, state["F"][a], state["F"][b])
            errors.append(np.linalg.norm(rhs - want) / np.linalg.norm(want))
            return real_solve(rhs, gram)

        monkeypatch.setattr(decomp, "_als_sweep", sweep)
        monkeypatch.setattr(decomp, "_solve", solve)
        cp_als_batch(tensors, 3, FitConfig(max_iterations=3, restarts=2), [0, 1])
        assert len(errors) == 9
        assert max(errors) <= 1e-12

    def test_mode_order_does_not_change_the_fit(self):
        # Each order puts the largest mode elsewhere; the optimum is one.
        rng = np.random.default_rng(51)
        A, B, C = (np.linalg.qr(rng.standard_normal((d, 3)))[0] for d in (10, 7, 5))
        X = reconstruct_cp(A * [3.0, 2.0, 1.5], B, C).data
        X = X + 0.05 * np.linalg.norm(X) / np.sqrt(X.size) * rng.standard_normal(X.shape)
        fits = [cp_als(DenseTensor3(X.transpose(p)), 3, TIGHT).fit
                for p in itertools.permutations(range(3))]
        assert max(fits) - min(fits) <= 1e-10

    def test_a_and_b_columns_have_unit_norm(self):
        # The model's convention, which the diagnostic's value depends on:
        # every nonzero column of A and B has unit norm, the norms in C.
        X, _ = random_cp_tensor((9, 7, 5), 3, seed=53)
        noisy = DenseTensor3(X.data + 0.1 * np.random.default_rng(54).standard_normal(X.dims))
        last = DenseTensor3(noisy.data.transpose(2, 1, 0))  # largest mode last
        models = [cp_als(Y, R, self.CFG) for Y, R in ((noisy, 3), (noisy, 5), (last, 3))]
        # One restart each, so the batch returns every member it fits.
        models += cp_als_batch([noisy, X, noisy], 4, replace(self.CFG, restarts=1), [1, 2, 3])
        for model in models:
            for F in (model.A, model.B):
                norms = np.linalg.norm(F, axis=0)
                assert np.max(np.abs(norms[norms > 0] - 1.0), initial=0.0) <= 1e-12

    def test_mixed_dims_rejected(self):
        rng = np.random.default_rng(43)
        tensors = [DenseTensor3(rng.standard_normal(d)) for d in ((4, 3, 3), (4, 3, 2))]
        with pytest.raises(ShapeError):
            cp_als_batch(tensors, 1, self.CFG, [0, 1])
        with pytest.raises(ValueError, match="got 1 seeds for 2 tensors"):
            cp_als_batch(tensors, 1, self.CFG, [0])
        with pytest.raises(ValueError, match="at least one tensor"):
            cp_als_batch([], 1, self.CFG, [])

    def test_zero_tensor_named_by_index(self):
        rng = np.random.default_rng(44)
        tensors = [
            DenseTensor3(rng.standard_normal((3, 3, 3))),
            DenseTensor3(np.zeros((3, 3, 3))),
        ]
        with pytest.raises(ValueError, match=r"zero tensor \(tensor 1\)"):
            cp_als_batch(tensors, 1, self.CFG, [0, 1])
        with pytest.raises(ValueError, match=r"zero tensor$"):
            cp_als_batch(tensors[1:], 1, self.CFG, [1])


class TestFactorUpdate:
    # (distance of the last column from the first, range of the Gram
    # product's condition number, relative tolerance against lstsq).  An
    # overfactored fit has nearly collinear components.  The update works
    # on the normal equations and loses about cond * 2.2e-16; lstsq works
    # on the Khatri-Rao product, whose condition number is sqrt(cond).
    CASES = [(1.0, (1.0, 1e3), 1e-13), (1e-4, (1e7, 1e9), 1e-6)]

    @pytest.mark.parametrize("spread, cond_range, rtol", CASES)
    def test_matches_lstsq_of_each_member(self, spread, cond_range, rtol):
        rng = np.random.default_rng(52)
        Fa, Fb = (rng.standard_normal((3, d, 4)) for d in (9, 7))
        for F in (Fa, Fb):
            F[..., -1] = F[..., 0] + spread * rng.standard_normal(F.shape[:-1])
        K = decomp._khatri_rao(Fa, Fb)
        target = rng.standard_normal((3, 20, K.shape[-2]))
        gram = decomp._gram(Fa) * decomp._gram(Fb)
        assert all(cond_range[0] < np.linalg.cond(g) < cond_range[1] for g in gram)
        got = decomp._solve(target @ K, gram)
        for m in range(len(K)):
            # The member's problem: min ||target - F K^T|| over F.
            want = np.linalg.lstsq(K[m], target[m].T, rcond=None)[0].T
            assert np.linalg.norm(got[m] - want) <= rtol * np.linalg.norm(want)


class TestTucker3:
    def test_exact_tucker_instance(self):
        rng = np.random.default_rng(10)
        G = DenseTensor3(rng.standard_normal((2, 2, 2)))
        Q = [np.linalg.qr(rng.standard_normal((n, 2)))[0] for n in (6, 5, 4)]
        X = reconstruct_tucker(G, *Q)
        model = tucker3(X, (2, 2, 2), TIGHT)
        assert tucker_residual_oracle(X.data, model) <= 1e-8

    def test_full_dims_is_lossless(self):
        rng = np.random.default_rng(11)
        X = DenseTensor3(rng.standard_normal((4, 5, 6)))
        model = tucker3(X, (4, 5, 6), TIGHT)
        assert tucker_residual_oracle(X.data, model) <= 1e-10

    def test_cp_rank3_tensor_has_exact_333_tucker(self):
        X, _ = random_cp_tensor((8, 7, 6), 3, seed=12)
        model = tucker3(X, (3, 3, 3), TIGHT)
        rec = reconstruct_tucker(model.core, model.A, model.B, model.C)
        rel = frobenius_norm(DenseTensor3(X.data - rec.data)) / frobenius_norm(X)
        assert rel <= 1e-8

    def test_factors_orthonormal(self):
        rng = np.random.default_rng(13)
        X = DenseTensor3(rng.standard_normal((6, 5, 4)))
        model = tucker3(X, (3, 2, 2), TIGHT)
        for F in (model.A, model.B, model.C):
            assert np.max(np.abs(F.T @ F - np.eye(F.shape[1]))) <= 1e-10

    def test_core_is_projected_tensor(self):
        rng = np.random.default_rng(14)
        X = DenseTensor3(rng.standard_normal((6, 5, 4)))
        model = tucker3(X, (3, 2, 2), TIGHT)
        expected = X
        from corcomp import n_mode_product

        for mode, F in zip((1, 2, 3), (model.A, model.B, model.C)):
            expected = n_mode_product(expected, F.T, mode)
        assert np.array_equal(model.core.data, expected.data)

    def test_target_exceeding_dims(self):
        rng = np.random.default_rng(15)
        X = DenseTensor3(rng.standard_normal((3, 4, 5)))
        with pytest.raises(ShapeError):
            tucker3(X, (4, 4, 4), TIGHT)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(16)
        X = DenseTensor3(rng.standard_normal((5, 5, 5)))
        m1 = tucker3(X, (2, 2, 2), FitConfig(seed=1))
        m2 = tucker3(X, (2, 2, 2), FitConfig(seed=99))
        assert np.array_equal(m1.core.data, m2.core.data)


def projector(U):
    return U @ U.T


def assert_orthonormal_columns(U, tol):
    assert np.max(np.abs(U.T @ U - np.eye(U.shape[1]))) <= tol


class TestLeadingSubspace:
    @pytest.mark.parametrize("shape, k", [((8, 30), 3), ((8, 30), 8), ((10, 10), 4), ((10, 10), 10)])
    def test_gram_path_spans_the_oracle_subspace(self, shape, k):
        M = np.random.default_rng(50).standard_normal(shape)
        U = decomp._leading_singular_vectors(M, k)
        want = leading_left_singular_vectors_oracle(M, k)
        assert U.shape == want.shape
        assert_orthonormal_columns(U, 1e-12)
        assert np.max(np.abs(projector(U) - projector(want))) <= 1e-9

    def test_exactly_low_rank_wide(self):
        rng = np.random.default_rng(51)
        M = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 40))
        for k in (2, 3, 5, 6):  # below, at and above the rank; k == rows
            U = decomp._leading_singular_vectors(M, k)
            assert U.shape == (6, k)
            assert_orthonormal_columns(U, 1e-12)
            # Only the leading min(k, rank) directions have a spectral gap.
            lead = min(k, 3)
            want = leading_left_singular_vectors_oracle(M, lead)
            assert np.max(np.abs(projector(U[:, :lead]) - projector(want))) <= 1e-9

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_tall_path_is_the_svd(self, k):
        M = np.random.default_rng(52).standard_normal((30, 8))
        U = decomp._leading_singular_vectors(M, k)
        assert np.array_equal(U, leading_left_singular_vectors_oracle(M, k))

    def test_tall_with_more_directions_than_columns(self):
        M = np.random.default_rng(53).standard_normal((10, 4))
        U = decomp._leading_singular_vectors(M, 6)
        assert U.shape == (10, 6)
        assert_orthonormal_columns(U, 1e-12)
        want = leading_left_singular_vectors_oracle(M, 4)
        assert np.max(np.abs(projector(U[:, :4]) - projector(want))) <= 1e-9


class TestTucker3SubspaceSteps:
    def test_matches_svd_steps(self, monkeypatch):
        X = synth_tensor(SynthSpec(dims=(240, 64, 12), rank=4, noise_level=0.05, seed=3))
        cfg = FitConfig(max_iterations=200, rel_tolerance=1e-7)
        target = (120, 32, 12)
        got = tucker3(X, target, cfg)
        monkeypatch.setattr(
            decomp, "_leading_singular_vectors", leading_left_singular_vectors_oracle
        )
        want = tucker3(X, target, cfg)
        assert got.iterations == want.iterations
        residuals = [tucker_residual_oracle(X.data, model) for model in (got, want)]
        assert abs(residuals[0] - residuals[1]) <= 1e-12
        for F, G in zip((got.A, got.B, got.C), (want.A, want.B, want.C)):
            assert np.max(np.abs(projector(F) - projector(G))) <= 1e-9

    def test_hosvd_skips_the_mode_1_subspace_hooi_overwrites(self, monkeypatch):
        X = synth_tensor(SynthSpec(dims=(30, 20, 8), rank=3, noise_level=0.05, seed=4))
        real, calls = decomp._leading_singular_vectors, []

        def counting(M, k):
            calls.append(M.shape)
            return real(M, k)

        monkeypatch.setattr(decomp, "_leading_singular_vectors", counting)
        model = tucker3(X, (15, 10, 8), FitConfig(rel_tolerance=1e-7))
        assert model.iterations >= 2
        assert len(calls) == 2 + 3 * model.iterations
        assert calls[:2] == [(20, 240), (8, 600)]  # HOSVD of modes 2 and 3 only

    def test_zero_tensor(self):
        X = DenseTensor3(np.zeros((6, 5, 4)))
        model = tucker3(X, (3, 2, 2), TIGHT)
        for F in (model.A, model.B, model.C):
            assert_orthonormal_columns(F, 1e-12)
        assert model.converged
        assert model.core.dims == (3, 2, 2)
        assert np.all(model.core.data == 0.0)
        op = tucker_operator(X, (3, 2, 2), TIGHT)  # passes the 1e-10 row check
        assert op.target_dims == (3, 2, 2)

    def test_core_wider_than_the_other_modes(self):
        # P = 5 exceeds Q * R = 4, so the mode-1 step's unfolding is tall
        # with fewer columns than the directions asked for.
        X = DenseTensor3(np.random.default_rng(54).standard_normal((10, 2, 2)))
        model = tucker3(X, (5, 2, 2), TIGHT)
        assert model.A.shape == (10, 5)
        assert model.core.dims == (5, 2, 2)
        assert_orthonormal_columns(model.A, 1e-10)
        assert tucker_residual_oracle(X.data, model) <= 1e-10


def penrose_conditions_hold(M, P, tol=1e-10):
    scale = max(1.0, np.linalg.norm(M))
    pscale = max(1.0, np.linalg.norm(P))
    return (
        np.max(np.abs(M @ P @ M - M)) <= tol * scale
        and np.max(np.abs(P @ M @ P - P)) <= tol * pscale
        and np.max(np.abs((M @ P).T - M @ P)) <= tol
        and np.max(np.abs((P @ M).T - P @ M)) <= tol
    )


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(pseudoinverse(np.eye(4)), np.eye(4), atol=1e-14)

    def test_orthonormal_rows_give_transpose(self):
        rng = np.random.default_rng(30)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        U = Q.T  # 3x8 with orthonormal rows
        assert np.max(np.abs(pseudoinverse(U) - U.T)) <= 1e-10

    def test_tall_full_rank_left_inverse(self):
        rng = np.random.default_rng(31)
        M = rng.standard_normal((5, 3))
        assert np.max(np.abs(pseudoinverse(M) @ M - np.eye(3))) <= 1e-10

    def test_zero_matrix(self):
        P = pseudoinverse(np.zeros((3, 5)))
        assert P.shape == (5, 3)
        assert np.all(P == 0.0)

    def test_penrose_on_random_and_rank_deficient(self):
        rng = np.random.default_rng(32)
        for trial in range(40):
            rows = int(rng.integers(1, 10))
            cols = int(rng.integers(1, 10))
            M = rng.standard_normal((rows, cols))
            if trial % 3 == 0 and min(rows, cols) > 1:
                r = int(rng.integers(1, min(rows, cols)))
                M = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
            assert penrose_conditions_hold(M, pseudoinverse(M))
