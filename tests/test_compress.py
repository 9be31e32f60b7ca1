import numpy as np
import pytest

from corcomp import (
    CompressionOperator,
    ConfigError,
    DenseTensor3,
    FitConfig,
    RatioSpec,
    Scheme,
    ShapeError,
    compress,
    corcondia_from_factors,
    frobenius_norm,
    gaussian_operator,
    orthonormal_operator,
    project_onto_rowspaces,
    ratio_to_dims,
    reconstruct_cp,
    tucker3,
    tucker_operator,
)

TIGHT = FitConfig(max_iterations=2000, rel_tolerance=1e-12, restarts=2, seed=0)


def random_cp(dims, rank, seed):
    rng = np.random.default_rng(seed)
    A, B, C = (rng.standard_normal((d, rank)) for d in dims)
    return reconstruct_cp(A, B, C), (A, B, C)


class TestRatioArithmetic:
    def test_sugar_half(self):
        assert ratio_to_dims((268, 44, 7), RatioSpec(0.5)) == (134, 22, 7)

    def test_ratio_one_is_identity(self):
        assert ratio_to_dims((268, 44, 7), RatioSpec(1.0)) == (268, 44, 7)

    def test_four_percent_clamps_to_one(self):
        assert ratio_to_dims((268, 44, 7), RatioSpec(0.04)) == (10, 1, 7)

    def test_third_mode_compressible_on_request(self):
        assert ratio_to_dims((268, 44, 8), RatioSpec(0.5, frozenset({1, 2, 3}))) == (134, 22, 4)

    @pytest.mark.parametrize(
        "ratio, dim, expected", [(0.29, 100, 29), (0.57, 100, 57), (0.58, 100, 58), (0.35, 180, 63)]
    )
    def test_exact_product_is_not_floored_one_short(self, ratio, dim, expected):
        # e.g. 0.29 * 100 == 28.999999999999996 in floating point
        assert ratio_to_dims((dim, dim, 7), RatioSpec(ratio)) == (expected, expected, 7)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            RatioSpec(0.0)
        with pytest.raises(ValueError):
            RatioSpec(1.5)
        with pytest.raises(ValueError):
            RatioSpec(0.5, frozenset({0, 1}))


class TestGaussianOperator:
    def test_same_seed_identical(self):
        a = gaussian_operator((20, 15, 10), (10, 8, 5), seed=9)
        b = gaussian_operator((20, 15, 10), (10, 8, 5), seed=9)
        for Ma, Mb in zip((a.U, a.V, a.W), (b.U, b.V, b.W)):
            assert np.array_equal(Ma, Mb)
        assert a.scheme is Scheme.GAUSSIAN

    def test_standard_normal_moments(self):
        op = gaussian_operator((500, 300, 10), (100, 200, 10), seed=1)
        draws = np.concatenate([op.U.ravel(), op.V.ravel(), op.W.ravel()])
        assert draws.size >= 100_000
        assert abs(draws.mean()) <= 0.02
        assert abs(draws.var() - 1.0) <= 0.05

    def test_full_size_is_generically_invertible(self):
        op = gaussian_operator((6, 5, 4), (6, 5, 4), seed=2)
        for M in (op.U, op.V, op.W):
            assert M.shape[0] == M.shape[1]
            assert np.linalg.matrix_rank(M) == M.shape[0]

    def test_target_exceeding_dims(self):
        with pytest.raises(ShapeError):
            gaussian_operator((5, 5, 5), (6, 5, 5), seed=0)

    @pytest.mark.parametrize("seed", [True, 2.0, -1, 2**64, 2**70])
    def test_rejects_a_seed_that_is_not_a_64_bit_integer(self, seed):
        for make in (gaussian_operator, orthonormal_operator):
            with pytest.raises(ConfigError, match="seed"):
                make((5, 5, 5), (3, 3, 3), seed)

    def test_numpy_integer_seed_draws_as_int(self):
        a = gaussian_operator((5, 5, 5), (3, 3, 3), np.uint64(2**64 - 1))
        b = gaussian_operator((5, 5, 5), (3, 3, 3), 2**64 - 1)
        assert a.U.tobytes() == b.U.tobytes()


class TestOrthonormalOperator:
    def test_rows_orthonormal(self):
        op = orthonormal_operator((30, 20, 10), (12, 8, 4), seed=3)
        for M in (op.U, op.V, op.W):
            assert np.max(np.abs(M @ M.T - np.eye(M.shape[0]))) <= 1e-10

    def test_square_case_preserves_norm(self):
        rng = np.random.default_rng(4)
        X = DenseTensor3(rng.standard_normal((6, 5, 4)))
        op = orthonormal_operator(X.dims, X.dims, seed=5)
        assert frobenius_norm(compress(X, op)) == pytest.approx(
            frobenius_norm(X), rel=1e-12
        )

    def test_rowspace_matches_generating_gaussian(self):
        # same seed and draw order as the documented construction
        dims, target = (30, 20, 10), (12, 8, 4)
        op = orthonormal_operator(dims, target, seed=6)
        gauss = gaussian_operator(dims, target, seed=6)
        rng = np.random.default_rng(6)
        for M, N, (t, d) in zip((op.U, op.V, op.W), (gauss.U, gauss.V, gauss.W),
                                zip(target, dims)):
            G = rng.standard_normal((t, d))
            projector = G.T @ np.linalg.inv(G @ G.T) @ G
            assert np.max(np.abs(M.T @ M - projector)) <= 1e-10
            # exactly the orthonormalized gaussian draw of the same seed
            assert np.array_equal(M, np.linalg.qr(N.T)[0].T)


class TestTuckerOperator:
    def test_compression_equals_fitted_core(self):
        X, _ = random_cp((20, 15, 10), 3, seed=7)
        op = tucker_operator(X, (3, 3, 3), TIGHT)
        model = tucker3(X, (3, 3, 3), TIGHT)
        assert np.array_equal(compress(X, op).data, model.core.data)
        assert op.scheme is Scheme.TUCKER

    def test_exact_rank3_core_preserves_corcondia(self):
        X, (A, B, C) = random_cp((20, 15, 10), 3, seed=8)
        assert corcondia_from_factors(X, A, B, C).value == pytest.approx(100, abs=1e-6)
        op = tucker_operator(X, (3, 3, 3), TIGHT)
        compressed = compress(X, op)
        report = corcondia_from_factors(compressed, op.U @ A, op.V @ B, op.W @ C)
        assert report.value == pytest.approx(100.0, abs=1e-6)

    def test_full_target_preserves_norm(self):
        rng = np.random.default_rng(9)
        X = DenseTensor3(rng.standard_normal((6, 5, 4)))
        op = tucker_operator(X, X.dims, TIGHT)
        assert frobenius_norm(compress(X, op)) == pytest.approx(
            frobenius_norm(X), rel=1e-12
        )

    def test_projection_recovers_exact_rank3_tensor(self):
        X, _ = random_cp((20, 15, 10), 3, seed=10)
        op = tucker_operator(X, (3, 3, 3), TIGHT)
        projected = project_onto_rowspaces(X, op)
        rel = frobenius_norm(DenseTensor3(projected.data - X.data)) / frobenius_norm(X)
        assert rel <= 1e-8


class TestCompress:
    def test_identity_operator(self):
        rng = np.random.default_rng(11)
        X = DenseTensor3(rng.standard_normal((4, 5, 6)))
        op = CompressionOperator(
            U=np.eye(4), V=np.eye(5), W=np.eye(6), scheme=Scheme.ORTHONORMAL
        )
        assert np.array_equal(compress(X, op).data, X.data)

    def test_sugar_scale_dims(self):
        rng = np.random.default_rng(12)
        X = DenseTensor3(rng.standard_normal((268, 44, 7)))
        op = orthonormal_operator(X.dims, ratio_to_dims(X.dims, RatioSpec(0.5)), seed=13)
        assert compress(X, op).dims == (134, 22, 7)

    def test_compress_of_cp_tensor_compresses_factors(self):
        X, (A, B, C) = random_cp((10, 9, 8), 2, seed=14)
        op = gaussian_operator(X.dims, (5, 4, 3), seed=15)
        direct = compress(X, op)
        via_factors = reconstruct_cp(op.U @ A, op.V @ B, op.W @ C)
        scale = max(np.max(np.abs(direct.data)), 1.0)
        assert np.max(np.abs(direct.data - via_factors.data)) <= 1e-10 * scale

    def test_dim_mismatch(self):
        rng = np.random.default_rng(16)
        X = DenseTensor3(rng.standard_normal((4, 5, 6)))
        op = gaussian_operator((5, 5, 6), (2, 2, 2), seed=0)
        with pytest.raises(ShapeError):
            compress(X, op)


class TestProjection:
    def test_idempotent(self):
        rng = np.random.default_rng(17)
        X = DenseTensor3(rng.standard_normal((10, 9, 8)))
        op = orthonormal_operator(X.dims, (5, 4, 3), seed=18)
        once = project_onto_rowspaces(X, op)
        twice = project_onto_rowspaces(once, op)
        assert np.max(np.abs(once.data - twice.data)) <= 1e-12 * max(
            np.max(np.abs(once.data)), 1.0
        )
        assert frobenius_norm(once) <= frobenius_norm(X) * (1 + 1e-12)

    def test_fibers_inside_rowspaces_are_fixed(self):
        rng = np.random.default_rng(19)
        op = orthonormal_operator((10, 9, 8), (5, 4, 3), seed=20)
        P, Q, S = rng.standard_normal((5, 2)), rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
        X = reconstruct_cp(op.U.T @ P, op.V.T @ Q, op.W.T @ S)
        projected = project_onto_rowspaces(X, op)
        assert np.max(np.abs(projected.data - X.data)) <= 1e-10

    def test_orthogonal_tensor_annihilated(self):
        rng = np.random.default_rng(21)
        op = orthonormal_operator((10, 9, 8), (5, 4, 3), seed=22)
        # mode-1 fibers in the orthogonal complement of U's rowspace
        comp = np.eye(10) - op.U.T @ op.U
        a = comp @ rng.standard_normal(10)
        X = reconstruct_cp(a[:, None], rng.standard_normal((9, 1)), rng.standard_normal((8, 1)))
        projected = project_onto_rowspaces(X, op)
        assert np.max(np.abs(projected.data)) <= 1e-12 * max(np.max(np.abs(X.data)), 1.0)

    def test_gaussian_operator_rejected(self):
        rng = np.random.default_rng(23)
        X = DenseTensor3(rng.standard_normal((6, 5, 4)))
        op = gaussian_operator(X.dims, (3, 2, 2), seed=24)
        with pytest.raises(ValueError, match="orthonormal"):
            project_onto_rowspaces(X, op)


class TestOperatorInvariants:
    def test_orthonormality_enforced_at_construction(self):
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError, match="orthonormal"):
            CompressionOperator(
                U=rng.standard_normal((3, 6)),
                V=np.eye(5),
                W=np.eye(4),
                scheme=Scheme.ORTHONORMAL,
            )

    def test_expanding_operator_rejected(self):
        with pytest.raises(ShapeError):
            CompressionOperator(
                U=np.ones((7, 6)), V=np.eye(5), W=np.eye(4), scheme=Scheme.GAUSSIAN
            )


class TestPreservationProperties:
    def test_rowspace_condition_preserves_core_and_value(self):
        # end-to-end: fibers inside the rowspaces imply identical cores
        for seed in range(5):
            rng = np.random.default_rng(seed)
            op = orthonormal_operator((12, 10, 8), (6, 5, 4), seed=100 + seed)
            P, Q, S = (rng.standard_normal((t, 3)) for t in (6, 5, 4))
            A, B, C = op.U.T @ P, op.V.T @ Q, op.W.T @ S
            X = reconstruct_cp(A, B, C)
            base = corcondia_from_factors(X, A, B, C)
            compressed = compress(X, op)
            comp = corcondia_from_factors(compressed, op.U @ A, op.V @ B, op.W @ C)
            assert np.max(np.abs(base.core.data - comp.core.data)) <= 1e-8
            assert comp.value == pytest.approx(base.value, abs=1e-6)

    def test_tucker_compression_preserves_corcondia(self):
        for seed in range(3):
            X, (A, B, C) = random_cp((16, 12, 8), 3, seed=200 + seed)
            for target in ((3, 3, 3), (8, 6, 4)):
                op = tucker_operator(X, target, TIGHT)
                compressed = compress(X, op)
                report = corcondia_from_factors(
                    compressed, op.U @ A, op.V @ B, op.W @ C
                )
                assert report.value == pytest.approx(100.0, abs=1e-6)

    def test_orthonormal_never_increases_norm(self):
        rng = np.random.default_rng(26)
        for seed in range(5):
            X = DenseTensor3(rng.standard_normal((9, 8, 7)))
            op = orthonormal_operator(X.dims, (5, 4, 3), seed=seed)
            assert frobenius_norm(compress(X, op)) <= frobenius_norm(X) * (1 + 1e-12)

    def test_full_size_gaussian_preserves_corcondia_of_exact_tensor(self):
        X, (A, B, C) = random_cp((8, 7, 6), 3, seed=27)
        op = gaussian_operator(X.dims, X.dims, seed=28)
        compressed = compress(X, op)
        report = corcondia_from_factors(compressed, op.U @ A, op.V @ B, op.W @ C)
        assert report.value == pytest.approx(100.0, abs=1e-6)
