import re

import numpy as np
import pytest

from corcomp import (
    DenseTensor3,
    RatioSpec,
    ShapeError,
    SynthSpec,
    fold,
    frobenius_norm,
    gaussian_operator,
    n_mode_product,
    ratio_to_dims,
    read_tensor,
    reconstruct_cp,
    reconstruct_tucker,
    superdiagonal_identity,
    tucker3,
    unfold,
)

from oracles import tucker_triple_sum, unfold_oracle


@pytest.fixture
def cube222():
    # X[i,j,k] = i + 2j + 4k, 0-based
    return DenseTensor3.from_flat(np.arange(8.0), (2, 2, 2))


@pytest.fixture
def random345():
    rng = np.random.default_rng(42)
    return DenseTensor3(rng.standard_normal((3, 4, 5)))


class TestDenseTensor3:
    def test_flat_layout_mode1_fastest(self, cube222):
        assert cube222[1, 0, 0] == 1.0
        assert cube222[0, 1, 0] == 2.0
        assert cube222[0, 0, 1] == 4.0

    def test_flat_roundtrip(self, random345):
        again = DenseTensor3.from_flat(random345.to_flat(), random345.dims)
        assert np.array_equal(again.data, random345.data)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            DenseTensor3(np.full((2, 2, 2), np.nan))
        with pytest.raises(ValueError):
            DenseTensor3([[[1.0, np.inf]], [[0.0, 0.0]]])

    def test_rejects_wrong_order(self):
        with pytest.raises(ShapeError):
            DenseTensor3(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match=r"positive, got \(2, 0, 2\)"):
            DenseTensor3(np.zeros((2, 0, 2)))

    def test_rejects_wrong_flat_length(self):
        with pytest.raises(ShapeError):
            DenseTensor3.from_flat(np.zeros(7), (2, 2, 2))

    def test_data_is_immutable(self, cube222):
        with pytest.raises(ValueError):
            cube222.data[0, 0, 0] = 9.0

    def test_array_copies_and_asarray_shares(self, random345):
        copied = np.array(random345)
        assert copied.flags.writeable
        assert not np.shares_memory(copied, random345.data)
        assert np.array_equal(copied, random345.data)
        shared = np.asarray(random345)
        assert not shared.flags.writeable
        assert np.shares_memory(shared, random345.data)
        assert np.shares_memory(np.asarray(random345, dtype=np.float64, copy=False),
                                random345.data)

    def test_array_dtype_casts(self, random345):
        for cast in (np.array(random345, dtype=np.float32),
                     np.asarray(random345, dtype=np.float32)):
            assert cast.dtype == np.float32 and cast.flags.writeable
            assert np.array_equal(cast, random345.data.astype(np.float32))
        with pytest.raises(ValueError):
            np.asarray(random345, dtype=np.float32, copy=False)


class TestFibers:
    def test_fiber_equals_unfolding_column(self, random345):
        # column index under the fixed ordering: earlier remaining mode fastest
        I, J, K = random345.dims
        j, k = 2, 3
        assert np.array_equal(random345.data[:, j, k], unfold(random345, 1)[:, j + J * k])
        i, j = 1, 3
        assert np.array_equal(random345.data[i, j, :], unfold(random345, 3)[:, i + I * j])


class TestUnfoldFold:
    def test_mode1_unfolding_of_cube(self, cube222):
        expected = np.array([[0.0, 2.0, 4.0, 6.0], [1.0, 3.0, 5.0, 7.0]])
        assert np.array_equal(unfold(cube222, 1), expected)

    def test_matches_oracle_all_modes(self, random345):
        for mode in (1, 2, 3):
            assert np.array_equal(
                unfold(random345, mode), unfold_oracle(random345.data, mode)
            )

    def test_fold_roundtrip_bitwise(self, random345):
        for mode in (1, 2, 3):
            back = fold(unfold(random345, mode), mode, random345.dims)
            assert np.array_equal(back.data, random345.data)

    def test_rank_one_unfolding_is_kron(self):
        rng = np.random.default_rng(3)
        a, b, c = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
        X = reconstruct_cp(a[:, None], b[:, None], c[:, None])
        assert np.allclose(unfold(X, 1), np.outer(a, np.kron(c, b)), atol=1e-12)

    def test_fold_shape_mismatch(self, random345):
        with pytest.raises(ShapeError):
            fold(unfold(random345, 1), 1, (3, 4, 6))

    def test_bad_mode(self, random345):
        with pytest.raises(ValueError):
            unfold(random345, 0)


class TestNModeProduct:
    def test_identity_is_identity_map(self, random345):
        for mode, d in zip((1, 2, 3), random345.dims):
            out = n_mode_product(random345, np.eye(d), mode)
            assert np.array_equal(out.data, random345.data)

    def test_fibers_are_multiplied(self, random345):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((6, 4))
        out = n_mode_product(random345, Z, 2)
        assert out.dims == (3, 6, 5)
        for i in range(3):
            for k in range(5):
                assert np.allclose(out.data[i, :, k], Z @ random345.data[i, :, k])

    def test_sugar_scale_dims(self):
        X = DenseTensor3(np.zeros((268, 44, 7)))
        U = np.ones((134, 268))
        assert n_mode_product(X, U, 1).dims == (134, 44, 7)

    def test_distinct_modes_commute(self, random345):
        rng = np.random.default_rng(2)
        Z1 = rng.standard_normal((2, 3))
        Z2 = rng.standard_normal((6, 4))
        a = n_mode_product(n_mode_product(random345, Z1, 1), Z2, 2)
        b = n_mode_product(n_mode_product(random345, Z2, 2), Z1, 1)
        scale = np.max(np.abs(a.data))
        assert np.max(np.abs(a.data - b.data)) <= 1e-12 * scale

    def test_shape_mismatch_reports_shapes(self, random345):
        with pytest.raises(ShapeError, match=r"\(2, 7\).*\(3, 4, 5\)"):
            n_mode_product(random345, np.zeros((2, 7)), 1)
        with pytest.raises(ShapeError, match=r"Z must be 2-D, got shape \(3,\)"):
            n_mode_product(random345, np.zeros(3), 1)
        with pytest.raises(ShapeError, match=r"positive dimensions, got shape \(0, 3\)"):
            n_mode_product(random345, np.zeros((0, 3)), 1)
        with pytest.raises(ValueError, match="Z contains non-finite entries"):
            n_mode_product(random345, np.full((2, 3), np.nan), 1)

    def test_norm_bound_by_spectral_norm(self, random345):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((6, 3))
        out = n_mode_product(random345, Z, 1)
        bound = np.linalg.norm(Z, 2) * frobenius_norm(random345)
        assert frobenius_norm(out) <= bound * (1 + 1e-12)

    def test_orthonormal_rows_contract_norm(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        Z = Q.T  # 3x6, orthonormal rows
        X = DenseTensor3(rng.standard_normal((6, 4, 5)))
        assert frobenius_norm(n_mode_product(X, Z, 1)) <= frobenius_norm(X) * (1 + 1e-12)
        # equality iff the mode-1 fibers lie in the rowspace of Z
        inside = n_mode_product(X, Z.T @ Z, 1)
        assert np.isclose(
            frobenius_norm(n_mode_product(inside, Z, 1)), frobenius_norm(inside)
        )
        outside = DenseTensor3(X.data - inside.data)  # orthogonal complement part
        if frobenius_norm(outside) > 1e-8:
            assert frobenius_norm(n_mode_product(outside, Z, 1)) < frobenius_norm(outside) * 1e-10


class TestSuperdiagonal:
    def test_single_entry(self):
        assert superdiagonal_identity(1).data[0, 0, 0] == 1.0

    def test_norm_squared_is_R(self):
        assert frobenius_norm(superdiagonal_identity(3)) ** 2 == pytest.approx(3.0)

    def test_off_diagonal_zero(self):
        ident = superdiagonal_identity(4)
        assert ident[1, 2, 3] == 0.0
        assert np.sum(ident.data) == 4.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            superdiagonal_identity(0)


class TestReconstruct:
    def test_single_outer_product(self):
        out = reconstruct_cp(np.array([[1.0], [0.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert out.dims == (2, 1, 1)
        assert np.array_equal(out.to_flat(), [1.0, 0.0])

    def test_cp_equals_tucker_with_identity_core(self):
        rng = np.random.default_rng(6)
        A, B, C = (rng.standard_normal((d, 2)) for d in (3, 4, 5))
        cp = reconstruct_cp(A, B, C)
        tk = reconstruct_tucker(superdiagonal_identity(2), A, B, C)
        assert np.array_equal(cp.data, tk.data)

    def test_cp_matches_outer_product_sum(self):
        rng = np.random.default_rng(7)
        A, B, C = (rng.standard_normal((d, 2)) for d in (3, 4, 5))
        explicit = sum(
            np.einsum("i,j,k->ijk", A[:, r], B[:, r], C[:, r]) for r in range(2)
        )
        assert np.allclose(reconstruct_cp(A, B, C).data, explicit, atol=1e-12)

    def test_tucker_identity_factors_return_core(self):
        rng = np.random.default_rng(8)
        G = DenseTensor3(rng.standard_normal((2, 3, 4)))
        out = reconstruct_tucker(G, np.eye(2), np.eye(3), np.eye(4))
        assert np.array_equal(out.data, G.data)

    def test_tucker_matches_triple_sum_oracle(self):
        rng = np.random.default_rng(9)
        G = rng.standard_normal((2, 2, 2))
        A, B, C = (rng.standard_normal((d, 2)) for d in (3, 4, 5))
        out = reconstruct_tucker(DenseTensor3(G), A, B, C)
        assert np.allclose(out.data, tucker_triple_sum(G, A, B, C), atol=1e-12)

    def test_column_count_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruct_cp(np.ones((3, 2)), np.ones((4, 3)), np.ones((5, 2)))

    def test_core_factor_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruct_tucker(superdiagonal_identity(2), np.ones((3, 3)), np.ones((4, 2)), np.ones((5, 2)))


@pytest.mark.parametrize("triple", [(2, 3), (2, 3, 4, 5)])
@pytest.mark.parametrize(
    "setting, build",
    [
        pytest.param("dims", lambda t: ratio_to_dims(t, RatioSpec(0.5)), id="ratio_to_dims"),
        pytest.param("dims", lambda t: fold(np.ones((2, 12)), 1, t), id="fold"),
        pytest.param("dims", lambda t: DenseTensor3.from_flat(np.ones(6), t), id="from_flat"),
        pytest.param("dims", lambda t: SynthSpec(t, 1), id="SynthSpec"),
        pytest.param("dims", lambda t: gaussian_operator(t, (1, 1, 1), seed=0),
                     id="gaussian_operator-dims"),
        pytest.param("target dims", lambda t: gaussian_operator((4, 4, 4), t, seed=0),
                     id="gaussian_operator-target"),
        pytest.param("target dims", lambda t: tucker3(DenseTensor3(np.ones((4, 4, 4))), t),
                     id="tucker3"),
        pytest.param("dims", lambda t: read_tensor("never-read.csv", dims=t), id="read_tensor"),
    ],
)
def test_a_dims_triple_has_three_entries(setting, build, triple):
    # errors.check_dims is the one rule: a count other than three is a
    # ShapeError naming the setting, never a truncated or padded triple.
    message = f"^{setting} must be a triple, got {re.escape(str(triple))}$"
    with pytest.raises(ShapeError, match=message):
        build(triple)


def test_frobenius_norm_examples():
    assert frobenius_norm(DenseTensor3(np.zeros((2, 3, 4)))) == 0.0
    assert frobenius_norm(DenseTensor3.from_flat([3.0, 4.0], (2, 1, 1))) == pytest.approx(5.0)
    rng = np.random.default_rng(10)
    X = DenseTensor3(rng.standard_normal((3, 4, 5)))
    assert frobenius_norm(X) == pytest.approx(np.sqrt(np.sum(X.to_flat() ** 2)))
