import importlib

import numpy as np
import pytest

from corcomp import (
    ConfigError,
    DenseTensor3,
    FitConfig,
    ShapeError,
    corcondia,
    corcondia_from_factors,
    corcondia_sweep,
    cp_als,
    reconstruct_cp,
    superdiagonal_identity,
)

from oracles import core_lstsq_oracle

TIGHT = FitConfig(max_iterations=3000, rel_tolerance=1e-12, restarts=3, seed=0)


def random_cp(dims, rank, seed):
    rng = np.random.default_rng(seed)
    A, B, C = (rng.standard_normal((d, rank)) for d in dims)
    return reconstruct_cp(A, B, C), (A, B, C)


class TestCore:
    def test_exact_model_core_is_identity(self):
        X, (A, B, C) = random_cp((4, 5, 6), 3, seed=0)
        core = corcondia_from_factors(X, A, B, C).core
        assert np.max(np.abs(core.data - superdiagonal_identity(3).data)) <= 1e-8

    def test_scaling_lands_in_the_core(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(5)
        b /= np.linalg.norm(b)
        c = rng.standard_normal(6)
        c /= np.linalg.norm(c)
        X = DenseTensor3(2.0 * np.einsum("i,j,k->ijk", a, b, c))
        core = corcondia_from_factors(X, a[:, None], b[:, None], c[:, None]).core
        assert core.dims == (1, 1, 1)
        assert core.data[0, 0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        X = DenseTensor3(rng.standard_normal((4, 5, 6)))
        A, B, C = (rng.standard_normal((d, 2)) for d in (4, 5, 6))
        core = corcondia_from_factors(X, A, B, C).core
        assert np.max(np.abs(core.data - core_lstsq_oracle(X.data, A, B, C))) <= 1e-8

    def test_shape_mismatch(self):
        X, (A, B, C) = random_cp((4, 5, 6), 2, seed=3)
        with pytest.raises(ShapeError):
            corcondia_from_factors(X, A[:3], B, C)
        with pytest.raises(ShapeError):
            corcondia_from_factors(X, A, B, np.ones((6, 3)))


class TestDiagnostic:
    def test_exact_model_scores_100(self):
        X, (A, B, C) = random_cp((4, 5, 6), 3, seed=4)
        report = corcondia_from_factors(X, A, B, C)
        assert report.value == pytest.approx(100.0, abs=1e-6)
        assert report.rank == 3
        assert not report.factor_rank_deficient

    def test_own_cp_reconstruction_scores_100(self):
        # diagnostic of reconstruct_cp output against its own factors
        X, (A, B, C) = random_cp((3, 4, 5), 2, seed=5)
        assert corcondia_from_factors(X, A, B, C).value == pytest.approx(100.0, abs=1e-6)

    def test_doubled_core_norm_gives_minus_100(self):
        # ||I - G||^2 == 2||I||^2 at R=1 means the core equals 1 - sqrt(2)
        rng = np.random.default_rng(6)
        a, b, c = (rng.standard_normal(d) for d in (4, 5, 6))
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        c /= np.linalg.norm(c)
        g = 1.0 - np.sqrt(2.0)
        X = DenseTensor3(g * np.einsum("i,j,k->ijk", a, b, c))
        report = corcondia_from_factors(X, a[:, None], b[:, None], c[:, None])
        assert report.value == pytest.approx(-100.0, abs=1e-9)

    def test_value_formula_recomputes(self):
        rng = np.random.default_rng(7)
        X = DenseTensor3(rng.standard_normal((4, 5, 6)))
        A, B, C = (rng.standard_normal((d, 2)) for d in (4, 5, 6))
        report = corcondia_from_factors(X, A, B, C)
        ident = superdiagonal_identity(report.rank)
        expected = (1.0 - np.sum((ident.data - report.core.data) ** 2) / report.rank) * 100.0
        assert report.value == pytest.approx(expected, abs=1e-10)
        assert report.value <= 100.0

    def test_invariant_under_column_permutation(self):
        X, (A, B, C) = random_cp((5, 6, 7), 3, seed=8)
        Xn = DenseTensor3(X.data + 0.01 * np.random.default_rng(9).standard_normal(X.dims))
        base = corcondia_from_factors(Xn, A, B, C).value
        perm = [2, 0, 1]
        permuted = corcondia_from_factors(Xn, A[:, perm], B[:, perm], C[:, perm]).value
        assert permuted == pytest.approx(base, abs=1e-10)
        # The same model with one component's sign moved from A to C.
        flip = np.array([1.0, -1.0, 1.0])
        flipped = corcondia_from_factors(Xn, (A * flip)[:, perm], B[:, perm], (C * flip)[:, perm])
        assert flipped.value == pytest.approx(base, abs=1e-10)

    def test_invariant_under_scalar_rescaling(self):
        X, (A, B, C) = random_cp((5, 6, 7), 3, seed=10)
        Xn = DenseTensor3(X.data + 0.01 * np.random.default_rng(11).standard_normal(X.dims))
        base = corcondia_from_factors(Xn, A, B, C).value
        alpha = -2.75
        scaled = corcondia_from_factors(Xn, alpha * A, B, C / alpha).value
        assert scaled == pytest.approx(base, abs=1e-8)

    def test_rank_deficient_factors_flagged_not_fatal(self):
        rng = np.random.default_rng(12)
        X = DenseTensor3(rng.standard_normal((4, 5, 6)))
        A = rng.standard_normal((4, 2))
        A[:, 1] = A[:, 0]  # exactly collinear
        B, C = rng.standard_normal((5, 2)), rng.standard_normal((6, 2))
        report = corcondia_from_factors(X, A, B, C)
        assert report.factor_rank_deficient
        assert np.isfinite(report.value)

    def test_overflow_is_an_error_not_a_value(self):
        rng = np.random.default_rng(15)
        X = DenseTensor3(rng.standard_normal((6, 5, 4)))
        A, B, C = (rng.standard_normal((d, 2)) for d in X.dims)
        # At 1e-60 the core (about 1e180) is finite but its squared distance
        # from the identity overflows; at 1e-110 the core itself overflows.
        with np.errstate(over="ignore", invalid="ignore"):
            for scale, message in ((1e-60, "core consistency is -inf"), (1e-110, "finite")):
                with pytest.raises(ValueError, match=message):
                    corcondia_from_factors(X, A * scale, B * scale, C * scale)

    def test_one_svd_per_factor(self, monkeypatch):
        X, (A, B, C) = random_cp((4, 5, 6), 2, seed=14)
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(M, *args, **kwargs):
            calls.append(M.shape)
            return real_svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        report = corcondia_from_factors(X, A, B, C)
        assert calls == [(4, 2), (5, 2), (6, 2)]
        assert not report.factor_rank_deficient

    def test_model_interface(self):
        X, _ = random_cp((4, 5, 6), 2, seed=13)
        model = cp_als(X, 2, TIGHT)
        report = corcondia(X, model)
        assert report.value == pytest.approx(100.0, abs=1e-6)


class TestSweep:
    def test_rank_one_tensor(self):
        X, _ = random_cp((4, 5, 6), 1, seed=14)
        reports = corcondia_sweep(X, [1], TIGHT)
        assert len(reports) == 1
        assert reports[0].value == pytest.approx(100.0, abs=1e-6)

    def test_exact_rank3_sweep_is_100_through_rank3(self):
        X, _ = random_cp((6, 5, 4), 3, seed=15)
        reports = corcondia_sweep(X, [1, 2, 3, 4, 5], TIGHT)
        assert [r.rank for r in reports] == [1, 2, 3, 4, 5]
        for report in reports[:3]:
            assert report.value == pytest.approx(100.0, abs=1e-6)
        # Overfactored fits run on ill-conditioned Gram products; their
        # reports must stay finite and read as no longer trilinear.
        for report in reports[3:]:
            assert np.isfinite(report.value) and report.value < 90.0

    def test_failure_carries_rank_context(self):
        X = DenseTensor3(np.zeros((3, 3, 3)))
        with pytest.raises(RuntimeError, match="rank 2"):
            corcondia_sweep(X, [2], TIGHT)

    def test_infeasible_rank_is_rejected_before_any_fit(self, monkeypatch):
        corcondia_mod = importlib.import_module("corcomp.corcondia")

        def no_fit(*args, **kwargs):
            raise AssertionError("a rank was fitted")

        monkeypatch.setattr(corcondia_mod, "cp_als", no_fit)
        X, _ = random_cp((4, 4, 4), 2, seed=17)
        for ranks, why in (([0], "infeasible"), ([2, 17], "infeasible"),
                           ([2, 3, 2], "listed twice")):
            with pytest.raises(ConfigError, match=f"rank {ranks[-1]} is {why}"):
                corcondia_sweep(X, ranks)

    def test_empty_ranks(self):
        X, _ = random_cp((3, 3, 3), 1, seed=16)
        with pytest.raises(ValueError):
            corcondia_sweep(X, [])
