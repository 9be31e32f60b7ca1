"""Property tests over small random shapes: the invariants the README
promises for unfolding and for Tucker fits."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corcomp import DenseTensor3, FitConfig, fold, tucker3, unfold

FIT = FitConfig(max_iterations=100, rel_tolerance=1e-10)
SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def tensors(draw, max_dim=6):
    dims = tuple(draw(st.integers(1, max_dim)) for _ in range(3))
    seed = draw(st.integers(0, 2**32 - 1))
    return DenseTensor3(np.random.default_rng(seed).standard_normal(dims))


@st.composite
def tensors_and_targets(draw):
    X = draw(tensors())
    target = tuple(draw(st.integers(1, d)) for d in X.dims)
    return X, target


@SETTINGS
@given(tensors(), st.sampled_from((1, 2, 3)))
def test_fold_inverts_unfold(X, mode):
    assert np.array_equal(fold(unfold(X, mode), mode, X.dims).data, X.data)


@SETTINGS
@given(tensors_and_targets())
def test_tucker_factors_orthonormal_and_fit_bounded(case):
    X, target = case
    model = tucker3(X, target, FIT)
    assert model.core.dims == target
    for F, t, d in zip((model.A, model.B, model.C), target, X.dims):
        assert F.shape == (d, t)
        assert np.max(np.abs(F.T @ F - np.eye(t))) <= 1e-10
    assert model.fit <= 1.0 + 1e-12


@SETTINGS
@given(tensors())
def test_tucker_at_full_dims_is_lossless(X):
    assert abs(tucker3(X, X.dims, FIT).fit - 1.0) <= 1e-10
