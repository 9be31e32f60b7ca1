"""Property tests over small random shapes: the invariants the README
promises for unfolding, for CP and Tucker fits and for the rowspace
projection."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corcomp import (
    DenseTensor3,
    FitConfig,
    cp_als,
    fold,
    frobenius_norm,
    orthonormal_operator,
    project_onto_rowspaces,
    tucker3,
    tucker_operator,
    unfold,
)
from corcomp.decomp import max_feasible_cp_rank
from oracles import cp_fit_oracle, tucker_residual_oracle

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


@st.composite
def projected_tensors(draw):
    """A tensor and an orthonormal-row operator for its dims: a random
    orthonormal draw or the Tucker fit of the tensor itself."""
    X, target = draw(tensors_and_targets())
    if draw(st.booleans()):
        return X, orthonormal_operator(X.dims, target, draw(st.integers(0, 2**32 - 1)))
    return X, tucker_operator(X, target, FIT)


@SETTINGS
@given(tensors(), st.sampled_from((1, 2, 3)))
def test_fold_inverts_unfold(X, mode):
    assert np.array_equal(fold(unfold(X, mode), mode, X.dims).data, X.data)


@SETTINGS
@given(tensors())
def test_cp_fit_matches_recomputation(X):
    # Every feasible R <= 3: the stored fit, from the Gram identity or the
    # explicit residual, is the fit of the factors it is stored with.
    for R in range(1, min(3, max_feasible_cp_rank(X.dims)) + 1):
        model = cp_als(X, R, FIT)
        assert abs(cp_fit_oracle(X.data, model.A, model.B, model.C) - model.fit) <= 1e-10


@SETTINGS
@given(tensors_and_targets())
def test_tucker_factors_orthonormal_and_fit_bounded(case):
    X, target = case
    model = tucker3(X, target, FIT)
    assert model.core.dims == target
    for F, t, d in zip((model.A, model.B, model.C), target, X.dims):
        assert F.shape == (d, t)
        assert np.max(np.abs(F.T @ F - np.eye(t))) <= 1e-10
    fit = 1.0 - tucker_residual_oracle(X.data, model)
    assert fit <= 1.0 + 1e-12


@SETTINGS
@given(tensors())
def test_tucker_at_full_dims_is_lossless(X):
    assert tucker_residual_oracle(X.data, tucker3(X, X.dims, FIT)) <= 1e-10


@SETTINGS
@given(projected_tensors())
def test_rowspace_projection_is_idempotent(case):
    X, op = case
    P = project_onto_rowspaces(X, op)
    assert np.max(np.abs(project_onto_rowspaces(P, op).data - P.data)) <= 1e-10


@SETTINGS
@given(projected_tensors())
def test_rowspace_projection_does_not_increase_the_norm(case):
    X, op = case
    assert frobenius_norm(project_onto_rowspaces(X, op)) <= frobenius_norm(X) * (1 + 1e-12)
