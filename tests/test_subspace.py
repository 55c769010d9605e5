import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtunlearn import TaskSubspace, alignment, init_subspaces, regularize_step
from mtunlearn.errors import CapacityError, DimensionError
from mtunlearn.subspace import default_subspace_dim, total_alignment


def test_disjoint_blocks_are_orthonormal_and_disjoint():
    subs = init_subspaces(3, rank=6, dim=2)
    for s in subs:
        assert np.allclose(s.basis.T @ s.basis, np.eye(2), atol=1e-12)
    for i in range(3):
        for j in range(3):
            if i != j:
                frob_sq, spectral = alignment(subs[i], subs[j])
                assert frob_sq == pytest.approx(0.0, abs=1e-12)
                assert spectral == pytest.approx(0.0, abs=1e-12)


def test_disjoint_blocks_capacity_error():
    with pytest.raises(CapacityError):
        init_subspaces(4, rank=6, dim=2)


@settings(max_examples=25, deadline=None)
@given(
    n_tasks=st.integers(2, 4),
    rank=st.integers(4, 10),
    seed=st.integers(0, 1000),
)
def test_random_subspaces_orthonormal_projector_properties(n_tasks, rank, seed):
    dim = default_subspace_dim(rank, n_tasks)
    subs = init_subspaces(n_tasks, rank=rank, dim=dim, mode="random", seed=seed)
    for s in subs:
        assert np.allclose(s.basis.T @ s.basis, np.eye(dim), atol=1e-8)
        p = s.projector()
        assert np.allclose(p, p.T, atol=1e-8)
        assert np.allclose(p @ p, p, atol=1e-8)


def test_alignment_bounds_and_symmetry():
    subs = init_subspaces(2, rank=5, dim=2, mode="random", seed=1)
    frob_sq, spectral = alignment(subs[0], subs[1])
    assert 0.0 <= spectral <= 1.0 + 1e-12
    assert 0.0 <= frob_sq <= 2.0 + 1e-12  # bounded by min(s, s')
    assert alignment(subs[1], subs[0])[0] == pytest.approx(frob_sq, rel=1e-12)
    with pytest.raises(DimensionError):
        alignment(subs[0], TaskSubspace(9, np.eye(3)))


def test_identical_subspaces_have_maximal_alignment():
    basis = init_subspaces(1, rank=4, dim=2, mode="random", seed=0)[0].basis
    u = TaskSubspace(0, basis)
    v = TaskSubspace(1, basis.copy())
    frob_sq, spectral = alignment(u, v)
    assert frob_sq == pytest.approx(2.0, rel=1e-10)
    assert spectral == pytest.approx(1.0, rel=1e-10)


def test_regularize_step_zero_weight_is_identity():
    subs = init_subspaces(3, rank=6, dim=2, mode="random", seed=2)
    out = regularize_step(subs, step_size=0.0)
    for before, after in zip(subs, out):
        assert np.array_equal(before.basis, after.basis)


def test_regularize_step_reduces_total_alignment():
    subs = init_subspaces(3, rank=6, dim=2, mode="random", seed=3)
    before = total_alignment(subs)
    out = subs
    for _ in range(50):
        out = regularize_step(out, step_size=1e-2)
    after = total_alignment(out)
    assert after < before
    for s in out:
        assert np.allclose(s.basis.T @ s.basis, np.eye(2), atol=1e-8)


def test_regularize_step_rejects_negative_weight():
    subs = init_subspaces(2, rank=4, dim=1)
    with pytest.raises(ValueError):
        regularize_step(subs, step_size=-1e-2)


@pytest.mark.parametrize("step_size", [float("nan"), float("inf"), -float("inf")])
def test_regularize_step_rejects_non_finite_step_size(step_size):
    subs = init_subspaces(2, rank=4, dim=1, mode="random", seed=0)
    with pytest.raises(ValueError, match="step_size must be finite and >= 0"):
        regularize_step(subs, step_size=step_size)


def test_default_subspace_dim():
    assert default_subspace_dim(6, 3) == 2
    assert default_subspace_dim(4, 8) == 1
