import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtunlearn import alignment, init_subspaces, regularize_step
from mtunlearn.errors import CapacityError, DimensionError
from mtunlearn.subspace import default_subspace_dim


def test_disjoint_blocks_are_orthonormal_and_disjoint():
    bases = init_subspaces(3, rank=6, dim=2)
    assert bases.shape == (3, 6, 2)
    assert np.array_equal(np.concatenate(list(bases), axis=1), np.eye(6))
    for q in bases:
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)
    for i in range(3):
        for j in range(3):
            if i != j:
                frob_sq, spectral = alignment(bases[i], bases[j])
                assert frob_sq == pytest.approx(0.0, abs=1e-12)
                assert spectral == pytest.approx(0.0, abs=1e-12)


def test_disjoint_blocks_capacity_error():
    with pytest.raises(CapacityError):
        init_subspaces(4, rank=6, dim=2)


@pytest.mark.parametrize("mode", ["disjoint-blocks", "random"])
def test_init_subspaces_needs_a_task(mode):
    with pytest.raises(DimensionError, match="n_tasks >= 1"):
        init_subspaces(0, rank=6, dim=2, mode=mode)


@settings(max_examples=25, deadline=None)
@given(
    n_tasks=st.integers(2, 4),
    rank=st.integers(4, 10),
    seed=st.integers(0, 1000),
)
def test_random_subspaces_orthonormal_projector_properties(n_tasks, rank, seed):
    dim = default_subspace_dim(rank, n_tasks)
    bases = init_subspaces(n_tasks, rank=rank, dim=dim, mode="random", seed=seed)
    assert bases.shape == (n_tasks, rank, dim)
    projectors = bases @ bases.transpose(0, 2, 1)
    for q, p in zip(bases, projectors, strict=True):
        assert np.allclose(q.T @ q, np.eye(dim), atol=1e-8)
        # The batched product is the per-task one to the bit.
        assert np.array_equal(p, q @ q.T)
        assert np.allclose(p, p.T, atol=1e-8)
        assert np.allclose(p @ p, p, atol=1e-8)


def test_alignment_bounds_and_symmetry():
    u, v = init_subspaces(2, rank=5, dim=2, mode="random", seed=1)
    frob_sq, spectral = alignment(u, v)
    assert 0.0 <= spectral <= 1.0 + 1e-12
    assert 0.0 <= frob_sq <= 2.0 + 1e-12  # bounded by min(s, s')
    assert alignment(v, u)[0] == pytest.approx(frob_sq, rel=1e-12)
    with pytest.raises(DimensionError):
        alignment(u, np.eye(3))


def test_alignment_on_stacks_equals_each_2d_call_to_the_bit():
    for rank, dim in [(4, 1), (4, 2), (16, 1), (16, 8), (5, 3)]:
        u, v = np.stack(
            [init_subspaces(2, rank, dim, mode="random", seed=s) for s in range(6)], axis=1
        )  # each (6, rank, dim)
        frob_sq, spectral = alignment(u, v)
        assert frob_sq.shape == spectral.shape == (6,)
        for i in range(6):
            assert (frob_sq[i], spectral[i]) == alignment(u[i], v[i])
        # One basis broadcasts against a stack.
        assert alignment(u[0], v)[1][5] == alignment(u[0], v[5])[1]
        assert type(alignment(u[0], v[0])[1]) is float
    with pytest.raises(DimensionError, match="ambient ranks: 5 vs 4"):
        alignment(u, np.zeros((6, 4, 3)))


def test_identical_subspaces_have_maximal_alignment():
    basis = init_subspaces(1, rank=4, dim=2, mode="random", seed=0)[0]
    frob_sq, spectral = alignment(basis, basis.copy())
    assert frob_sq == pytest.approx(2.0, rel=1e-10)
    assert spectral == pytest.approx(1.0, rel=1e-10)


def test_regularize_step_zero_weight_is_identity():
    bases = init_subspaces(3, rank=6, dim=2, mode="random", seed=2)
    assert regularize_step(bases, step_size=0.0) is bases


def total_alignment(bases) -> float:
    """Sum of pairwise squared-Frobenius alignments over ordered pairs t != t'."""
    return sum(
        alignment(u, v)[0]
        for i, u in enumerate(bases)
        for j, v in enumerate(bases)
        if i != j
    )


def test_regularize_step_reduces_total_alignment():
    bases = init_subspaces(3, rank=6, dim=2, mode="random", seed=3)
    before = total_alignment(bases)
    out = bases
    for _ in range(50):
        out = regularize_step(out, step_size=1e-2)
    after = total_alignment(out)
    assert after < before
    assert out.shape == bases.shape
    for q in out:
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-8)


def test_regularize_step_rejects_negative_weight():
    bases = init_subspaces(2, rank=4, dim=1)
    with pytest.raises(ValueError):
        regularize_step(bases, step_size=-1e-2)


@pytest.mark.parametrize("step_size", [float("nan"), float("inf"), -float("inf")])
def test_regularize_step_rejects_non_finite_step_size(step_size):
    bases = init_subspaces(2, rank=4, dim=1, mode="random", seed=0)
    with pytest.raises(ValueError, match="step_size must be finite and >= 0"):
        regularize_step(bases, step_size=step_size)


def test_default_subspace_dim():
    assert default_subspace_dim(6, 3) == 2
    assert default_subspace_dim(4, 8) == 1
