import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orthonormalize_reference
from mtunlearn import alignment, init_subspaces, regularize_step, subspace
from mtunlearn.errors import CapacityError, DegenerateBasisError, DimensionError
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


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("n_tasks, rank, dim", [(1, 4, 1), (2, 4, 2), (2, 16, 8), (3, 6, 2)])
def test_random_subspaces_equal_the_per_task_loop_to_the_bit(n_tasks, rank, dim, seed):
    rng = np.random.default_rng(seed)
    want = np.stack(
        [orthonormalize_reference(rng.standard_normal((rank, dim))) for _ in range(n_tasks)]
    )
    got = init_subspaces(n_tasks, rank, dim, mode="random", seed=seed)
    assert got.tobytes() == want.tobytes()


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


def test_regularize_step_equals_per_task_orthonormalization_to_the_bit():
    bases = init_subspaces(3, rank=6, dim=2, mode="random", seed=4)
    cross = bases @ bases.transpose(0, 2, 1)
    # The penalty gradient of each task, summed in order of the other task.
    grads = [sum((2.0 * cross[j]) @ bases[t] for j in range(3) if j != t) for t in range(3)]
    stepped = bases - 1e-3 * np.stack(grads)
    want = np.stack([orthonormalize_reference(m) for m in stepped])
    assert regularize_step(bases, 1e-3).tobytes() == want.tobytes()


def test_regularize_step_names_the_task_whose_basis_collapses():
    # Tasks 1 and 2 share e2, so a step of 1/2 removes both bases; task 0 is untouched.
    e1, e2 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
    bases = np.stack([e1, e2, e2])
    with pytest.raises(
        DegenerateBasisError, match="^task 1 basis collapsed during regularization$"
    ) as info:
        regularize_step(bases, step_size=0.5)
    assert info.value.index == 1
    assert str(info.value.__cause__) == "matrix 1: column 0 is zero"


def test_regularize_step_raises_on_every_call_for_a_collapsing_basis():
    e1, e2 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
    bases = np.stack([e1, e2, e2])
    for _ in range(2):  # a failure is not memoized
        with pytest.raises(DegenerateBasisError, match="^task 1 basis collapsed"):
            regularize_step(bases, step_size=0.5)


def test_regularize_step_is_memoized_by_content():
    # A read-only result with the bits of the computation; an equal copy of
    # the input reads the memo, and a one-ulp change computes afresh.
    subspace._regularized.clear()
    bases = init_subspaces(3, rank=6, dim=2, mode="random", seed=5)
    out = regularize_step(bases, 1e-3)
    assert not out.flags.writeable
    assert out.tobytes() == subspace._regularize_step(bases, 1e-3).tobytes()
    assert regularize_step(bases.copy(), 1e-3) is out
    nudged = bases.copy()
    nudged[1, 2, 0] = np.nextafter(nudged[1, 2, 0], np.inf)
    fresh = regularize_step(nudged, 1e-3)
    assert fresh is not out
    assert fresh.tobytes() == subspace._regularize_step(nudged, 1e-3).tobytes()
    assert regularize_step(bases, 2e-3) is not out


def test_regularize_step_memo_holds_a_whole_run():
    # A run's schedule of 20 steps replayed from the same bases hits on every
    # step; the memo never holds more than REGULARIZE_MEMO_SIZE results.
    subspace._regularized.clear()
    bases = init_subspaces(3, rank=6, dim=2, mode="random", seed=6)
    runs = []
    for _ in range(2):
        out, schedule = bases, []
        for _ in range(20):
            out = regularize_step(out, 1e-3)
            schedule.append(out)
        runs.append(schedule)
    assert all(a is b for a, b in zip(*runs))
    for _ in range(2 * subspace.REGULARIZE_MEMO_SIZE):
        out = regularize_step(out, 1e-3)
    assert len(subspace._regularized) == subspace.REGULARIZE_MEMO_SIZE


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
