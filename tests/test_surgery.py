import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orthogonalize_reference
from mtunlearn import (
    GradientPair,
    LowRankEdit,
    apply_update,
    init_subspaces,
    orthogonalize,
    project_task,
    sequential_orthogonalize,
)
from mtunlearn.errors import DimensionError
from mtunlearn.linalg import frob_inner, frob_norm


def rand_pair(rng, k=4, d=5, r=3):
    return GradientPair(rng.standard_normal((k, r)), rng.standard_normal((d, r)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 5), cols=st.integers(1, 5))
def test_orthogonalize_exact_with_zero_eps(seed, rows, cols):
    rng = np.random.default_rng(seed)
    g_f = rng.standard_normal((rows, cols))
    g_r = rng.standard_normal((rows, cols))
    out = orthogonalize(g_f, g_r, eps=0.0)
    assert abs(frob_inner(out, g_r)) <= 1e-12 * frob_norm(g_f) * frob_norm(g_r)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), eps=st.sampled_from([1e-8, 1e-3, 1.0]))
def test_orthogonalize_residual_alignment_identity(seed, eps):
    rng = np.random.default_rng(seed)
    g_f = rng.standard_normal((3, 4))
    g_r = rng.standard_normal((3, 4))
    out = orthogonalize(g_f, g_r, eps=eps)
    expected = eps / (frob_norm(g_r) ** 2 + eps) * abs(frob_inner(g_f, g_r))
    scale = frob_norm(g_f) * frob_norm(g_r)
    assert abs(abs(frob_inner(out, g_r)) - expected) <= 1e-10 * scale


def test_orthogonalize_edge_cases():
    g = np.ones((2, 2))
    with pytest.raises(DimensionError):
        orthogonalize(g, np.zeros((2, 2)), eps=0.0)
    # positive eps with a zero retain gradient passes g_f through unchanged
    assert np.array_equal(orthogonalize(g, np.zeros((2, 2)), eps=1e-8), g)
    with pytest.raises(DimensionError):
        orthogonalize(g, np.ones((3, 2)))
    with pytest.raises(ValueError):
        orthogonalize(g, g, eps=-1.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-8])
def test_orthogonalize_rejects_eps_outside_finite_nonnegative(eps):
    g = np.ones((2, 2))
    with pytest.raises(ValueError, match="eps must be finite and >= 0"):
        orthogonalize(g, g, eps=eps)


def test_orthogonal_inputs_pass_through():
    g_f = np.array([[1.0, 0.0], [0.0, 0.0]])
    g_r = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert np.allclose(orthogonalize(g_f, g_r, eps=0.0), g_f)


@pytest.mark.parametrize("eps", [0.0, 1e-8, 1e-3, 1.0])
def test_orthogonalize_equals_the_per_matrix_reference_to_the_bit(eps):
    # Every shape of the orthogonalization-identity suite, as one 32-draw
    # block and one matrix at a time, and ablation's 16 x 6 gradients.
    rng = np.random.default_rng(5)
    shapes = [(r, c) for r in range(1, 6) for c in range(1, 6)] + [(16, 6)]
    for shape in shapes:
        g_f, g_r = rng.standard_normal((2, 32, *shape))
        got = orthogonalize(g_f, g_r, eps)
        want = np.stack([orthogonalize_reference(f, r, eps) for f, r in zip(g_f, g_r)])
        assert got.tobytes() == want.tobytes()
        assert orthogonalize(g_f[7], g_r[7], eps).tobytes() == want[7].tobytes()
    # One retain gradient broadcasts over a stack of forget gradients.
    shared = orthogonalize(g_f.reshape(4, 8, *shape), g_r[0], eps)
    assert shared[3, 5].tobytes() == orthogonalize_reference(g_f[29], g_r[0], eps).tobytes()


def test_orthogonalize_rejects_a_zero_retain_gradient_in_a_stack_at_zero_eps():
    g_f, g_r = np.random.default_rng(6).standard_normal((2, 4, 3, 2))
    g_r[2] = 0.0
    with pytest.raises(DimensionError, match="^g_r is zero and eps = 0: projection undefined$"):
        orthogonalize(g_f, g_r, eps=0.0)
    out = orthogonalize(g_f, g_r, eps=1e-8)
    assert np.array_equal(out[2], g_f[2])
    with pytest.raises(DimensionError, match="^shape mismatch"):
        orthogonalize(g_f, g_r[..., :1])


def test_project_task_idempotent_and_contracting():
    rng = np.random.default_rng(0)
    sub = init_subspaces(2, rank=5, dim=2, mode="random", seed=1)[0]
    grad = rng.standard_normal((4, 5))
    proj = project_task(grad, sub)
    assert np.allclose(project_task(proj, sub), proj, atol=1e-10)
    assert frob_norm(proj) <= frob_norm(grad) + 1e-12
    with pytest.raises(DimensionError):
        project_task(rng.standard_normal((4, 3)), sub)


def test_project_task_on_stacks_equals_each_2d_call_to_the_bit():
    rng = np.random.default_rng(3)
    for rank, dim in [(4, 1), (4, 2), (16, 1), (16, 8)]:
        bases = np.stack(
            [init_subspaces(2, rank, dim, mode="random", seed=s) for s in range(5)]
        )  # (5, 2, rank, dim)
        grads = rng.standard_normal((5, 2, 3, rank))
        out = project_task(grads, bases)
        assert out.shape == grads.shape
        for i in range(5):
            for t in range(2):
                assert np.array_equal(out[i, t], project_task(grads[i, t], bases[i, t]))
        # One basis broadcasts over a stack of gradients.
        shared = project_task(grads, bases[0, 0])
        assert np.array_equal(shared[4, 1], project_task(grads[4, 1], bases[0, 0]))
    bad = grads.copy()
    bad[2, 1, 0, 0] = np.nan
    with pytest.raises(DimensionError, match="^grad contains non-finite entries$"):
        project_task(bad, bases)
    with pytest.raises(DimensionError, match="^grad must be at least 2-D"):
        project_task(grads[0, 0, 0], bases[0, 0])
    with pytest.raises(DimensionError, match="grad has 16 columns, basis rank is 4"):
        project_task(grads, bases[..., :4, :])


def test_stacks_whose_batch_axes_do_not_broadcast_name_both_shapes():
    with pytest.raises(DimensionError, match=r"^batch axes of \(3, 2, 2\) and \(4, 2, 2\) do not"):
        orthogonalize(np.ones((3, 2, 2)), np.ones((4, 2, 2)))
    with pytest.raises(DimensionError, match=r"^batch axes of \(3, 2, 2\) and \(4, 2, 1\) do not"):
        project_task(np.ones((3, 2, 2)), np.ones((4, 2, 1)))
    # A lone matrix broadcasts over a stack.
    g_f, g_r = np.random.default_rng(8).standard_normal((2, 3, 2, 2))
    out = orthogonalize(g_f, g_r[0])
    assert all(np.array_equal(out[i], orthogonalize(g_f[i], g_r[0])) for i in range(3))
    basis = np.array([[1.0], [0.0]])
    assert np.array_equal(project_task(g_f, basis), g_f * [1.0, 0.0])


def test_sequential_orthogonalize_order_and_skip():
    rng = np.random.default_rng(7)
    forget, clean, inst, task = (rand_pair(rng) for _ in range(4))
    out = sequential_orthogonalize(forget, [clean, inst, task], eps=0.0)
    # manual clean -> inst -> task on both factors
    manual_a = forget.a
    manual_b = forget.b
    for g in (clean, inst, task):
        manual_a = orthogonalize(manual_a, g.a, 0.0)
        manual_b = orthogonalize(manual_b, g.b, 0.0)
    assert np.allclose(out.a, manual_a)
    assert np.allclose(out.b, manual_b)
    # exact orthogonality only against the last stage
    assert abs(frob_inner(out.a, task.a)) <= 1e-10

    # a skipped source is one the caller leaves out of the list
    skipped = sequential_orthogonalize(forget, [clean, task], eps=0.0)
    manual_a = orthogonalize(orthogonalize(forget.a, clean.a, 0.0), task.a, 0.0)
    assert np.allclose(skipped.a, manual_a)


def test_sequential_orthogonalize_absent_sources():
    rng = np.random.default_rng(8)
    forget = rand_pair(rng)
    # no retain sources: the forget arrays come back unchanged
    out = sequential_orthogonalize(forget, [], eps=0.0)
    assert np.array_equal(out.a, forget.a)
    assert out.a is forget.a and out.b is forget.b


def test_apply_update_math_and_frozen_base():
    rng = np.random.default_rng(10)
    w_star = rng.standard_normal((5, 4))
    edit = LowRankEdit(
        w_star=w_star, a=rng.standard_normal((4, 3)), b=rng.standard_normal((5, 3))
    )
    retain = rand_pair(rng)
    ascent = rand_pair(rng)
    out = apply_update(edit, retain, ascent, eta1=0.5, eta2=0.2)
    assert np.allclose(out.a, edit.a - 0.5 * retain.a + 0.2 * ascent.a)
    assert np.allclose(out.b, edit.b - 0.5 * retain.b + 0.2 * ascent.b)
    assert out.w_star is edit.w_star
    assert np.array_equal(out.w_star, w_star)
    with pytest.raises(ValueError):
        apply_update(edit, retain, ascent, eta1=-1.0, eta2=0.1)
