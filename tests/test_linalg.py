import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orthonormalize_reference
from mtunlearn.errors import CurvatureError, DegenerateBasisError, DimensionError
from mtunlearn.linalg import (
    as_matrix,
    as_stack,
    frob_inner,
    frob_norm,
    orthonormalize,
    solve_spd,
    spd_factor,
)


def test_as_matrix_coerces_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.shape == (2, 2)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0])
    with pytest.raises(DimensionError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_as_matrix_accepts_finite_entries_whose_sum_overflows():
    with pytest.warns(RuntimeWarning, match="overflow"):
        m = as_matrix([[1e308, 1e308]])
    assert m.tolist() == [[1e308, 1e308]]


@pytest.mark.filterwarnings("ignore:(invalid value|overflow) encountered in reduce")
@pytest.mark.parametrize("bad", [[[np.inf, -np.inf]], [[np.nan]], [[1e308, 1e308, np.nan]]])
def test_as_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(DimensionError, match="x contains non-finite entries"):
        as_matrix(bad, "x")


@pytest.mark.filterwarnings("ignore:(invalid value|overflow) encountered in reduce")
@pytest.mark.parametrize("bad", [[[np.inf, -np.inf]], [[np.nan]], [[1e308, 1e308, np.nan]]])
def test_as_stack_applies_the_as_matrix_rule_to_stacks(bad):
    good = np.ones((3, 1, len(bad[0])))
    one = good[0]
    assert as_stack(good) is good and as_stack(one) is one
    stack = good.copy()
    stack[1] = bad
    with pytest.raises(DimensionError, match="^x contains non-finite entries$"):
        as_stack(stack, "x")
    with pytest.raises(DimensionError, match="^x must be at least 2-D, got ndim=1$"):
        as_stack(good[0, 0], "x")
    # as_matrix still takes exactly one matrix.
    with pytest.raises(DimensionError, match="^x must be 2-D, got ndim=3$"):
        as_matrix(good, "x")


def test_frob_inner_and_norm_equal_numpy_bit_for_bit():
    rng = np.random.default_rng(4)
    for shape in [(1, 1), (4, 3), (16, 6), (30, 30)]:
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        assert frob_inner(a, b) == float(np.sum(a * b))
        assert frob_norm(a) == float(np.linalg.norm(a))
        # column-major and strided inputs too
        assert frob_norm(np.asfortranarray(a)) == float(np.linalg.norm(np.asfortranarray(a)))
        assert frob_norm(a[:, ::2]) == float(np.linalg.norm(a[:, ::2]))


@pytest.mark.parametrize("shape", [(33, 5, 4), (32, 2, 5, 16), (1, 16, 6), (3, 2, 1, 1)])
def test_frob_inner_and_norm_on_stacks_equal_each_2d_call_to_the_bit(shape):
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    pairs = [(a, b), (a[..., ::2], b[..., ::2])]  # whole stacks and strided views of them
    for x, y in pairs:
        inner, norm = frob_inner(x, y), frob_norm(x)
        assert inner.shape == norm.shape == x.shape[:-2]
        for i in np.ndindex(x.shape[:-2]):
            assert inner[i] == frob_inner(x[i], y[i])
            assert norm[i] == frob_norm(x[i])
    # A lone matrix gives a Python float.
    first = (0,) * (len(shape) - 2)
    assert type(frob_inner(a[first], b[first])) is float and type(frob_norm(a[first])) is float


def test_frob_inner_and_norm_check_stacks():
    a = np.ones((3, 2, 2))
    with pytest.raises(DimensionError, match=r"^shape mismatch: \(3, 2, 2\) vs \(2, 2, 2\)$"):
        frob_inner(a, a[:2])
    bad = a.copy()
    bad[2, 1, 0] = np.nan
    with pytest.raises(DimensionError, match="^b contains non-finite entries$"):
        frob_inner(a, bad)
    with pytest.raises(DimensionError, match="^a contains non-finite entries$"):
        frob_norm(bad)
    with pytest.raises(DimensionError, match="^a must be at least 2-D, got ndim=1$"):
        frob_norm(a[0, 0])


def test_frob_inner_matches_trace_formula():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 3))
    assert frob_inner(a, b) == pytest.approx(np.trace(a.T @ b), rel=1e-12)
    with pytest.raises(DimensionError):
        frob_inner(a, b.T)


def test_frob_norm_is_consistent_with_inner():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 2))
    assert frob_norm(a) == pytest.approx(np.sqrt(frob_inner(a, a)), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(2, 8),
    cols=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_orthonormalize_properties(rows, cols, seed):
    cols = min(cols, rows)
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols))
    q = orthonormalize(m)
    assert np.allclose(q.T @ q, np.eye(cols), atol=1e-10)
    # same span: projecting the original columns onto q reproduces them
    assert np.allclose(q @ (q.T @ m), m, atol=1e-8)
    # q^T m is the R factor: upper triangular with a nonnegative diagonal
    r = q.T @ m
    assert np.allclose(np.tril(r, -1), 0.0, atol=1e-10)
    assert np.all(np.diag(r) >= 0)


def test_orthonormalize_handles_ill_conditioned_input():
    rng = np.random.default_rng(3)
    base = rng.standard_normal(6)
    m = np.column_stack([base, base + 1e-7 * rng.standard_normal(6)])
    q = orthonormalize(m)
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-10)


def test_orthonormalize_rejects_degenerate_columns():
    with pytest.raises(DegenerateBasisError):
        orthonormalize(np.zeros((3, 1)))
    col = np.array([[1.0], [2.0], [3.0]])
    with pytest.raises(DegenerateBasisError):
        orthonormalize(np.hstack([col, 2 * col]))
    with pytest.raises(DimensionError):
        orthonormalize(np.ones((2, 3)))


# The verify blocks (rank 4/16, dim 1/2/8), the K=3 bases of `regularize_step`,
# a lone matrix and a stack with two batch axes.
@pytest.mark.parametrize(
    "shape",
    [(64, 4, 1), (64, 4, 2), (64, 16, 1), (64, 16, 8), (3, 6, 2), (16, 6), (2, 3, 5, 4)],
)
def test_orthonormalize_equals_the_per_matrix_reference_to_the_bit(shape):
    m = np.random.default_rng(len(shape) + shape[-1]).standard_normal(shape)
    got = orthonormalize(m)
    flat = m.reshape(-1, *shape[-2:])
    want = np.stack([orthonormalize_reference(a) for a in flat]).reshape(shape)
    assert got.shape == shape and got.tobytes() == want.tobytes()


# Every (rows, cols) with 1 <= cols <= rows <= 20 under 0, 1 or 2 batch axes of
# drawn sizes, against scipy's LAPACK: a numpy OpenBLAS build that rounds apart
# from scipy's shows up here.
@pytest.mark.parametrize("seed", range(30))
def test_orthonormalize_sweep_equals_the_per_matrix_reference_to_the_bit(seed):
    rng = np.random.default_rng(seed)
    for rows in range(1, 21):
        for cols in range(1, rows + 1):
            batch = tuple(rng.integers(1, 4, size=seed % 3).tolist())
            m = rng.standard_normal((*batch, rows, cols))
            want = [orthonormalize_reference(a) for a in m.reshape(-1, rows, cols)]
            got = orthonormalize(m)
            assert got.shape == m.shape
            assert got.tobytes() == np.stack(want).tobytes(), (batch, rows, cols)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (5, 0), (2, 5, 0)])
def test_orthonormalize_returns_an_empty_stack_as_it_is(shape):
    q = orthonormalize(np.empty(shape))
    assert q.shape == shape and q.dtype == np.float64


def test_orthonormalize_names_the_degenerate_matrix_of_a_stack():
    stack = np.random.default_rng(0).standard_normal((4, 3, 2))
    dependent = stack.copy()
    dependent[2, :, 1] = 2 * dependent[2, :, 0]
    with pytest.raises(DegenerateBasisError) as info:
        orthonormalize(dependent)
    assert str(info.value) == "matrix 2: column 1 is linearly dependent on earlier columns"
    assert info.value.index == 2
    zero = stack.copy()
    zero[1, :, 0] = 0.0
    zero[3, :, 1] = 0.0
    with pytest.raises(DegenerateBasisError, match="^matrix 1: column 0 is zero$"):
        orthonormalize(zero)
    # A lone matrix keeps the reference's message.
    with pytest.raises(DegenerateBasisError, match="^column 1 is linearly dependent"):
        orthonormalize(dependent[2])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10_000))
def test_solve_spd_matches_numpy_solve(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    h = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x = solve_spd(h, b)
    assert np.allclose(x, np.linalg.solve(h, b), atol=1e-9)
    assert np.linalg.norm(h @ x - b) <= 1e-8 * max(1.0, np.linalg.norm(b))


def test_solve_spd_matrix_rhs():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4))
    h = m @ m.T + 4 * np.eye(4)
    b = rng.standard_normal((4, 3))
    x = solve_spd(h, b)
    assert x.shape == (4, 3)
    assert np.allclose(h @ x, b, atol=1e-9)


def test_solve_spd_rejects_bad_matrices():
    with pytest.raises(CurvatureError):
        solve_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(CurvatureError):
        solve_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), np.ones(2))
    with pytest.raises(DimensionError):
        solve_spd(np.eye(3), np.ones(2))


def test_solve_spd_errors_name_the_offending_value():
    with pytest.raises(CurvatureError, match=r"not symmetric: max \|h - h\^T\| = 2 > 2e-08$"):
        solve_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(CurvatureError, match=r"not positive definite: smallest eigenvalue -3$"):
        solve_spd(np.diag([1.0, -3.0, 2.0]), np.ones(3))


def test_solve_spd_rejects_an_empty_system():
    # Checked before the symmetry test, whose max over no entries would raise
    # numpy's own ValueError.
    with pytest.raises(DimensionError, match=r"^h is 0x0"):
        solve_spd(np.zeros((0, 0)), np.zeros(0))


def cho_reference(h, b):
    """The Cholesky solve through scipy's wrappers, with one refinement step."""
    b = np.asarray(b, dtype=float)
    col = b[:, None] if b.ndim == 1 else b
    factor = scipy.linalg.cho_factor(h, lower=True)
    x = scipy.linalg.cho_solve(factor, col)
    x = x + scipy.linalg.cho_solve(factor, col - h @ x)
    return x[:, 0] if b.ndim == 1 else x


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), n_rhs=st.integers(0, 4), seed=st.integers(0, 10_000))
def test_solve_spd_equals_the_scipy_cholesky_wrappers(n, n_rhs, seed):
    # n_rhs == 0 stands for a 1-D right-hand side.
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    h = m @ m.T / n + 1e-2 * np.eye(n)
    b = rng.standard_normal((n, n_rhs) if n_rhs else n)
    x = solve_spd(h, b)
    assert x.shape == b.shape
    assert np.array_equal(x, cho_reference(h, b))


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
def test_solve_spd_rejects_a_solution_that_overflows():
    with pytest.raises(CurvatureError, match="solution overflowed"):
        solve_spd(np.diag([1e-300, 1.0]), np.array([1e10, 1.0]))


# The same grid as the scipy-wrapper test above.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), n_rhs=st.integers(0, 4), seed=st.integers(0, 10_000))
def test_a_factored_solve_equals_the_matrix_solve_to_the_bit(n, n_rhs, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    h = m @ m.T / n + 1e-2 * np.eye(n)
    factor = spd_factor(h)
    for _ in range(3):  # one factor serves every right-hand side
        b = rng.standard_normal((n, n_rhs) if n_rhs else n)
        x = solve_spd(factor, b)
        assert x.shape == b.shape
        assert x.tobytes() == solve_spd(h, b).tobytes()


def test_a_factor_holds_read_only_arrays_that_the_caller_cannot_stale():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((6, 6))
    h = m @ m.T / 6 + 1e-2 * np.eye(6)
    factor = spd_factor(h)
    assert factor.h.tobytes() == h.tobytes() and factor.h is not h
    for a in (factor.h, factor.lower):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        factor.h = h
    b = rng.standard_normal(6)
    x = solve_spd(factor, b)
    h[0, 0] += 1.0  # a write to the caller's matrix leaves the factor as it was
    assert solve_spd(factor, b).tobytes() == x.tobytes()
    assert h.flags.writeable


@pytest.mark.filterwarnings("ignore:invalid value encountered in reduce")
@pytest.mark.parametrize(
    "h, error, message",
    [
        ([[1.0, 2.0], [0.0, 1.0]], CurvatureError, r"not symmetric: max \|h - h\^T\| = 2 > 2e-08"),
        (np.diag([1.0, -3.0, 2.0]), CurvatureError, "not positive definite: smallest eigenvalue -3"),
        (np.zeros((0, 0)), DimensionError, "h is 0x0: there is no system to solve"),
        (np.ones((2, 3)), DimensionError, r"h must be square, got \(2, 3\)"),
        ([[np.nan, 0.0], [0.0, 1.0]], DimensionError, "h contains non-finite entries"),
        (np.ones(3), DimensionError, "h must be 2-D, got ndim=1"),
    ],
    ids=["asymmetric", "indefinite", "empty", "non-square", "nan", "1-D"],
)
def test_a_bad_matrix_fails_alike_through_either_entry(h, error, message):
    prefix = "solve_spd: " if error is CurvatureError else ""
    pattern = f"^{prefix}{message}$"
    with pytest.raises(error, match=pattern):
        spd_factor(h)
    with pytest.raises(error, match=pattern):
        solve_spd(h, np.ones(np.shape(h)[0]))


def test_a_factored_solve_checks_its_right_hand_side():
    factor = spd_factor(np.eye(3))
    with pytest.raises(DimensionError, match="^b has 2 rows, expected 3$"):
        solve_spd(factor, np.ones(2))
    with pytest.raises(DimensionError, match="^b contains non-finite entries$"):
        solve_spd(factor, [1.0, np.inf, 0.0])
