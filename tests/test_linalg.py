import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mtunlearn.errors import CurvatureError, DegenerateBasisError, DimensionError
from mtunlearn.linalg import (
    as_matrix,
    as_stack,
    frob_inner,
    frob_norm,
    orthonormalize,
    solve_spd,
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
