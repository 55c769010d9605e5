import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtunlearn.errors import CurvatureError, DegenerateBasisError, DimensionError
from mtunlearn.linalg import (
    as_matrix,
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
