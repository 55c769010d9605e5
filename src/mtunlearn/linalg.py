"""Small dense linear-algebra core used by the surgery and theory code.

Matrices are plain 2-D float64 numpy arrays. Every public operation
validates shapes and rejects non-finite values, so downstream code can
assume clean inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import CurvatureError, DegenerateBasisError, DimensionError

# Column is declared linearly dependent when its residual after
# orthogonalization drops below this fraction of its original norm.
DEPENDENT_COLUMN_RTOL = 1e-12

SYMMETRY_ATOL = 1e-8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN/Inf."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DimensionError(f"{name} contains non-finite entries")
    return m


def frob_inner(a, b) -> float:
    """Frobenius inner product sum_ij a_ij * b_ij."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))


def frob_norm(a) -> float:
    a = as_matrix(a, "a")
    return float(np.linalg.norm(a))


def orthonormalize(m) -> np.ndarray:
    """Orthonormal basis with the same column span as ``m``.

    Modified Gram-Schmidt with a second re-orthogonalization pass keeps
    Q^T Q within 1e-10 of the identity even for ill-conditioned inputs.
    """
    m = as_matrix(m, "m")
    rows, cols = m.shape
    if cols > rows:
        raise DimensionError(f"need cols <= rows, got {m.shape}")
    q = np.empty_like(m)
    for j in range(cols):
        v = m[:, j].copy()
        original = np.linalg.norm(v)
        if original == 0.0:
            raise DegenerateBasisError(f"column {j} is zero")
        for _ in range(2):  # re-orthogonalization pass
            for i in range(j):
                v -= np.dot(q[:, i], v) * q[:, i]
        residual = np.linalg.norm(v)
        if residual < DEPENDENT_COLUMN_RTOL * original:
            raise DegenerateBasisError(
                f"column {j} is linearly dependent on earlier columns"
            )
        q[:, j] = v / residual
    return q


def solve_spd(h, b) -> np.ndarray:
    """Solve h @ x = b for symmetric positive definite ``h`` via Cholesky."""
    h = as_matrix(h, "h")
    b_arr = np.asarray(b, dtype=float)
    squeeze = b_arr.ndim == 1
    if squeeze:
        b_arr = b_arr[:, None]
    b_arr = as_matrix(b_arr, "b")
    n = h.shape[0]
    if h.shape[1] != n:
        raise DimensionError(f"h must be square, got {h.shape}")
    if b_arr.shape[0] != n:
        raise DimensionError(f"b has {b_arr.shape[0]} rows, expected {n}")
    asym = np.max(np.abs(h - h.T))
    tol = SYMMETRY_ATOL * max(1.0, np.max(np.abs(h)))
    if asym > tol:
        raise CurvatureError(f"solve_spd: not symmetric: max |h - h^T| = {asym:.3g} > {tol:.3g}")
    try:
        factor = scipy.linalg.cho_factor(h, lower=True)
    except scipy.linalg.LinAlgError as exc:
        lam = np.linalg.eigvalsh(h)[0]
        raise CurvatureError(
            f"solve_spd: not positive definite: smallest eigenvalue {lam:.3g}"
        ) from exc
    x = scipy.linalg.cho_solve(factor, b_arr)
    # One step of iterative refinement keeps the residual near 1e-9 * |b|.
    r = b_arr - h @ x
    x = x + scipy.linalg.cho_solve(factor, r)
    return x[:, 0] if squeeze else x
