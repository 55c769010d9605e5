"""Small dense linear-algebra core used by the surgery and theory code.

Matrices are plain 2-D float64 numpy arrays, and a stack of matrices
puts its batch axes first. Every public operation validates shapes and
rejects non-finite values, so downstream code can assume clean inputs.
Only ``solve_spd`` needs scipy, and it imports ``scipy.linalg`` at its first
call: of the commands, only ``verify`` solves a system and pays that import.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CurvatureError, DegenerateBasisError, DimensionError

# Column is declared linearly dependent when its residual after
# orthogonalization against the earlier columns, |R_jj|, drops below this
# fraction of its original norm.
DEPENDENT_COLUMN_RTOL = 1e-12

SYMMETRY_ATOL = 1e-8


def _finite(m: np.ndarray, name: str) -> np.ndarray:
    """Return ``m``, or raise if it holds NaN/Inf.

    The sum of the entries is non-finite exactly when an entry is or when
    finite entries overflow, so the entrywise test runs only in those
    cases. In those cases numpy's RuntimeWarning from the sum comes first;
    finite entries whose sum overflows are still accepted.
    """
    if not math.isfinite(np.add.reduce(m, axis=None)) and not np.isfinite(m).all():
        raise DimensionError(f"{name} contains non-finite entries")
    return m


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN/Inf."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    return _finite(m, name)


def as_stack(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a float64 stack of matrices, rejecting NaN/Inf.

    The last two axes index a matrix and any leading axes are batch axes,
    so a 2-D array is a stack of one.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim < 2:
        raise DimensionError(f"{name} must be at least 2-D, got ndim={m.ndim}")
    return _finite(m, name)


def frob_inner(a, b) -> float | np.ndarray:
    """Frobenius inner product sum_ij a_ij * b_ij of each pair of matrices in
    two same-shape stacks; two lone matrices give a float."""
    a = as_stack(a, "a")
    b = as_stack(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    inner = np.add.reduce(a * b, axis=(-2, -1))
    return float(inner) if a.ndim == 2 else inner


def frob_norm(a) -> float | np.ndarray:
    """Frobenius norm of each matrix in a stack, one dot product per matrix;
    a lone matrix gives a float, from the dot product ``np.linalg.norm`` takes."""
    a = as_stack(a, "a")
    if a.ndim == 2:  # in memory order, as np.linalg.norm reads a matrix
        v = a.ravel(order="K")
        return math.sqrt(v @ v)
    # Each matrix in C order at unit stride, where the dot product rounds as
    # it does for a lone C-ordered matrix; at a larger stride it rounds apart.
    flat = np.ascontiguousarray(a).reshape(*a.shape[:-2], -1)
    return np.sqrt(np.vecdot(flat, flat))


def orthonormalize(m) -> np.ndarray:
    """Orthonormal basis with the same column span as ``m``.

    Householder QR by ``np.linalg.qr`` (LAPACK ``geqrf`` then ``orgqr``);
    column signs are flipped so that R has a nonnegative diagonal, which
    makes Q unique for full-rank ``m``.

    Leading axes are batch axes, factored in one call: each matrix gets the
    same LAPACK calls as a lone matrix, so its basis is the same to the bit.
    A degenerate matrix raises ``DegenerateBasisError`` naming its column
    and, in a stack, its flat index, which the error's ``index`` holds.
    """
    m = as_stack(m, "m")
    rows, cols = m.shape[-2:]
    if cols > rows:
        raise DimensionError(f"need cols <= rows, got {m.shape[-2:]}")
    if not rows:  # LAPACK rejects a leading dimension of 0
        return np.empty_like(m)
    q, r = np.linalg.qr(m)
    diag = r.diagonal(axis1=-2, axis2=-1)
    norms = np.sqrt(np.add.reduce(m * m, axis=-2))  # np.linalg.norm's sum
    zero = norms == 0.0
    bad = zero | (np.abs(diag) < DEPENDENT_COLUMN_RTOL * norms)
    if bad.any():
        k = int(bad.argmax())  # flat over the stack's columns
        i, j = divmod(k, cols)
        what = "is zero" if zero.flat[k] else "is linearly dependent on earlier columns"
        where = "" if m.ndim == 2 else f"matrix {i}: "
        raise DegenerateBasisError(f"{where}column {j} {what}", index=i)
    q *= np.copysign(1.0, diag)[..., None, :]
    return q


def solve_spd(h, b) -> np.ndarray:
    """Solve h @ x = b for symmetric positive definite ``h`` via Cholesky.

    LAPACK ``potrf``/``potrs`` are called directly: they are what
    ``scipy.linalg.cho_factor``/``cho_solve`` wrap, so the result is the
    same to the bit, without the wrappers' per-call cost.
    """
    from scipy.linalg import lapack

    h = as_matrix(h, "h")
    b_arr = np.asarray(b, dtype=float)
    squeeze = b_arr.ndim == 1
    if squeeze:
        b_arr = b_arr[:, None]
    b_arr = as_matrix(b_arr, "b")
    n = h.shape[0]
    if h.shape[1] != n:
        raise DimensionError(f"h must be square, got {h.shape}")
    if n == 0:
        raise DimensionError("h is 0x0: there is no system to solve")
    if b_arr.shape[0] != n:
        raise DimensionError(f"b has {b_arr.shape[0]} rows, expected {n}")
    asym = np.abs(h - h.T).max()
    tol = SYMMETRY_ATOL * max(1.0, np.abs(h).max())
    if asym > tol:
        raise CurvatureError(f"solve_spd: not symmetric: max |h - h^T| = {asym:.3g} > {tol:.3g}")
    factor, info = lapack.dpotrf(h, lower=1, clean=0)
    if info > 0:
        lam = np.linalg.eigvalsh(h)[0]
        raise CurvatureError(f"solve_spd: not positive definite: smallest eigenvalue {lam:.3g}")
    x, _ = lapack.dpotrs(factor, b_arr, lower=1)
    # One step of iterative refinement keeps the residual near 1e-9 * |b|.
    r = b_arr - h @ x
    x = x + lapack.dpotrs(factor, r, lower=1)[0]
    if not np.isfinite(x).all():
        raise CurvatureError("solve_spd: solution overflowed: h is singular to working precision")
    return x[:, 0] if squeeze else x
