"""Gradient surgery primitives for the low-rank edit.

Projection confines a gradient to one task's subspace; orthogonalization
strips the component of the forget gradient that aligns with a retain
gradient; the sequential variant applies a list of retain gradients in
order. The update combines retain descent with orthogonalized forget
ascent; the base weight is never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import as_stack
from .model import LowRankEdit

DEFAULT_EPS = 1e-8


@dataclass(frozen=True)
class GradientPair:
    """Gradient w.r.t. the two trainable factors."""

    a: np.ndarray  # k x r
    b: np.ndarray  # d x r

    def __add__(self, other: "GradientPair") -> "GradientPair":
        return GradientPair(self.a + other.a, self.b + other.b)


def project_task(grad, basis: np.ndarray) -> np.ndarray:
    """Right-multiply by the projector ``basis @ basis.T`` of an r×s task basis;
    idempotent, norm-contracting.

    Leading axes of ``grad`` and ``basis`` are batch axes that broadcast, so
    stacks project each gradient by its own basis in one call.
    """
    grad = as_stack(grad, "grad")
    if grad.shape[-1] != basis.shape[-2]:
        raise DimensionError(f"grad has {grad.shape[-1]} columns, basis rank is {basis.shape[-2]}")
    try:
        return grad @ (basis @ basis.mT)
    except ValueError:  # batch axes that do not broadcast
        raise DimensionError(f"batch axes of {grad.shape} and {basis.shape} do not broadcast") from None


def project_pair(pair: GradientPair, basis: np.ndarray) -> GradientPair:
    return GradientPair(project_task(pair.a, basis), project_task(pair.b, basis))


def orthogonalize(g_f, g_r, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Remove the retain-aligned component of the forget gradient.

    Returns g_f - (<g_f, g_r> / (|g_r|^2 + eps)) * g_r. With eps = 0 the
    result is exactly orthogonal to g_r; with eps > 0 the residual
    alignment is eps / (|g_r|^2 + eps) of the original one.

    Leading axes are batch axes that broadcast, so stacks orthogonalize each
    forget gradient against its own retain gradient in one call. Each
    matrix's inner products reduce its C-contiguous product as one run, so
    a matrix of a stack gets the same bits as a lone matrix.
    """
    g_f = as_stack(g_f, "g_f")
    g_r = as_stack(g_r, "g_r")
    if g_f.shape[-2:] != g_r.shape[-2:]:
        raise DimensionError(f"shape mismatch: {g_f.shape} vs {g_r.shape}")
    if not 0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    # A 2-D call reduces to numpy scalars, whose arithmetic costs less than
    # that of 0-d or (1, 1) arrays.
    denom = np.add.reduce(g_r * g_r, axis=(-2, -1)) + eps
    # With eps > 0 every denominator is at least eps.
    if not eps and np.count_nonzero(denom) != denom.size:
        raise DimensionError("g_r is zero and eps = 0: projection undefined")
    try:
        coef = np.add.reduce(g_f * g_r, axis=(-2, -1)) / denom
    except ValueError:  # batch axes that do not broadcast
        raise DimensionError(f"batch axes of {g_f.shape} and {g_r.shape} do not broadcast") from None
    return g_f - coef[..., None, None] * g_r


def sequential_orthogonalize(
    forget: GradientPair, retain, eps: float = DEFAULT_EPS
) -> GradientPair:
    """Orthogonalize the forget gradient against each retain gradient in turn.

    ``retain`` is the ordered list of retain ``GradientPair``s; an empty list
    returns the forget arrays unchanged. The two factors are treated
    independently.
    """
    out_a, out_b = forget.a, forget.b
    for g in retain:
        out_a = orthogonalize(out_a, g.a, eps)
        out_b = orthogonalize(out_b, g.b, eps)
    return GradientPair(out_a, out_b)


def apply_update(
    edit: LowRankEdit,
    retain: GradientPair,
    forget_perp: GradientPair,
    eta1: float,
    eta2: float,
) -> LowRankEdit:
    """Retain descent plus orthogonalized forget ascent on both factors."""
    if eta1 < 0 or eta2 < 0:
        raise ValueError("step sizes must be >= 0")
    a = edit.a - eta1 * retain.a + eta2 * forget_perp.a
    b = edit.b - eta1 * retain.b + eta2 * forget_perp.b
    return LowRankEdit(w_star=edit.w_star, a=a, b=b)
