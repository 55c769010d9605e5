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
from .linalg import as_matrix, as_stack
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
    return grad @ (basis @ basis.mT)


def project_pair(pair: GradientPair, basis: np.ndarray) -> GradientPair:
    return GradientPair(project_task(pair.a, basis), project_task(pair.b, basis))


def orthogonalize(g_f, g_r, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Remove the retain-aligned component of the forget gradient.

    Returns g_f - (<g_f, g_r> / (|g_r|^2 + eps)) * g_r. With eps = 0 the
    result is exactly orthogonal to g_r; with eps > 0 the residual
    alignment is eps / (|g_r|^2 + eps) of the original one.
    """
    g_f = as_matrix(g_f, "g_f")
    g_r = as_matrix(g_r, "g_r")
    if g_f.shape != g_r.shape:
        raise DimensionError(f"shape mismatch: {g_f.shape} vs {g_r.shape}")
    if not 0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    denom = float(np.add.reduce(g_r * g_r, axis=None)) + eps
    if denom == 0.0:
        raise DimensionError("g_r is zero and eps = 0: projection undefined")
    return g_f - (float(np.add.reduce(g_f * g_r, axis=None)) / denom) * g_r


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
    retain: GradientPair | None,
    forget_perp: GradientPair | None,
    eta1: float,
    eta2: float,
) -> LowRankEdit:
    """Retain descent plus orthogonalized forget ascent on both factors."""
    if eta1 < 0 or eta2 < 0:
        raise ValueError("step sizes must be >= 0")
    a, b = edit.a.copy(), edit.b.copy()
    if retain is not None:
        a -= eta1 * retain.a
        b -= eta1 * retain.b
    if forget_perp is not None:
        a += eta2 * forget_perp.a
        b += eta2 * forget_perp.b
    return LowRankEdit(w_star=edit.w_star, a=a, b=b)
