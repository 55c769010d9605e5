"""Gradient surgery primitives for the low-rank edit.

Projection confines a gradient to one task's subspace; orthogonalization
strips the component of the forget gradient that aligns with a retain
gradient; the sequential variant applies the retain sources in the fixed
order clean -> inst -> task. The update combines retain descent with
orthogonalized forget ascent; the base weight is never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptySubsetError
from .linalg import as_matrix, frob_inner
from .model import LowRankEdit
from .subspace import TaskSubspace

DEFAULT_EPS = 1e-8

# Fixed application order of the retain sources in sequential orthogonalization.
SOURCE_ORDER = ("clean", "inst", "task")


@dataclass(frozen=True)
class GradientPair:
    """Gradient w.r.t. the two trainable factors."""

    a: np.ndarray  # k x r
    b: np.ndarray  # d x r

    def __add__(self, other: "GradientPair") -> "GradientPair":
        return GradientPair(self.a + other.a, self.b + other.b)


@dataclass(frozen=True)
class GradientBundle:
    """Per-source gradients for one surgery step; absent sources are None."""

    forget: GradientPair
    clean: GradientPair | None = None
    inst: GradientPair | None = None
    task: GradientPair | None = None

    def source(self, name: str) -> GradientPair | None:
        return getattr(self, name)


def project_task(grad, subspace: TaskSubspace) -> np.ndarray:
    """Right-multiply by the task projector; idempotent, norm-contracting."""
    grad = as_matrix(grad, "grad")
    if grad.shape[1] != subspace.rank:
        raise DimensionError(
            f"grad has {grad.shape[1]} columns, subspace rank is {subspace.rank}"
        )
    return grad @ subspace.projector()


def project_pair(pair: GradientPair, subspace: TaskSubspace) -> GradientPair:
    return GradientPair(project_task(pair.a, subspace), project_task(pair.b, subspace))


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
    if eps < 0:
        raise ValueError("eps must be >= 0")
    denom = float(np.sum(g_r * g_r)) + eps
    if denom == 0.0:
        raise DimensionError("g_r is zero and eps = 0: projection undefined")
    return g_f - (frob_inner(g_f, g_r) / denom) * g_r


def sequential_orthogonalize(
    bundle: GradientBundle, eps: float = DEFAULT_EPS, skip_sources=()
) -> GradientPair:
    """Orthogonalize the forget gradient against clean, then inst, then task.

    Absent sources are skipped; ``skip_sources`` disables stages by name
    (used by the ablation strategies). The two factors are treated
    independently.
    """
    if bundle.forget is None:
        raise EmptySubsetError("bundle has no forget gradient")
    out_a, out_b = bundle.forget.a, bundle.forget.b
    for name in SOURCE_ORDER:
        if name in skip_sources:
            continue
        g = bundle.source(name)
        if g is None:
            continue
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
