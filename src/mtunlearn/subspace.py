"""Task-specific subspaces of the low-rank adaptation space.

Each task owns an orthonormal basis of the r-dimensional factor space;
the induced projector confines that task's updates. Cross-task alignment
is measured in both Frobenius and spectral norms and can be driven down
with a penalized descent step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, DegenerateBasisError, DimensionError
from .linalg import orthonormalize


@dataclass(frozen=True)
class TaskSubspace:
    task_id: int
    basis: np.ndarray  # r x s, orthonormal columns

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


def check_layout(n_tasks: int, rank: int, dim: int, mode: str):
    """Raise unless ``mode`` can lay out ``n_tasks`` subspaces of width ``dim`` in ``rank``."""
    if mode not in ("disjoint-blocks", "random"):
        raise ConfigError(f"unknown mode {mode!r}, expected 'disjoint-blocks' or 'random'")
    if not 1 <= dim <= rank:
        raise DimensionError(f"need 1 <= dim <= rank, got dim={dim}, rank={rank}")
    if mode == "disjoint-blocks" and n_tasks * dim > rank:
        raise CapacityError(f"{n_tasks} blocks of width {dim} do not fit in rank {rank}")


def init_subspaces(
    n_tasks: int, rank: int, dim: int, mode: str = "disjoint-blocks", seed: int = 0
) -> list[TaskSubspace]:
    """Per-task bases; disjoint standard-basis blocks or independent random draws."""
    check_layout(n_tasks, rank, dim, mode)
    if mode == "disjoint-blocks":
        eye = np.eye(rank)
        return [
            TaskSubspace(t, eye[:, t * dim : (t + 1) * dim].copy())
            for t in range(n_tasks)
        ]
    rng = np.random.default_rng(seed)
    return [
        TaskSubspace(t, orthonormalize(rng.standard_normal((rank, dim))))
        for t in range(n_tasks)
    ]


def default_subspace_dim(rank: int, n_tasks: int) -> int:
    return max(1, rank // n_tasks)


@dataclass(frozen=True)
class SubspaceConfig:
    """Arguments of :func:`init_subspaces` that a run config sets; see :func:`check_layout`."""

    dim: int
    mode: str = "disjoint-blocks"


def alignment(u: TaskSubspace, v: TaskSubspace) -> tuple[float, float]:
    """(squared Frobenius, spectral) norms of the basis cross-product.

    The spectral value is the operational cross-task alignment bound used
    by the projected-gradient inner-product guarantee.
    """
    if u.rank != v.rank:
        raise DimensionError("subspaces live in different ambient ranks")
    cross = u.basis.T @ v.basis
    frob_sq = float(np.sum(cross * cross))
    spectral = float(np.linalg.norm(cross, 2)) if cross.size else 0.0
    return frob_sq, spectral


def total_alignment(subspaces) -> float:
    """Sum of pairwise squared-Frobenius alignments over ordered pairs t != t'."""
    total = 0.0
    for i, u in enumerate(subspaces):
        for j, v in enumerate(subspaces):
            if i != j:
                total += alignment(u, v)[0]
    return total


def regularize_step(subspaces, step_size: float) -> list[TaskSubspace]:
    """One descent step on the pairwise alignment penalty, then re-orthonormalize.

    Gradient w.r.t. each basis U_t is 2 * sum_{t' != t} P_{t'} U_t. A zero
    step size is an exact identity. The bases share one shape, as
    ``init_subspaces`` makes them.
    """
    if not 0 <= step_size < np.inf:
        raise ValueError(f"step_size must be finite and >= 0, got {step_size}")
    if step_size == 0 or not subspaces:
        return list(subspaces)
    # bases[i] = U_i and prods[i, j] = 2 P_j U_i: all K^2 products in one
    # stacked matmul. Each grads[i] adds the products with j != i in order of j.
    n = len(subspaces)
    bases = np.stack([s.basis for s in subspaces])
    prods = (2.0 * (bases @ bases.transpose(0, 2, 1)))[None] @ bases[:, None]
    grads = prods[~np.eye(n, dtype=bool)].reshape(n, n - 1, *bases.shape[1:]).sum(axis=1)
    stepped = bases - step_size * grads
    out = []
    for s, m in zip(subspaces, stepped):
        try:
            basis = orthonormalize(m)
        except DegenerateBasisError as exc:
            raise DegenerateBasisError(
                f"task {s.task_id} basis collapsed during regularization"
            ) from exc
        out.append(TaskSubspace(s.task_id, basis))
    return out
