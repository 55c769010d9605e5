"""Task-specific subspaces of the low-rank adaptation space.

Each task owns an orthonormal basis of the r-dimensional factor space;
the induced projector confines that task's updates. The K bases are one
``(K, r, s)`` array whose ``bases[t]`` is task t's basis. Cross-task
alignment is measured in both Frobenius and spectral norms and can be
driven down with a penalized descent step.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, DegenerateBasisError, DimensionError
from .linalg import orthonormalize


def check_layout(n_tasks: int, rank: int, dim: int, mode: str):
    """Raise unless ``mode`` can lay out ``n_tasks`` subspaces of width ``dim`` in ``rank``."""
    if mode not in ("disjoint-blocks", "random"):
        raise ConfigError(f"unknown mode {mode!r}, expected 'disjoint-blocks' or 'random'")
    if n_tasks < 1:
        raise DimensionError(f"need n_tasks >= 1, got {n_tasks}")
    if not 1 <= dim <= rank:
        raise DimensionError(f"need 1 <= dim <= rank, got dim={dim}, rank={rank}")
    if mode == "disjoint-blocks" and n_tasks * dim > rank:
        raise CapacityError(f"{n_tasks} blocks of width {dim} do not fit in rank {rank}")


def init_subspaces(
    n_tasks: int, rank: int, dim: int, mode: str = "disjoint-blocks", seed: int = 0
) -> np.ndarray:
    """The ``(n_tasks, rank, dim)`` bases: disjoint standard-basis blocks or
    independent random draws."""
    check_layout(n_tasks, rank, dim, mode)
    if mode == "disjoint-blocks":
        eye = np.eye(rank)
        return np.stack([eye[:, t * dim : (t + 1) * dim] for t in range(n_tasks)])
    # Filled in C order: the same stream as one (rank, dim) draw per task.
    return orthonormalize(np.random.default_rng(seed).standard_normal((n_tasks, rank, dim)))


def default_subspace_dim(rank: int, n_tasks: int) -> int:
    return max(1, rank // n_tasks)


@dataclass(frozen=True)
class SubspaceConfig:
    """Arguments of :func:`init_subspaces` that a run config sets; see :func:`check_layout`."""

    dim: int
    mode: str = "disjoint-blocks"


def alignment(
    u: np.ndarray, v: np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(squared Frobenius, spectral) norms of the cross-product of bases ``u`` and ``v``.

    The spectral value is the operational cross-task alignment bound used
    by the projected-gradient inner-product guarantee. Two bases give two
    floats. Leading axes are batch axes that broadcast: stacks of bases
    give two arrays with one value per pair of bases.
    """
    if u.shape[-2] != v.shape[-2]:
        raise DimensionError(
            f"bases live in different ambient ranks: {u.shape[-2]} vs {v.shape[-2]}"
        )
    cross = u.mT @ v
    frob_sq = np.add.reduce(cross * cross, axis=(-2, -1))
    if cross.size:
        spectral = np.linalg.norm(cross, 2, axis=(-2, -1))
    else:
        spectral = np.zeros(cross.shape[:-2])
    if cross.ndim == 2:
        return float(frob_sq), float(spectral)
    return frob_sq, spectral


# regularize_step's results by content, least recently used first. Every
# projecting run from the same bases replays one schedule, one step per epoch,
# so the memo holds a whole run of up to this many epochs (a run of more gets
# no hits); an entry holds its key's bytes and its result, 2·K·r·s·8 bytes.
REGULARIZE_MEMO_SIZE = 32
_regularized: OrderedDict = OrderedDict()


def regularize_step(bases: np.ndarray, step_size: float) -> np.ndarray:
    """One descent step on the pairwise alignment penalty, then re-orthonormalize.

    Gradient w.r.t. each basis U_t is 2 * sum_{t' != t} P_{t'} U_t. A zero
    step size returns ``bases`` itself. Otherwise the result is read-only and
    memoized on the bytes, dtype and shape of ``bases`` and on ``step_size``,
    the only things it depends on (see ``REGULARIZE_MEMO_SIZE``).
    """
    if not 0 <= step_size < np.inf:
        raise ValueError(f"step_size must be finite and >= 0, got {step_size}")
    if step_size == 0:
        return bases
    key = (bases.dtype.str, bases.shape, bases.tobytes(), step_size)
    out = _regularized.get(key)
    if out is not None:
        _regularized.move_to_end(key)
        return out
    out = _regularize_step(bases, step_size)
    out.flags.writeable = False
    _regularized[key] = out
    if len(_regularized) > REGULARIZE_MEMO_SIZE:
        _regularized.popitem(last=False)
    return out


def _regularize_step(bases: np.ndarray, step_size: float) -> np.ndarray:
    """:func:`regularize_step` for a positive ``step_size``, computed."""
    # prods[i, j] = 2 P_j U_i: all K^2 products in one stacked matmul.
    # Each grads[i] adds the products with j != i in order of j.
    n = len(bases)
    prods = (2.0 * (bases @ bases.transpose(0, 2, 1)))[None] @ bases[:, None]
    grads = prods[~np.eye(n, dtype=bool)].reshape(n, n - 1, *bases.shape[1:]).sum(axis=1)
    try:
        return orthonormalize(bases - step_size * grads)
    except DegenerateBasisError as exc:
        raise DegenerateBasisError(
            f"task {exc.index} basis collapsed during regularization", index=exc.index
        ) from exc
