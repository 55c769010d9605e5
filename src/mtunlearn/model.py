"""Shared-parameter multi-task model with a trainable low-rank edit.

The shared layer is W = w_star + b @ a.T with w_star frozen; per-task
linear heads are fixed. Squared loss throughout, which keeps gradients
and the flattened Hessian exactly computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import GenConfig, MultiTaskDataset, SyntheticProblem
from .errors import (
    ConfigError,
    DimensionError,
    EmptySubsetError,
    SizeGuardError,
    StepSizeError,
)

HESSIAN_PARAM_GUARD = 400

# Reference training stops early once the gradient norm drops below this.
GRAD_TOL = 1e-7


@dataclass(frozen=True)
class LowRankEdit:
    """Frozen base weight plus trainable rank-r factors (d x k layer)."""

    w_star: np.ndarray  # d x k, never modified
    a: np.ndarray  # k x r
    b: np.ndarray  # d x r

    def __post_init__(self):
        d, k = self.w_star.shape
        if self.a.shape[0] != k or self.b.shape[0] != d:
            raise DimensionError("factor shapes inconsistent with w_star")
        if self.a.shape[1] != self.b.shape[1]:
            raise DimensionError("a and b must share the same rank")

    @property
    def rank(self) -> int:
        return self.a.shape[1]

    def effective_weight(self) -> np.ndarray:
        """``w_star + b a^T``, computed once per edit and returned read-only."""
        return self._effective_weight

    @cached_property
    def _effective_weight(self) -> np.ndarray:
        w = self.w_star + self.b @ self.a.T
        w.flags.writeable = False
        return w


@dataclass(frozen=True)
class MultiTaskModel:
    edit: LowRankEdit
    heads: tuple[np.ndarray, ...]  # fixed per-task maps, m_t x k

    @property
    def n_tasks(self) -> int:
        return len(self.heads)

    def with_edit(self, edit: LowRankEdit) -> "MultiTaskModel":
        return replace(self, edit=edit)

    def predict(self, x: np.ndarray, task: int) -> np.ndarray:
        """Batch prediction for one task; x is (n, d) or (d,)."""
        single = x.ndim == 1
        xb = np.atleast_2d(x)
        out = xb @ self.edit.effective_weight() @ self.heads[task].T
        return out[0] if single else out


def zero_init_edit(w_star: np.ndarray, rank: int, seed: int):
    """Fresh edit: random a, zero b, so the initial delta weight is zero."""
    rng = np.random.default_rng(seed)
    d, k = w_star.shape
    a = rng.standard_normal((k, rank)) / np.sqrt(k)
    b = np.zeros((d, rank))
    return LowRankEdit(w_star=w_star, a=a, b=b)


def balanced_init_edit(w_star: np.ndarray, rank: int, seed: int, scale: float = 0.1):
    """Small balanced random factors; used for reference training from scratch."""
    rng = np.random.default_rng(seed)
    d, k = w_star.shape
    a = scale * rng.standard_normal((k, rank))
    b = scale * rng.standard_normal((d, rank))
    return LowRankEdit(w_star=w_star, a=a, b=b)


def pair_loss(model: MultiTaskModel, ds: MultiTaskDataset, pair) -> float:
    """Squared loss 0.5 * |f_t(x_i) - y_i|^2 for one (instance, task) pair."""
    i, t = pair
    err = model.predict(ds.inputs[i], t) - ds.targets[t][i]
    return 0.5 * float(err @ err)


@dataclass(frozen=True, eq=False)
class TaskBlock:
    """One task's pairs in a subset, as sufficient statistics of its rows.

    ``gram`` and ``cross`` give the gradient and Hessian. The loss comes from
    the R factor of ``[X_t, Y_t] = Q R``: ``r`` and ``z`` are its top rows
    (at most d) under the X and Y columns, so ``r = Q_1^T X_t`` and
    ``z = Q_1^T Y_t``, and ``rho`` is the squared norm of its bottom-right
    block, the part of Y_t outside the column space of X_t. The factor is
    computed on first use, so a subset that only feeds gradients never
    pays for it.
    """

    dataset: MultiTaskDataset = field(repr=False)
    task: int
    index: np.ndarray  # instance ids, in pair order (repeats allowed)
    gram: np.ndarray  # X_t^T X_t, d x d
    cross: np.ndarray  # X_t^T Y_t, d x m_t

    # Cached one by one, so that after the first loss call each is a plain
    # attribute read: subset_loss reads all three for every block.
    @cached_property
    def r_factor(self) -> np.ndarray:
        """R of ``[X_t, Y_t]``, min(n_t, d + m_t) x (d + m_t), upper triangular."""
        x, y = _rows(self.dataset, self.task, self.index)
        return np.linalg.qr(np.hstack([x, y]), mode="r")

    @cached_property
    def r(self) -> np.ndarray:  # min(n_t, d) x d
        d = self.gram.shape[0]
        return self.r_factor[:d, :d]

    @cached_property
    def z(self) -> np.ndarray:  # min(n_t, d) x m_t
        d = self.gram.shape[0]
        return self.r_factor[:d, d:]

    @cached_property
    def rho(self) -> float:  # |(I - Q_1 Q_1^T) Y_t|^2
        d = self.gram.shape[0]
        tail = self.r_factor[d:, d:]
        return float(np.vdot(tail, tail))


def _rows(ds: MultiTaskDataset, task: int, index: np.ndarray):
    # np.take gathers whole rows several times faster than a[idx].
    return np.take(ds.inputs, index, axis=0), np.take(ds.targets[task], index, axis=0)


@dataclass(frozen=True, eq=False)
class Subset:
    """(instance, task) pairs of one dataset, grouped by task once.

    ``len()`` is the pair count. Losses, gradients and Hessians need only
    each block's cached statistics, so their cost does not grow with N.
    """

    dataset: MultiTaskDataset
    blocks: tuple[TaskBlock, ...]
    _n_pairs: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_n_pairs", sum(b.index.size for b in self.blocks))

    @classmethod
    def from_pairs(cls, ds: MultiTaskDataset, pairs) -> "Subset":
        """Group ``pairs`` by task (ascending), keeping pair order within a task."""
        arr = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        inst, task = arr[:, 0], arr[:, 1]
        # Checked here because a negative id would silently index from the end.
        if np.any((inst < 0) | (inst >= ds.n_instances)):
            raise DimensionError("subset instance id out of range")
        if np.any((task < 0) | (task >= ds.n_tasks)):
            raise DimensionError("subset task id out of range")
        blocks = []
        for t in np.unique(task).tolist():
            idx = inst[task == t]
            x, y = _rows(ds, t, idx)
            blocks.append(TaskBlock(ds, t, idx, x.T @ x, x.T @ y))
        return cls(ds, tuple(blocks))

    def __len__(self) -> int:
        return self._n_pairs

    def by_task(self) -> list["Subset"]:
        """One single-task subset per block, sharing this subset's arrays."""
        return [Subset(self.dataset, (b,)) for b in self.blocks]


def _as_subset(ds: MultiTaskDataset, pairs, op: str) -> Subset:
    subset = pairs if isinstance(pairs, Subset) else Subset.from_pairs(ds, pairs)
    if subset.dataset is not ds:
        raise ConfigError(f"{op}: subset was built on a different dataset")
    if not subset:
        raise EmptySubsetError(f"{op} over empty subset")
    return subset


def subset_loss(model: MultiTaskModel, ds: MultiTaskDataset, pairs, weighted=False):
    """Mean per-pair loss over ``pairs``; optionally task-weighted.

    ``pairs`` is a :class:`Subset` of ``ds`` or a sequence of (instance,
    task) pairs. Per task, |X_t W M_t^T - Y_t|^2 = |R_t W M_t^T - Z_t|^2 +
    rho_t, a sum of squares that cannot cancel below zero the way the
    expanded Gram quadratic does near zero loss; a call costs O(K d^2 m).
    """
    subset = _as_subset(ds, pairs, "subset_loss")
    w_eff = model.edit.effective_weight()
    total = 0.0
    for blk in subset.blocks:
        t = blk.task
        e = blk.r @ (w_eff @ model.heads[t].T) - blk.z
        lam = ds.task_weights[t] if weighted else 1.0
        total += 0.5 * lam * (float(np.vdot(e, e)) + blk.rho)
    return total / len(subset)


def subset_gradient(model: MultiTaskModel, ds: MultiTaskDataset, pairs, weighted=False):
    """Analytic gradients of the subset-mean loss w.r.t. (a, b), w_star frozen.

    Per task, X_t^T (X_t W M_t^T - Y_t) M_t = G_t W M_t^T M_t - C_t M_t, so a
    call costs O(K d^2 k) given the subset's cached G_t and C_t.
    """
    subset = _as_subset(ds, pairs, "subset_gradient")
    w_eff = model.edit.effective_weight()
    grad_w = None
    for blk in subset.blocks:
        m = model.heads[blk.task]
        term = blk.gram @ w_eff @ (m.T @ m) - blk.cross @ m
        if weighted:
            term = ds.task_weights[blk.task] * term
        if grad_w is None:
            grad_w = term
        else:
            grad_w += term
    grad_w /= len(subset)
    return grad_w.T @ model.edit.b, grad_w @ model.edit.a


def flatten_params(edit: LowRankEdit) -> np.ndarray:
    return np.concatenate([edit.a.ravel(), edit.b.ravel()])


def unflatten_params(edit: LowRankEdit, theta: np.ndarray) -> LowRankEdit:
    k, r = edit.a.shape
    d = edit.b.shape[0]
    a = theta[: k * r].reshape(k, r)
    b = theta[k * r :].reshape(d, r)
    return LowRankEdit(w_star=edit.w_star, a=a, b=b)


def flattened_hessian(model: MultiTaskModel, ds: MultiTaskDataset, pairs) -> np.ndarray:
    """Exact Hessian of the subset-mean loss w.r.t. flattened (a, b).

    Parameter order matches :func:`flatten_params`: a.ravel() then
    b.ravel() (row-major). Built from each block's G_t and C_t, so it does
    not grow with N. Guarded to r*(k+d) <= 400 parameters.
    """
    subset = _as_subset(ds, pairs, "flattened_hessian")
    edit = model.edit
    d, k = edit.w_star.shape
    r = edit.rank
    p_a, p_b = k * r, d * r
    if p_a + p_b > HESSIAN_PARAM_GUARD:
        raise SizeGuardError(
            f"r*(k+d) = {p_a + p_b} exceeds guard {HESSIAN_PARAM_GUARD}; "
            "shrink the problem"
        )
    h = np.zeros((p_a + p_b, p_a + p_b))
    w_eff = edit.effective_weight()
    for blk in subset.blocks:
        m = model.heads[blk.task]  # m_t x k
        ma = m @ edit.a  # m_t x r
        mtm = m.T @ m
        s = edit.b.T @ blk.gram  # r x d (index j, l): U^T X with U = X b
        # a-a block: kron over (row index of a) x (column index of a)
        h[:p_a, :p_a] += np.kron(mtm, s @ edit.b)
        # b-b block
        h[p_a:, p_a:] += np.kron(blk.gram, ma.T @ ma)
        # a-b block, Gauss-Newton part: C[i,p] * sum_n u_j x_l
        c = mtm @ edit.a  # k x r (index i, p)
        t_ab = np.einsum("ip,jl->ijlp", c, s)
        # a-b block, residual curvature part: delta_{jp} * (X^T E M)[l, i],
        # with X^T E M = G W M^T M - C M for residuals E = X W M^T - Y
        dmat = blk.gram @ w_eff @ mtm - blk.cross @ m  # d x k (index l, i)
        t_ab += np.einsum("li,jp->ijlp", dmat, np.eye(r))
        ab = t_ab.reshape(p_a, p_b)
        h[:p_a, p_a:] += ab
        h[p_a:, :p_a] += ab.T
    h /= len(subset)
    return 0.5 * (h + h.T)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    step_size: float
    seed: int
    rank: int | None = None  # None: see rank_for
    init_scale: float = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("step_size", "init_scale"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")
        if self.rank is not None and self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")

    def rank_for(self, problem_config: GenConfig) -> int:
        """The edit's rank: ``rank``, or the generator's teacher rank if None."""
        return self.rank if self.rank is not None else problem_config.teacher_rank


def train_reference(
    problem: SyntheticProblem, pairs, config: TrainConfig
) -> MultiTaskModel:
    """Full-batch gradient descent on the task-weighted mean loss over ``pairs``.

    Trains (a, b) from a small seeded init over a zero base weight; stops at
    the epoch budget or when the gradient norm drops below ``GRAD_TOL``.
    """
    ds = problem.dataset
    subset = _as_subset(ds, pairs, "train_reference")
    d, k = problem.config.input_dim, problem.shared_dim
    edit = balanced_init_edit(
        np.zeros((d, k)), config.rank_for(problem.config), config.seed, scale=config.init_scale
    )
    model = MultiTaskModel(edit=edit, heads=tuple(problem.heads))
    for epoch in range(1, config.epochs + 1):
        ga, gb = subset_gradient(model, ds, subset, weighted=True)
        gnorm = np.sqrt(np.sum(ga * ga) + np.sum(gb * gb))
        if gnorm < GRAD_TOL:
            break
        edit = LowRankEdit(
            w_star=edit.w_star,
            a=edit.a - config.step_size * ga,
            b=edit.b - config.step_size * gb,
        )
        model = model.with_edit(edit)
        loss = subset_loss(model, ds, subset, weighted=True)
        if not np.isfinite(loss) or loss > 1e12:
            raise StepSizeError(f"train_reference epoch {epoch}: loss={float(loss)!r}")
    return model
