"""Shared-parameter multi-task model with a trainable low-rank edit.

The shared layer is W = w_star + b @ a.T with w_star frozen; per-task
linear heads are fixed. Squared loss throughout, which keeps gradients
and the flattened Hessian exactly computable.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import GenConfig, MultiTaskDataset, PartitionSpec, SyntheticProblem
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

# The most epochs a training or unlearning run may take, so that every run ends.
MAX_EPOCHS = 100_000


@dataclass(frozen=True)
class LowRankEdit:
    """Frozen base weight plus trainable rank-r factors (d x k layer), never modified in place."""

    w_star: np.ndarray  # d x k, never modified
    a: np.ndarray  # k x r
    b: np.ndarray  # d x r
    # w_star + b a^T, read-only, computed on construction: every edit built is read.
    effective_weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d, k = self.w_star.shape
        if self.a.shape[0] != k or self.b.shape[0] != d:
            raise DimensionError("factor shapes inconsistent with w_star")
        if self.a.shape[1] != self.b.shape[1]:
            raise DimensionError("a and b must share the same rank")
        w = self.w_star + self.b @ self.a.T
        w.flags.writeable = False
        object.__setattr__(self, "effective_weight", w)

    @property
    def rank(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class MultiTaskModel:
    edit: LowRankEdit
    heads: tuple[np.ndarray, ...]  # fixed per-task maps, m_t x k
    # Root block stack -> [heads, residuals, W-gradients or None]; see _statistics.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def stacked_heads(self) -> np.ndarray:
        """The heads as one read-only (K, m_max, k) array, rows zero-padded."""
        m_max = max(h.shape[0] for h in self.heads)
        stack = np.stack([np.pad(h, ((0, m_max - h.shape[0]), (0, 0))) for h in self.heads])
        stack.flags.writeable = False
        return stack

    def with_edit(self, edit: LowRankEdit) -> "MultiTaskModel":
        model = MultiTaskModel(edit, self.heads)
        # Same heads: hand over the stack rather than build it once per epoch.
        object.__setattr__(model, "stacked_heads", self.stacked_heads)
        return model


def zero_init_edit(w_star: np.ndarray, rank: int, seed: int):
    """Fresh edit: random a, zero b, so the initial delta weight is zero."""
    rng = np.random.default_rng(seed)
    d, k = w_star.shape
    a = rng.standard_normal((k, rank)) / np.sqrt(k)
    b = np.zeros((d, rank))
    return LowRankEdit(w_star=w_star, a=a, b=b)


def balanced_init_edit(w_star: np.ndarray, rank: int, seed: int):
    """Small balanced random factors (scale 0.1); used for reference training from scratch."""
    rng = np.random.default_rng(seed)
    d, k = w_star.shape
    a = 0.1 * rng.standard_normal((k, rank))
    b = 0.1 * rng.standard_normal((d, rank))
    return LowRankEdit(w_star=w_star, a=a, b=b)


def cell_factors(ds: MultiTaskDataset, instances: np.ndarray, tasks) -> list[np.ndarray]:
    """Per task t of ``tasks``, the R factor of the rows ``[X, Y_t]`` of
    ``instances``, in their order, from one tall QR: upper trapezoidal,
    min(n, d + m_t) x (d + m_t). ``instances`` must be valid row ids."""
    d = ds.inputs.shape[1]
    # Gathered column-major, once per call, with the X columns shared by the
    # tasks: numpy's QR copies its input into LAPACK's column-major layout,
    # which from row-major rows took about half of each QR's time.
    cols = np.empty((d + max(ds.task_dims[t] for t in tasks), instances.size))
    # np.take gathers whole rows several times faster than a[idx].
    cols[:d] = np.take(ds.inputs, instances, axis=0).T
    factors = []
    for t in tasks:
        m = ds.targets[t].shape[1]
        cols[d : d + m] = np.take(ds.targets[t], instances, axis=0).T
        factors.append(np.linalg.qr(cols[: d + m].T, mode="r"))
    return factors


@dataclass(frozen=True, eq=False)
class Subset:
    """(instance, task) pairs of one dataset, grouped by task once.

    Block i holds the pairs of task ``tasks[i]``. With ``[X_t, Y_t] = Q R``,
    ``r[i]`` and ``z[i]`` are the top rows of R (at most d, zero-padded to
    d) under the X and Y columns, so ``r = Q_1^T X_t`` and ``z = Q_1^T Y_t``;
    ``rho[i]`` is the squared norm of R's bottom-right block, the part of
    Y_t outside the column space of X_t. Since ``X_t^T X_t = r^T r`` and
    ``X_t^T Y_t = r^T z``, these give the loss, the gradient and the
    Hessian at a cost that does not grow with N. ``len()`` is the pair count.
    A view holds blocks ``start:`` of the root stack ``root``, slicing its arrays.
    """

    dataset: MultiTaskDataset
    tasks: np.ndarray  # (n_b,), ascending
    counts: tuple[int, ...]  # pairs per block, repeats included
    r: np.ndarray  # (n_b, d, d), upper triangular (trapezoidal if n_t < d)
    z: np.ndarray  # (n_b, d, m_max), zero columns beyond m_t
    rho: np.ndarray  # (n_b,), |(I - Q_1 Q_1^T) Y_t|^2
    root: "Subset | None" = field(default=None, repr=False)  # None: a root stack
    start: int = 0

    def __post_init__(self):
        object.__setattr__(self, "_n_pairs", sum(self.counts))

    @classmethod
    def from_pairs(cls, ds: MultiTaskDataset, pairs) -> "Subset":
        """Group ``pairs`` by task (ascending), keeping pair order within a task."""
        return cls._from_blocks(ds, cls._blocks(ds, pairs))

    @classmethod
    def stacked(cls, ds: MultiTaskDataset, pair_arrays) -> list["Subset"]:
        """A :meth:`from_pairs` subset per pair array, each a view of one root stack."""
        groups = [cls._blocks(ds, pairs) for pairs in pair_arrays]
        return cls._from_blocks(ds, [b for g in groups for b in g])._split(map(len, groups))

    @staticmethod
    def _blocks(ds: MultiTaskDataset, pairs) -> list[tuple[int, int, np.ndarray]]:
        """``(task, pair count, cell_factor)`` per task of ``pairs``, ascending."""
        arr = np.asarray(pairs)
        if arr.shape == (0,):
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DimensionError(f"subset pairs must have shape (n, 2), got {arr.shape}")
        # Checked because a cast to intp would silently truncate floats and bools.
        if arr.size and arr.dtype.kind not in "iu":
            raise DimensionError(f"subset pairs must be integer ids, got dtype {arr.dtype}")
        arr = arr.astype(np.intp, copy=False)
        inst, task = arr[:, 0], arr[:, 1]
        # Checked here because a negative id would silently index from the end.
        if np.any((inst < 0) | (inst >= ds.n_instances)):
            raise DimensionError("subset instance id out of range")
        if np.any((task < 0) | (task >= ds.n_tasks)):
            raise DimensionError("subset task id out of range")
        tasks, counts = np.unique(task, return_counts=True)
        return [
            (t, n, *cell_factors(ds, inst[task == t], [t]))
            for t, n in zip(tasks.tolist(), counts.tolist())
        ]

    @classmethod
    def _from_blocks(cls, ds: MultiTaskDataset, blocks) -> "Subset":
        """The root stack whose block i is ``blocks[i] = (task, pair count, R)``,
        with R an R factor of the block's rows ``[X, Y_task]`` (see :func:`cell_factors`)."""
        d = ds.inputs.shape[1]
        rz = np.zeros((len(blocks), d, d + max(ds.task_dims)))  # [r, z] per block
        rho = np.zeros(len(blocks))
        for i, (_, _, f) in enumerate(blocks):
            rz[i, : min(f.shape[0], d), : f.shape[1]] = f[:d]
            rho[i] = np.vdot(f[d:, d:], f[d:, d:])
        tasks = np.array([t for t, _, _ in blocks], dtype=np.intp)
        return cls(ds, tasks, tuple(n for _, n, _ in blocks), rz[..., :d], rz[..., d:], rho)

    def _split(self, sizes) -> list["Subset"]:
        """Views of consecutive runs of ``sizes`` blocks of this root stack."""
        views, start = [], 0
        for size in sizes:
            views.append(self._view(start, start + size))
            start += size
        return views

    def _view(self, start: int, stop: int) -> "Subset":
        """Blocks ``start:stop`` of this root stack, as a view."""
        b, arrays = slice(start, stop), (self.tasks, self.counts, self.r, self.z, self.rho)
        return Subset(self.dataset, *(x[b] for x in arrays), self, start)

    def __len__(self) -> int:
        return self._n_pairs

    def by_task(self) -> list["Subset"]:
        """One single-block view of the root stack per block."""
        root = self.root or self  # a root with no pairs has no blocks to view
        return [root._view(i, i + 1) for i in range(self.start, self.start + self.tasks.size)]


LOSS_SUBSETS = ("forget", "retain_inst", "retain_task", "retain_clean")


def partition_subsets(ds: MultiTaskDataset, part: PartitionSpec) -> dict[str, Subset]:
    """The subsets a run reads off ``part`` on ``ds``, by name: ``all_pairs``
    (Original's training set), ``retain`` (Retrain's) and the ``LOSS_SUBSETS``,
    the last four as views of one root stack (see :meth:`Subset.stacked`).

    Each is a union of the 2K cells {forgotten, retained instances} x {task t},
    and each cell's rows are factored once (:func:`cell_factors`). A loss-subset
    block is one cell, with the bits of :meth:`Subset.from_pairs`. A block that
    spans both instance groups is the R factor of its two cells' stacked R
    factors (TSQR), at a cost that does not grow with N.

    Built on first use and memoized on ``part``, whose arrays are read-only;
    a call with another dataset object builds them again, on that dataset.
    """
    subsets = part._memo.get("subsets")
    if subsets is not None and subsets["all_pairs"].dataset is ds:
        return dict(subsets)
    groups = (part.forget_instances, part.retain_instances)
    if sum(g.size for g in groups) != ds.n_instances or (
        len(part.forget_tasks) + len(part.retain_tasks) != ds.n_tasks
    ):
        raise DimensionError("partition does not cover the dataset's instances and tasks")
    tasks = range(ds.n_tasks)
    cells = {
        (g, t): (idx.size, factor)
        for g, idx in enumerate(groups)
        if idx.size
        for t, factor in zip(tasks, cell_factors(ds, idx, tasks))
    }

    def block(t: int, group_ids) -> list[tuple]:
        """Task t's block over the cells of ``group_ids`` (0 forgotten, 1
        retained), as a list of none or one."""
        parts = [cells[g, t] for g in group_ids if (g, t) in cells]
        if len(parts) == 2:
            merged = np.linalg.qr(np.vstack([f for _, f in parts]), mode="r")
            parts = [(parts[0][0] + parts[1][0], merged)]
        return [(t, *p) for p in parts]

    forgotten, retained, both = (0,), (1,), (0, 1)
    layout = {
        "forget": [(t, forgotten) for t in part.forget_tasks],
        "retain_inst": [(t, retained) for t in part.forget_tasks],
        "retain_task": [(t, forgotten) for t in part.retain_tasks],
        "retain_clean": [(t, retained) for t in part.retain_tasks],
        "all_pairs": [(t, both) for t in tasks],
        "retain": [(t, retained if t in part.forget_tasks else both) for t in tasks],
    }
    blocks = {name: [b for t, gs in spec for b in block(t, gs)] for name, spec in layout.items()}
    loss = [blocks[name] for name in LOSS_SUBSETS]
    root = Subset._from_blocks(ds, [b for bs in loss for b in bs])
    subsets = dict(zip(LOSS_SUBSETS, root._split(map(len, loss))))
    for name in ("all_pairs", "retain"):
        subsets[name] = Subset._from_blocks(ds, blocks[name])
    part._memo["subsets"] = subsets
    return dict(subsets)


def _as_subset(ds: MultiTaskDataset, pairs, op: str) -> Subset:
    subset = pairs if isinstance(pairs, Subset) else Subset.from_pairs(ds, pairs)
    if subset.dataset is not ds:
        raise ConfigError(f"{op}: subset was built on a different dataset")
    if not subset:
        raise EmptySubsetError(f"{op} over empty subset")
    return subset


def _residual_stack(model: MultiTaskModel, stack: Subset, heads: np.ndarray) -> np.ndarray:
    """Every block's ``E_t = R_t W M_t^T - Z_t``, (n_b, d, m_max), in one batched product."""
    w_m = np.matmul(model.edit.effective_weight, heads.transpose(0, 2, 1))  # W M_t^T
    return np.matmul(stack.r, w_m) - stack.z


def _w_gradient_stack(stack: Subset, heads: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Every block's ``X_t^T (X_t W M_t^T - Y_t) M_t = R_t^T E_t M_t``, (n_b, d, k)."""
    # R^T as a view: gemm then takes its transposed path, as for r.T.
    return np.matmul(stack.r.transpose(0, 2, 1), np.matmul(e, heads))


def _statistics(model: MultiTaskModel, subset: Subset, gradients: bool):
    """The subset's slices of its root stack's residuals and, if ``gradients``,
    W-gradients (else None). The model memoizes each once per root stack, which
    holds only because an edit is never modified in place."""
    stack = subset.root or subset  # a nonempty view has a nonempty root
    memo = model._memo.get(stack)
    if memo is None:
        # ndarray.take gathers the blocks' heads about 3x faster than heads[tasks].
        heads = model.stacked_heads.take(stack.tasks, axis=0)
        memo = model._memo[stack] = [heads, _residual_stack(model, stack, heads), None]
    if gradients and memo[2] is None:
        memo[2] = _w_gradient_stack(stack, *memo[:2])
    b = slice(subset.start, subset.start + subset.tasks.size)
    return memo[1][b], memo[2][b] if gradients else None


def subset_loss(model: MultiTaskModel, ds: MultiTaskDataset, pairs):
    """Mean per-pair loss over ``pairs``.

    ``pairs`` is a :class:`Subset` of ``ds`` or a sequence of (instance,
    task) pairs. Per task, |X_t W M_t^T - Y_t|^2 = |E_t|^2 + rho_t, a sum
    of squares that cannot cancel below zero the way the expanded Gram
    quadratic does near zero loss; a call costs O(K d^2 m).
    """
    subset = _as_subset(ds, pairs, "subset_loss")
    e = _statistics(model, subset, False)[0].reshape(subset.tasks.size, -1)
    total = 0.0
    for sq, rho in zip(np.vecdot(e, e).tolist(), subset.rho.tolist()):
        total += 0.5 * (sq + rho)
    return total / len(subset)


def subset_gradient(model: MultiTaskModel, ds: MultiTaskDataset, pairs):
    """Analytic gradients of the subset-mean loss w.r.t. (a, b), w_star frozen.

    Per task, X_t^T (X_t W M_t^T - Y_t) M_t = R_t^T E_t M_t, so a call
    costs O(K d^2 (k + m)) and reads the same residual as the loss.
    """
    subset = _as_subset(ds, pairs, "subset_gradient")
    grad_w = np.add.reduce(_statistics(model, subset, True)[1], axis=0)
    grad_w /= len(subset)
    return grad_w.T @ model.edit.b, grad_w @ model.edit.a


def flattened_hessian(model: MultiTaskModel, ds: MultiTaskDataset, pairs) -> np.ndarray:
    """Exact Hessian of the subset-mean loss w.r.t. flattened (a, b).

    Parameters are ordered a.ravel() then b.ravel() (row-major). Built from
    each block's G_t = R_t^T R_t and residual E_t, so it does not grow
    with N. Guarded to r*(k+d) <= 400 parameters.
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
    # Per block (leading axis n), each term below is summed over the blocks.
    m = model.stacked_heads.take(subset.tasks, axis=0)  # m_t x k
    rt = subset.r.transpose(0, 2, 1)
    gram = np.matmul(rt, subset.r)  # X^T X
    ma = np.matmul(m, edit.a)  # m_t x r
    mtm = np.matmul(m.transpose(0, 2, 1), m)
    s = np.matmul(edit.b.T, gram)  # r x d (index j, l): U^T X with U = X b
    # a-a block: kron over (row index of a) x (column index of a)
    aa = np.einsum("nik,njl->ijkl", mtm, np.matmul(s, edit.b)).reshape(p_a, p_a)
    # b-b block
    bb = np.einsum("nik,njl->ijkl", gram, np.matmul(ma.transpose(0, 2, 1), ma)).reshape(p_b, p_b)
    # a-b block, Gauss-Newton part: C[i,p] * sum_n u_j x_l
    c = np.matmul(mtm, edit.a)  # k x r (index i, p)
    ab = np.einsum("nip,njl->nijlp", c, s)
    # a-b block, residual curvature part: delta_{jp} * (X^T E M)[l, i],
    # with X^T E M = R^T E_t M (index l, i) for residuals E = X W M^T - Y
    ab += np.einsum("nli,jp->nijlp", _statistics(model, subset, True)[1], np.eye(r))
    ab = np.add.reduce(ab, axis=0).reshape(p_a, p_b)
    h = np.block([[aa, ab], [ab.T, bb]]) / len(subset)
    return 0.5 * (h + h.T)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    step_size: float
    seed: int
    rank: int | None = None  # None: see rank_for

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.epochs > MAX_EPOCHS:
            raise ConfigError(f"epochs must be <= {MAX_EPOCHS}, got {reprlib.repr(self.epochs)}")
        if not 0 < self.step_size < math.inf:
            raise ConfigError(f"step_size must be finite and > 0, got {self.step_size!r}")
        if self.rank is not None and self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")

    def rank_for(self, problem_config: GenConfig) -> int:
        """The edit's rank: ``rank``, or the generator's teacher rank if None."""
        return self.rank if self.rank is not None else problem_config.teacher_rank


def train_reference(
    problem: SyntheticProblem, pairs, config: TrainConfig
) -> MultiTaskModel:
    """Full-batch gradient descent on the mean loss over ``pairs``.

    Trains (a, b) from a small seeded init over a zero base weight; stops at
    the epoch budget or when the gradient norm drops below ``GRAD_TOL``.
    A non-finite gradient norm, or a loss that is non-finite or above 1e12,
    raises StepSizeError naming the epoch.
    """
    ds = problem.dataset
    subset = _as_subset(ds, pairs, "train_reference")
    d, k = problem.config.input_dim, problem.shared_dim
    edit = balanced_init_edit(np.zeros((d, k)), config.rank_for(problem.config), config.seed)
    model = MultiTaskModel(edit=edit, heads=tuple(problem.heads))
    # Overflow is caught by the checks below, which name the epoch; one
    # context for the loop, since entering one costs about 1 µs.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            ga, gb = subset_gradient(model, ds, subset)
            gnorm = math.sqrt(
                np.add.reduce(ga * ga, axis=None) + np.add.reduce(gb * gb, axis=None)
            )
            if not math.isfinite(gnorm):
                raise StepSizeError(f"train_reference epoch {epoch}: gradient norm {gnorm!r}")
            if gnorm < GRAD_TOL:
                break
            edit = LowRankEdit(
                w_star=edit.w_star,
                a=edit.a - config.step_size * ga,
                b=edit.b - config.step_size * gb,
            )
            model = model.with_edit(edit)
            loss = subset_loss(model, ds, subset)
            if not np.isfinite(loss) or loss > 1e12:
                raise StepSizeError(f"train_reference epoch {epoch}: loss={float(loss)!r}")
    # A fresh memo: the model outlives training, the only reader of this one.
    return model.with_edit(edit)
