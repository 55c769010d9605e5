"""Unlearning loop: projected, retain-orthogonalized ascent on a fresh edit.

The original model's merged weight becomes the frozen base; a fresh
low-rank edit is optimized for up to ``max_epochs`` full-batch epochs.
Each epoch builds per-source gradients (forget / clean / inst / task),
projects them into task subspaces, sequentially orthogonalizes the forget
direction against the retain sources, and applies retain descent plus
forget ascent; a strategy (see ``STRATEGIES``) switches projection off or
drops retain sources. The returned model is the epoch whose
membership-inference AUC lands closest to the retrained reference's.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .data import PartitionSpec, SyntheticProblem
from .errors import ConfigError, DimensionError, EmptySubsetError, StepSizeError
from .evaluation import forget_task_auc
from .model import (
    MAX_EPOCHS,
    MultiTaskModel,
    Subset,
    partition_subsets,
    subset_gradient,
    subset_loss,
    zero_init_edit,
)
from .subspace import regularize_step
from .surgery import GradientPair, apply_update, sequential_orthogonalize

# Every strategy is the same epoch with parts switched off: whether gradients
# are projected into the task subspaces (and the subspaces regularized), and
# the ordered retain sources the forget gradient is orthogonalized against.
# Ablation names follow the constraint they remove, so "wo_task" drops the
# same-task retention signal (retained instances on forgotten tasks, the
# "inst" source) and "wo_inst" drops the same-instance cross-task signal
# (forgotten instances on retained tasks, the "task" source).
STRATEGIES = {
    "ours": (True, ("clean", "inst", "task")),
    "neggrad_plus": (False, ()),
    "wo_projection": (False, ("clean", "inst", "task")),
    "wo_task": (True, ("clean", "task")),
    "wo_inst": (True, ("clean", "inst")),
    "wo_clean": (True, ("inst", "task")),
}

REG_STEP_SIZE = 1e-3  # the subspace regularization step of a projecting epoch


@dataclass(frozen=True)
class UnlearnConfig:
    setting: str  # "full" or "partial"
    eta1: float = 1.0
    eta2: float = 0.1
    max_epochs: int = 20
    strategy: str = "ours"
    anchor_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if self.setting not in ("full", "partial"):
            raise ConfigError(f"unknown setting {self.setting!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}, expected one of "
                + ", ".join(map(repr, STRATEGIES))
            )
        for name in ("eta1", "eta2"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
        if not 0 < self.anchor_fraction <= 1:
            raise ConfigError("anchor_fraction must be in (0, 1]")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.max_epochs > MAX_EPOCHS:
            raise ConfigError(
                f"max_epochs must be <= {MAX_EPOCHS}, got {reprlib.repr(self.max_epochs)}"
            )


@dataclass
class EpochRecord:
    epoch: int
    forget_loss: float
    clean_loss: float | None
    inst_loss: float | None
    task_loss: float | None
    mia_auc: float


@dataclass
class UnlearnTrace:
    records: list[EpochRecord] = field(default_factory=list)
    reference_auc: float = 0.5
    selected_epoch: int = 0


def _source_gradient(model, ds, task_subsets, projectors) -> GradientPair:
    """Sum of per-task subset-mean gradients, each projected into its task's
    subspace (right-multiplied by its projector) unless ``projectors`` is None."""
    total_a = total_b = None
    for subset in task_subsets:
        ga, gb = subset_gradient(model, ds, subset)
        if projectors is not None:
            p = projectors[subset.tasks[0]]
            ga, gb = ga @ p, gb @ p
        if total_a is None:
            total_a, total_b = ga, gb
        else:
            total_a, total_b = total_a + ga, total_b + gb
    return GradientPair(total_a, total_b)


def _check_forget_gradient(g: GradientPair, epoch: int):
    """Name the epoch whose forget gradient overflowed, before surgery squares it.

    Its entries can stay finite while the squared norm that orthogonalization
    divides by does not, so the check is on the squared norm.
    """
    sq_norm = float(np.vdot(g.a, g.a)) + float(np.vdot(g.b, g.b))
    if not math.isfinite(sq_norm):
        entries = np.concatenate([g.a.ravel(), g.b.ravel()])
        finite = np.isfinite(entries)
        largest = float(np.max(np.abs(entries[finite]))) if finite.any() else None
        raise StepSizeError(
            f"run_unlearning epoch {epoch}: forget gradient non-finite "
            f"(squared norm {sq_norm!r}; {entries.size - int(finite.sum())} of "
            f"{entries.size} entries non-finite; largest finite |entry| {largest!r})"
        )


def _check_retain_gradients(grads: dict, descent: GradientPair, epoch: int):
    """Name the epoch and the source of a non-finite retain gradient entry.

    ``descent`` is a positive-weighted sum of every retain source, so the sum
    of its entries is non-finite whenever a source's entry is (or when
    finite entries overflow); the entrywise test runs only in that case,
    as in ``linalg.as_matrix``.
    """
    total = float(np.add.reduce(descent.a, axis=None)) + float(np.add.reduce(descent.b, axis=None))
    if math.isfinite(total):
        return
    for name, g in grads.items():
        bad = np.count_nonzero(~np.isfinite(g.a)) + np.count_nonzero(~np.isfinite(g.b))
        if bad:
            raise StepSizeError(
                f"run_unlearning epoch {epoch}: {name} gradient non-finite "
                f"({bad} of {g.a.size + g.b.size} entries)"
            )


def _loss_or_none(model, ds, subset):
    return subset_loss(model, ds, subset) if subset else None


def run_unlearning(
    original: MultiTaskModel,
    problem: SyntheticProblem,
    part: PartitionSpec,
    bases: np.ndarray,
    cfg: UnlearnConfig,
    retrain_ref: MultiTaskModel,
) -> tuple[MultiTaskModel, UnlearnTrace]:
    """Run the unlearning loop and return the early-stopped merged-edit model.

    ``bases`` holds one r×s task-subspace basis per task, shape (K, r, s).
    """
    ds, val = problem.dataset, problem.val_dataset
    full = len(part.forget_tasks) == ds.n_tasks
    if cfg.setting == "full" and not full:
        raise ConfigError("setting=full requires all tasks forgotten")
    if cfg.setting == "partial" and full:
        raise ConfigError("setting=partial requires a proper task subset")
    bases = np.asarray(bases, dtype=float)
    if bases.ndim != 3 or len(bases) != ds.n_tasks:
        raise DimensionError(
            f"need one (rank, dim) subspace basis per task: {ds.n_tasks} tasks, "
            f"bases of shape {bases.shape}"
        )

    # The loss subsets are views of one block stack, so an epoch's loss and
    # gradient calls share one residual; the partition builds them once for
    # every run over it.
    losses = partition_subsets(ds, part)
    counts = {name: len(losses[f"retain_{name}"]) for name in ("clean", "inst", "task")}
    if not losses["forget"]:
        raise EmptySubsetError("forget set is empty")
    if not any(counts.values()):
        raise EmptySubsetError("retain set is empty")

    rank = bases.shape[1]
    edit = zero_init_edit(original.edit.effective_weight, rank, cfg.seed)
    model = original.with_edit(edit)

    # The anchor subsamples the clean pairs once, as a stack of its own;
    # keeping all, it is the clean subset.
    anchor = losses["retain_clean"]
    n_anchor = max(1, int(round(cfg.anchor_fraction * len(anchor))))
    if n_anchor < len(anchor):
        chosen = np.random.default_rng(cfg.seed).choice(len(anchor), size=n_anchor, replace=False)
        anchor = Subset.from_pairs(ds, part.retain_clean[np.sort(chosen)])
    sources = {
        "forget": losses["forget"].by_task(),
        "clean": anchor.by_task(),
        "inst": losses["retain_inst"].by_task(),
        "task": losses["retain_task"].by_task(),
    }

    # Weight each source by its share of the retain pairs, the anchor standing
    # in for the whole clean subset. A source sums its per-task subset means,
    # so the descent is not the retain-mean gradient. A source has a gradient
    # exactly when it has pairs, so the weights are fixed for the run.
    total = sum(counts.values())
    weights = {name: count / total for name, count in counts.items() if count}
    project, stages = STRATEGIES[cfg.strategy]

    forget_auc = forget_task_auc(ds, part, val)
    trace = UnlearnTrace(reference_auc=forget_auc(retrain_ref))

    def record(epoch):
        # Checked before the membership AUC, which rejects non-finite losses
        # without naming the epoch.
        forget_loss = subset_loss(model, ds, losses["forget"])
        if not np.isfinite(forget_loss):
            raise StepSizeError(
                f"run_unlearning epoch {epoch}: forget_loss={forget_loss!r}"
            )
        trace.records.append(
            EpochRecord(
                epoch=epoch,
                forget_loss=forget_loss,
                clean_loss=_loss_or_none(model, ds, losses["retain_clean"]),
                inst_loss=_loss_or_none(model, ds, losses["retain_inst"]),
                task_loss=_loss_or_none(model, ds, losses["retain_task"]),
                mia_auc=forget_auc(model),
            )
        )

    # Overflow is caught by the checks in the loop and in ``record``, which
    # name the epoch, so numpy need not warn of it too.
    with np.errstate(over="ignore", invalid="ignore"):
        record(0)
        snapshots = [edit]
        for epoch in range(1, cfg.max_epochs + 1):
            projectors = bases @ bases.transpose(0, 2, 1) if project else None
            grads = {
                name: _source_gradient(model, ds, subsets, projectors)
                for name, subsets in sources.items()
                if subsets
            }
            _check_forget_gradient(grads["forget"], epoch)
            # The retain set is nonempty, so at least one source is weighted.
            weighted = [
                GradientPair(grads[name].a * weight, grads[name].b * weight)
                for name, weight in weights.items()
            ]
            descent = sum(weighted[1:], weighted[0])
            _check_retain_gradients(grads, descent, epoch)
            forget_dir = sequential_orthogonalize(
                grads["forget"], [grads[name] for name in stages if name in weights]
            )
            edit = apply_update(edit, descent, forget_dir, cfg.eta1, cfg.eta2)
            model = model.with_edit(edit)
            if project:
                bases = regularize_step(bases, REG_STEP_SIZE)
            record(epoch)
            snapshots.append(edit)

    post = [abs(r.mia_auc - trace.reference_auc) for r in trace.records[1:]]
    trace.selected_epoch = 1 + int(np.argmin(post))
    return model.with_edit(snapshots[trace.selected_epoch]), trace
