"""Unlearning loop: projected, retain-orthogonalized ascent on a fresh edit.

The original model's merged weight becomes the frozen base; a fresh
low-rank edit is optimized for up to ``max_epochs`` full-batch epochs.
Each epoch builds per-source gradients (forget / clean / inst / task),
projects them into task subspaces, sequentially orthogonalizes the forget
direction, and applies retain descent plus forget ascent. The returned
model is the epoch whose membership-inference AUC lands closest to the
retrained reference's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import PartitionSpec, SyntheticProblem
from .errors import ConfigError, EmptySubsetError, StepSizeError
from .evaluation import mia_auc, per_instance_losses
from .model import (
    MultiTaskModel,
    Subset,
    subset_gradient,
    subset_loss,
    zero_init_edit,
)
from .subspace import TaskSubspace, regularize_step
from .surgery import (
    GradientBundle,
    GradientPair,
    apply_update,
    project_pair,
    sequential_orthogonalize,
)

STRATEGIES = (
    "ours",
    "neggrad_plus",
    "wo_projection",
    "wo_task",
    "wo_inst",
    "wo_clean",
)

# Ablation names follow the constraint they remove, so "wo_task" drops the
# same-task retention signal (retained instances on forgotten tasks) and
# "wo_inst" drops the same-instance cross-task signal (forgotten instances
# on retained tasks).
_ABLATION_SKIP = {
    "wo_task": ("inst",),
    "wo_inst": ("task",),
    "wo_clean": ("clean",),
}


@dataclass(frozen=True)
class UnlearnConfig:
    setting: str  # "full" or "partial"
    eta1: float = 1.0
    eta2: float = 0.1
    eps: float = 1e-8
    max_epochs: int = 20
    reg_weight: float = 1.0
    reg_step_size: float = 1e-3
    strategy: str = "ours"
    anchor_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if self.setting not in ("full", "partial"):
            raise ConfigError(f"unknown setting {self.setting!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        for name in ("eta1", "eta2", "eps", "reg_weight", "reg_step_size"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
        if not 0 < self.anchor_fraction <= 1:
            raise ConfigError("anchor_fraction must be in (0, 1]")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")


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

    def record_for(self, epoch: int) -> EpochRecord:
        return self.records[epoch]


def _source_gradient(model, ds, task_subsets, subspaces, project) -> GradientPair | None:
    """Sum of per-task (optionally projected) subset-mean gradients."""
    total = None
    for subset in task_subsets:
        ga, gb = subset_gradient(model, ds, subset)
        pair = GradientPair(ga, gb)
        if project:
            pair = project_pair(pair, subspaces[subset.blocks[0].task])
        total = pair if total is None else total + pair
    return total


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


def _forget_task_auc(model, ds, part, val_ds) -> float:
    """Mean unlearn-vs-val membership AUC over the forgotten tasks."""
    aucs = [
        mia_auc(
            per_instance_losses(model, ds, t, part.forget_instances),
            per_instance_losses(model, val_ds, t),
        )
        for t in part.forget_tasks
    ]
    return float(np.mean(aucs))


def _loss_or_none(model, ds, subset):
    return subset_loss(model, ds, subset) if subset else None


def run_unlearning(
    original: MultiTaskModel,
    problem: SyntheticProblem,
    part: PartitionSpec,
    subspaces: list[TaskSubspace],
    cfg: UnlearnConfig,
    retrain_ref: MultiTaskModel,
) -> tuple[MultiTaskModel, UnlearnTrace]:
    """Run the unlearning loop and return the early-stopped merged-edit model."""
    ds, val = problem.dataset, problem.val_dataset
    if val is None:
        raise ConfigError("a validation dataset is required for early stopping")
    if not part.forget.size:
        raise EmptySubsetError("forget set is empty")
    full = len(part.forget_tasks) == ds.n_tasks
    if cfg.setting == "full" and not full:
        raise ConfigError("setting=full requires all tasks forgotten")
    if cfg.setting == "partial" and full:
        raise ConfigError("setting=partial requires a proper task subset")

    rank = subspaces[0].rank
    edit = zero_init_edit(original.edit.effective_weight(), rank, cfg.seed)
    model = MultiTaskModel(edit=edit, heads=original.heads)

    # Anchor subsample of the clean retain pairs, fixed for the whole run.
    clean = anchor = part.retain_clean
    if len(clean):
        n_anchor = max(1, int(round(cfg.anchor_fraction * len(clean))))
        chosen = np.random.default_rng(cfg.seed).choice(len(clean), size=n_anchor, replace=False)
        anchor = clean[np.sort(chosen)]

    # Every subset is grouped by task once per run: the loss subsets, and
    # the per-task gradient sources (the anchor stands in for clean).
    losses = {
        name: Subset.from_pairs(ds, getattr(part, name))
        for name in ("forget", "retain_clean", "retain_inst", "retain_task")
    }
    sources = {
        "forget": losses["forget"].by_task(),
        "clean": Subset.from_pairs(ds, anchor).by_task(),
        "inst": losses["retain_inst"].by_task(),
        "task": losses["retain_task"].by_task(),
    }

    # Weight each source by its share of the retain pairs so the descent
    # direction tracks the gradient of the overall retain-mean loss; the
    # anchor stands in for the whole clean subset.
    counts = {"clean": len(clean), "inst": len(part.retain_inst), "task": len(part.retain_task)}
    project = cfg.strategy not in ("neggrad_plus", "wo_projection")
    skip = _ABLATION_SKIP.get(cfg.strategy, ())

    trace = UnlearnTrace(
        reference_auc=_forget_task_auc(retrain_ref, ds, part, val)
    )

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
                mia_auc=_forget_task_auc(model, ds, part, val),
            )
        )

    record(0)
    snapshots = [edit]
    current_subspaces = list(subspaces)
    for epoch in range(1, cfg.max_epochs + 1):
        bundle = GradientBundle(
            **{
                name: _source_gradient(model, ds, subsets, current_subspaces, project)
                for name, subsets in sources.items()
            }
        )
        _check_forget_gradient(bundle.forget, epoch)
        if cfg.strategy == "neggrad_plus":
            forget_dir = bundle.forget
        else:
            forget_dir = sequential_orthogonalize(bundle, cfg.eps, skip_sources=skip)
        total_retain = sum(c for name, c in counts.items() if bundle.source(name))
        descent = None
        for name, count in counts.items():
            g = bundle.source(name)
            if g is None:
                continue
            weighted = GradientPair(g.a * (count / total_retain), g.b * (count / total_retain))
            descent = weighted if descent is None else descent + weighted
        edit = apply_update(edit, descent, forget_dir, cfg.eta1, cfg.eta2)
        model = model.with_edit(edit)
        if cfg.strategy != "neggrad_plus":
            current_subspaces = regularize_step(
                current_subspaces, cfg.reg_weight, cfg.reg_step_size
            )
        record(epoch)
        snapshots.append(edit)

    post = [abs(r.mia_auc - trace.reference_auc) for r in trace.records[1:]]
    trace.selected_epoch = 1 + int(np.argmin(post))
    return model.with_edit(snapshots[trace.selected_epoch]), trace
