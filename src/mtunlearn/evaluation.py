"""Split-wise metrics, loss-based membership inference, and the impact score.

Utility on each (task, split) cell is exp(-mean squared loss), a value in
(0, 1] so relative deviations are always well defined. Membership
inference is the rank statistic of negative losses. The impact score
averages, over tasks, the summed relative deviations of the four cells
from setting-dependent reference models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import MultiTaskDataset, PartitionSpec
from .errors import ConfigError, DimensionError, EmptySubsetError, NonFiniteError
from .model import MultiTaskModel

SPLITS = ("ret", "unl", "val")
METRIC_NAME = "exp_neg_loss"
# The metric column each CSV cell must carry.
CELL_METRICS = {**dict.fromkeys(SPLITS, METRIC_NAME), "mia": "auc", "mia_retain": "auc"}


def per_instance_losses(
    model: MultiTaskModel, ds: MultiTaskDataset, task: int, instances=None
) -> np.ndarray:
    """Per-instance squared losses for one task."""
    x = ds.inputs if instances is None else ds.inputs[instances]
    y = ds.targets[task] if instances is None else ds.targets[task][instances]
    return head_losses(x @ model.edit.effective_weight(), model.heads[task], y)


def head_losses(features: np.ndarray, head: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row squared losses ``0.5 |features head^T - targets|^2``.

    ``features`` is ``X W_eff``, so several tasks' heads can share one
    product; this is the order ``MultiTaskModel.predict`` multiplies in.
    """
    e = features @ head.T - targets
    return 0.5 * np.add.reduce(e * e, axis=1)


def _finite_losses(losses, name: str) -> np.ndarray:
    """The losses as a float array, rejecting an empty or non-finite one.

    As in ``linalg.as_matrix``, one sum tests finiteness and the entrywise
    test runs only when the sum is not finite.
    """
    arr = np.asarray(losses, dtype=float)
    if arr.size == 0:
        raise EmptySubsetError("mia_auc needs nonempty member and nonmember lists")
    if not math.isfinite(np.add.reduce(arr, axis=None)) and not np.isfinite(arr).all():
        raise NonFiniteError(f"mia_auc: {name} contains a NaN or infinite loss")
    return arr


def mia_auc(member_losses, nonmember_losses) -> float:
    """ROC AUC of the negative-loss membership score (members positive).

    Equals the Mann-Whitney statistic with ties counted as one half. The
    counts come from a sort of the nonmembers and a binary search per
    member: O((n + m) log m) time and linear memory.
    """
    members = _finite_losses(member_losses, "member_losses")
    nonmembers = np.sort(_finite_losses(nonmember_losses, "nonmember_losses"))
    # score = -loss, so a member "wins" against every larger nonmember loss;
    # the counts are summed over members as exact integers.
    pairs = members.size * nonmembers.size
    n_upto = int(nonmembers.searchsorted(members, side="right").sum())
    n_below = int(nonmembers.searchsorted(members, side="left").sum())
    wins, ties = pairs - n_upto, n_upto - n_below
    return float((wins + 0.5 * ties) / pairs)


@dataclass
class EvalReport:
    """Per-task, per-split utility cells plus membership AUCs."""

    n_tasks: int
    metrics: dict = field(default_factory=dict)  # (task, split) -> value
    mia_unl: dict = field(default_factory=dict)  # task -> unlearn-vs-val AUC
    mia_ret: dict = field(default_factory=dict)  # task -> retain-vs-val AUC

    def cell(self, task: int, name: str) -> float:
        if name == "mia":
            return self.mia_unl[task]
        return self.metrics[(task, name)]

    def validate(self):
        for t in range(self.n_tasks):
            for s in SPLITS:
                if (t, s) not in self.metrics:
                    raise ConfigError(f"missing metric cell ({t}, {s})")
            for name, auc_map in (("mia", self.mia_unl), ("mia_retain", self.mia_ret)):
                if t not in auc_map:
                    raise ConfigError(f"missing {name!r} AUC cell for task {t}")
                if not 0.0 <= auc_map[t] <= 1.0:
                    raise ConfigError(
                        f"AUC {auc_map[t]!r} for task {t} cell {name!r} is outside [0, 1]"
                    )

    def to_csv(self) -> str:
        """Flat table, one row per cell: task,cell,metric,value."""
        lines = ["task,cell,metric,value"]
        for t in range(self.n_tasks):
            for s in SPLITS:
                lines.append(f"{t},{s},{METRIC_NAME},{self.metrics[(t, s)]!r}")
            lines.append(f"{t},mia,auc,{self.mia_unl[t]!r}")
            lines.append(f"{t},mia_retain,auc,{self.mia_ret[t]!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "EvalReport":
        rows = []
        for line in text.strip().splitlines()[1:]:
            if not line.strip():
                continue
            try:
                task_s, cell, metric, value = line.split(",")
                rows.append((int(task_s), cell, metric, float(value)))
            except ValueError as exc:
                raise ConfigError(f"malformed CSV row {line!r}") from exc
        if not rows:
            raise ConfigError("report CSV has no rows")
        tasks = sorted({r[0] for r in rows})
        if tasks != list(range(len(tasks))):
            raise ConfigError("tasks in CSV must be contiguous from 0")
        rep = cls(n_tasks=len(tasks))
        for t, cell, metric, v in rows:
            if cell not in CELL_METRICS:
                raise ConfigError(f"unknown cell name {cell!r}")
            if metric != CELL_METRICS[cell]:
                raise ConfigError(
                    f"metric {metric!r} for task {t} cell {cell!r} is not {CELL_METRICS[cell]!r}"
                )
            if not np.isfinite(v):
                raise ConfigError(f"non-finite value {v!r} for task {t} cell {cell!r}")
            if cell in SPLITS:
                if not 0 < v <= 1:
                    raise ConfigError(f"utility {v!r} for task {t} cell {cell!r} is outside (0, 1]")
                rep.metrics[(t, cell)] = v
            elif cell == "mia":
                rep.mia_unl[t] = v
            else:
                rep.mia_ret[t] = v
        rep.validate()
        return rep


def evaluate(
    model: MultiTaskModel,
    ds: MultiTaskDataset,
    part: PartitionSpec,
    val_ds: MultiTaskDataset,
) -> EvalReport:
    """Fill every (task, split) cell and both per-task membership AUCs.

    Splits are by instance: retained instances, forgotten instances, and
    the held-out validation set.
    """
    if ds.n_tasks != val_ds.n_tasks:
        raise DimensionError("train and validation task sets differ")
    unl_idx, ret_idx = part.forget_instances, part.retain_instances
    if not unl_idx.size or not ret_idx.size:
        raise EmptySubsetError("both retained and forgotten instances are required")
    rep = EvalReport(n_tasks=ds.n_tasks)
    for t in range(ds.n_tasks):
        ret_losses = per_instance_losses(model, ds, t, ret_idx)
        unl_losses = per_instance_losses(model, ds, t, unl_idx)
        val_losses = per_instance_losses(model, val_ds, t)
        rep.metrics[(t, "ret")] = float(np.exp(-np.mean(ret_losses)))
        rep.metrics[(t, "unl")] = float(np.exp(-np.mean(unl_losses)))
        rep.metrics[(t, "val")] = float(np.exp(-np.mean(val_losses)))
        rep.mia_unl[t] = mia_auc(unl_losses, val_losses)
        rep.mia_ret[t] = mia_auc(ret_losses, val_losses)
    rep.validate()
    return rep


@dataclass(frozen=True)
class UISInput:
    evaluated: EvalReport
    original_ref: EvalReport
    retrain_ref: EvalReport
    setting: str  # "full" or "partial"
    forget_tasks: frozenset[int] = frozenset()


CELLS = ("ret", "unl", "val", "mia")


def _reference_cell(inp: UISInput, task: int, cell: str) -> float:
    if inp.setting == "full":
        # retention and generalization against the original model,
        # forgetting and membership against the retrained one
        ref = inp.retrain_ref if cell in ("unl", "mia") else inp.original_ref
    elif inp.setting == "partial":
        ref = inp.retrain_ref if task in inp.forget_tasks else inp.original_ref
    else:
        raise ConfigError(f"unknown setting {inp.setting!r}")
    return ref.cell(task, cell)


def uis(inp: UISInput) -> float:
    """Mean over tasks of the summed relative cell deviations (a fraction)."""
    reports = (inp.evaluated, inp.original_ref, inp.retrain_ref)
    n_tasks = reports[0].n_tasks
    if any(r.n_tasks != n_tasks for r in reports):
        raise DimensionError("reports cover different task sets")
    if inp.setting == "partial" and not inp.forget_tasks:
        raise ConfigError("partial setting requires forget_tasks")
    total = 0.0
    for t in range(n_tasks):
        for cell in CELLS:
            ref = _reference_cell(inp, t, cell)
            if ref == 0.0:
                raise ConfigError(f"zero reference for task {t} cell {cell!r}")
            total += abs(inp.evaluated.cell(t, cell) - ref) / ref
    return total / n_tasks
