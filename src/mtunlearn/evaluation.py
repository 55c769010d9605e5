"""Split-wise metrics, loss-based membership inference, and the impact score.

This module alone turns a model and a split's rows into per-instance
squared losses, with one ``X W_eff`` product per split. Utility on each
(task, split) cell is exp(-mean squared loss), a value in (0, 1] so
relative deviations are always well defined. Membership inference is the
rank statistic of negative losses. The impact score averages, over tasks,
the summed relative deviations of the four cells from setting-dependent
reference models.
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
CSV_HEADER = "task,cell,metric,value"


def per_instance_losses(model: MultiTaskModel, inputs: np.ndarray, targets: dict) -> dict:
    """Per-instance squared losses ``0.5 |x W_eff M_t^T - y|^2`` of each task.

    ``targets`` maps a task to the targets of the rows ``inputs``. One
    ``inputs @ W_eff`` product is shared by every task's head.
    """
    features = inputs @ model.edit.effective_weight
    losses = {}
    for t, y in targets.items():
        e = features @ model.heads[t].T - y
        losses[t] = 0.5 * np.add.reduce(e * e, axis=1)
    return losses


def _rows(ds: MultiTaskDataset, tasks, instances=None):
    """The inputs and the ``tasks``' targets of ``instances`` (every row if None)."""
    if instances is None:
        return ds.inputs, {t: ds.targets[t] for t in tasks}
    return ds.inputs[instances], {t: ds.targets[t][instances] for t in tasks}


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
    counts come from a sort of both lists and a binary search per member:
    O((n + m) log(n + m)) time and linear memory. Sorting the members makes
    the searches walk the nonmembers in order; the counts are the same
    exact integers either way.
    """
    members = np.sort(_finite_losses(member_losses, "member_losses"))
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
        lines = [CSV_HEADER]
        for t in range(self.n_tasks):
            for s in SPLITS:
                lines.append(f"{t},{s},{METRIC_NAME},{self.metrics[(t, s)]!r}")
            lines.append(f"{t},mia,auc,{self.mia_unl[t]!r}")
            lines.append(f"{t},mia_retain,auc,{self.mia_ret[t]!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "EvalReport":
        header, *lines = text.strip().splitlines() or [""]
        if header != CSV_HEADER:
            raise ConfigError(f"report CSV header {header!r} is not {CSV_HEADER!r}")
        rows = []
        for line in lines:
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
        seen = set()
        for t, cell, metric, v in rows:
            if cell not in CELL_METRICS:
                raise ConfigError(f"unknown cell name {cell!r}")
            if (t, cell) in seen:
                raise ConfigError(f"repeated row for task {t} cell {cell!r}")
            seen.add((t, cell))
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
    tasks = range(ds.n_tasks)
    ret = per_instance_losses(model, *_rows(ds, tasks, ret_idx))
    unl = per_instance_losses(model, *_rows(ds, tasks, unl_idx))
    val = per_instance_losses(model, *_rows(val_ds, tasks))
    rep = EvalReport(n_tasks=ds.n_tasks)
    for t in tasks:
        rep.metrics[(t, "ret")] = float(np.exp(-np.mean(ret[t])))
        rep.metrics[(t, "unl")] = float(np.exp(-np.mean(unl[t])))
        rep.metrics[(t, "val")] = float(np.exp(-np.mean(val[t])))
        rep.mia_unl[t] = mia_auc(unl[t], val[t])
        rep.mia_ret[t] = mia_auc(ret[t], val[t])
    rep.validate()
    return rep


def forget_task_auc(ds: MultiTaskDataset, part: PartitionSpec, val_ds: MultiTaskDataset):
    """The mean unlearn-vs-val membership AUC over the forgotten tasks, as a
    function of the model; the rows are gathered once, here."""
    forget = _rows(ds, part.forget_tasks, part.forget_instances)
    val = _rows(val_ds, part.forget_tasks)

    def auc(model: MultiTaskModel) -> float:
        unl, val_losses = per_instance_losses(model, *forget), per_instance_losses(model, *val)
        aucs = [mia_auc(unl[t], val_losses[t]) for t in part.forget_tasks]
        return sum(aucs) / len(aucs)

    return auc


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
    tasks, every = frozenset(inp.forget_tasks), frozenset(range(n_tasks))
    if inp.setting == "partial" and not (tasks and tasks < every):
        raise ConfigError(
            f"forget_tasks: the partial setting needs a nonempty proper subset of "
            f"[0, {n_tasks}), got {sorted(tasks)}"
        )
    if inp.setting == "full" and tasks not in (frozenset(), every):
        raise ConfigError(f"forget_tasks: the full setting takes none or all, got {sorted(tasks)}")
    total = 0.0
    for t in range(n_tasks):
        for cell in CELLS:
            ref = _reference_cell(inp, t, cell)
            if ref == 0.0:
                raise ConfigError(f"zero reference for task {t} cell {cell!r}")
            total += abs(inp.evaluated.cell(t, cell) - ref) / ref
    return total / n_tasks
