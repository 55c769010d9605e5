"""Synthetic multi-task datasets and the four-way forget/retain partition.

A dataset is a complete supervision grid: every instance carries a target
for every task. A partition stores only its instance and task split; each of
its four blocks is the :func:`grid` of an instance and a task set, and
``model.partition_subsets`` factors them per (instance group, task) cell.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import reprlib
import sys
import typing
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NonFiniteError

DATASET_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class GenConfig:
    """Parameters of the synthetic multi-task generator."""

    n_instances: int
    input_dim: int
    n_tasks: int
    task_dims: tuple[int, ...]
    shared_dim: int
    teacher_rank: int
    noise_std: float
    seed: int
    n_val: int | None = None  # None: max(50, n_instances // 2)

    def __post_init__(self):
        if self.n_instances < 2 or self.n_tasks < 2 or self.input_dim < 2:
            raise ConfigError("need n_instances >= 2, n_tasks >= 2, input_dim >= 2")
        if self.n_val is None:
            object.__setattr__(self, "n_val", max(50, self.n_instances // 2))
        if self.n_val < 1:
            raise ConfigError(f"n_val must be >= 1 (early stopping reads it), got {self.n_val}")
        if len(self.task_dims) != self.n_tasks:
            raise ConfigError("task_dims length must equal n_tasks")
        if any(m < 1 for m in self.task_dims):
            raise ConfigError(f"task_dims must all be >= 1, got {list(self.task_dims)}")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        if not 1 <= self.teacher_rank <= min(self.input_dim, self.shared_dim):
            raise ConfigError("teacher_rank must be in [1, min(input_dim, shared_dim)]")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _brief(value) -> str:
    """``value``'s repr, long containers and strings cut short, and its type."""
    return f"{reprlib.repr(value)} ({type(value).__name__})"


def _typed(value, tp, where: str):
    """``value`` checked against the annotation ``tp``; ints become floats."""
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _typed(value, args[0], where)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...], read from a JSON list
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {_brief(value)}")
        return tuple(_typed(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if tp is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    if not isinstance(value, tp) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected {tp.__name__}, got {_brief(value)}")
    return value


def config_from_doc(cls, node, path: str, **fixed):
    """Build the config dataclass ``cls`` from the JSON object ``node``; errors name ``path``.

    Each key is a field not in ``fixed`` (set by the caller) with a value of its annotated
    type: an int is stored as a float, a list as a tuple, and a bool is not a number.
    """
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {_brief(node)}")
    hints = typing.get_type_hints(cls)
    settable = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    unknown = sorted(node.keys() - {f.name for f in settable})
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown field")
    values = dict(fixed)
    for f in settable:
        if f.name in node:
            values[f.name] = _typed(node[f.name], hints[f.name], f"{path}.{f.name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{path}: missing or invalid {f.name!r}: {path}.{f.name} is required")
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def config_to_doc(config, *omit: str) -> dict:
    """Inverse of :func:`config_from_doc`, leaving out the fields in ``omit``."""
    return {
        f.name: list(v) if isinstance(v := getattr(config, f.name), tuple) else v
        for f in dataclasses.fields(config)
        if f.name not in omit
    }


@dataclass
class MultiTaskDataset:
    """Complete (instance x task) supervision grid.

    targets[t] holds the per-instance target rows for task t.
    """

    inputs: np.ndarray
    targets: list[np.ndarray]

    def __post_init__(self):
        if self.inputs.ndim != 2:
            raise DimensionError(f"inputs must be 2-D, got shape {self.inputs.shape}")
        for t, y in enumerate(self.targets):
            if y.ndim != 2 or y.shape[0] != self.n_instances:
                raise DimensionError(f"task {t} targets {y.shape}, need ({self.n_instances}, m)")

    @property
    def n_instances(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_tasks(self) -> int:
        return len(self.targets)

    @property
    def task_dims(self) -> tuple[int, ...]:
        return tuple(y.shape[1] for y in self.targets)

    def all_pairs(self) -> np.ndarray:
        return grid(np.arange(self.n_instances), range(self.n_tasks))


def grid(instances, tasks) -> np.ndarray:
    """Every pair of ``instances`` x ``tasks`` as an (n, 2) array, instance-major."""
    inst, task = np.asarray(instances, dtype=np.intp), np.asarray(tasks, dtype=np.intp)
    return np.column_stack([np.repeat(inst, task.size), np.tile(task, inst.size)])


@dataclass(frozen=True, eq=False)
class PartitionSpec:
    """Four-way split induced by forgotten instances and forgotten tasks.

    Instance arrays and task tuples are sorted complements, and each block
    is their :func:`grid`, built on demand and stored nowhere:

    forget:       forgotten instances x forgotten tasks
    retain_task:  forgotten instances x retained tasks
    retain_inst:  retained instances  x forgotten tasks
    retain_clean: retained instances  x retained tasks
    """

    forget_instances: np.ndarray
    retain_instances: np.ndarray
    forget_tasks: tuple[int, ...]
    retain_tasks: tuple[int, ...]
    # Grouped from the split on first use: see model.partition_subsets.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def retain_clean(self) -> np.ndarray:
        return grid(self.retain_instances, self.retain_tasks)

    @property
    def retain(self) -> np.ndarray:
        xf, xr = self.forget_instances, self.retain_instances
        blocks = (grid(xf, self.retain_tasks), grid(xr, self.forget_tasks), self.retain_clean)
        return np.concatenate(blocks)


@dataclass(frozen=True)
class PartitionConfig:
    """Which instances and tasks a run forgets: see :func:`default_forget_split`."""

    forget_fraction: float
    forget_tasks: tuple[int, ...]

    def __post_init__(self):
        if not 0 < self.forget_fraction < 1:
            raise ConfigError(f"forget_fraction must be in (0, 1), got {self.forget_fraction!r}")
        if not self.forget_tasks:
            raise ConfigError("forget_tasks must be nonempty")


@dataclass
class SyntheticProblem:
    """Dataset plus the fixed task heads and hidden teacher that produced it."""

    dataset: MultiTaskDataset
    val_dataset: MultiTaskDataset
    heads: list[np.ndarray]
    teacher: np.ndarray
    config: GenConfig

    def __post_init__(self):
        if self.val_dataset is None:
            raise ConfigError("val_dataset is required: early stopping reads it")

    @property
    def shared_dim(self) -> int:
        return self.teacher.shape[1]


def generate_synthetic(config: GenConfig) -> SyntheticProblem:
    """Draw a dataset from a shared low-rank teacher with per-task heads.

    Inputs are standard normal; targets are the teacher's predictions plus
    independent Gaussian noise. Deterministic in the seed. Targets that
    overflow (a huge ``noise_std``) raise NonFiniteError naming the field.
    """
    rng = np.random.default_rng(config.seed)
    d, k = config.input_dim, config.shared_dim
    left = rng.standard_normal((d, config.teacher_rank))
    right = rng.standard_normal((config.teacher_rank, k))
    teacher = left @ right / np.sqrt(config.teacher_rank * d)
    heads = [
        rng.standard_normal((m, k)) / np.sqrt(k) for m in config.task_dims
    ]

    def draw(n: int) -> MultiTaskDataset:
        x = rng.standard_normal((n, d))
        shared = x @ teacher
        targets = [
            shared @ h.T + config.noise_std * rng.standard_normal((n, h.shape[0]))
            for h in heads
        ]
        return MultiTaskDataset(inputs=x, targets=targets)

    with np.errstate(over="ignore", invalid="ignore"):
        train, val = draw(config.n_instances), draw(config.n_val)
        targets = [*train.targets, *val.targets]
        # One sum tests them all; the entrywise test runs only if it is not finite.
        total = sum(np.add.reduce(y, axis=None) for y in targets)
    if not math.isfinite(total) and not all(np.isfinite(y).all() for y in targets):
        raise NonFiniteError(
            f"generate_synthetic: data.noise_std={config.noise_std!r} overflows the targets"
        )
    return SyntheticProblem(
        dataset=train, val_dataset=val, heads=heads, teacher=teacher, config=config
    )


def partition(ds: MultiTaskDataset, forget_instances, forget_tasks) -> PartitionSpec:
    """Assign every (instance, task) pair to exactly one of the four blocks.

    The spec's instance arrays are read-only, so the subsets that
    ``model.partition_subsets`` memoizes on the spec cannot go stale.
    """
    xf = np.unique(np.asarray(forget_instances, dtype=np.intp))
    tf = tuple(sorted({int(t) for t in forget_tasks}))
    if xf.size and (xf[0] < 0 or xf[-1] >= ds.n_instances):
        raise DimensionError("forget instance out of range")
    if tf and (tf[0] < 0 or tf[-1] >= ds.n_tasks):
        raise DimensionError("forget task out of range")
    xr = np.setdiff1d(np.arange(ds.n_instances, dtype=np.intp), xf, assume_unique=True)
    tr = tuple(t for t in range(ds.n_tasks) if t not in tf)
    xf.flags.writeable = xr.flags.writeable = False
    return PartitionSpec(xf, xr, tf, tr)


def forget_count(n: int, fraction: float) -> int:
    """How many of ``n`` instances a ``fraction`` forgets; at least one stays retained."""
    if not 0 < fraction < 1:
        raise ConfigError("forget fraction must be in (0, 1)")
    n_forget = max(1, int(round(fraction * n)))
    if n_forget >= n:
        raise ConfigError(f"partition.forget_fraction: {fraction!r} forgets all {n} instances")
    return n_forget


def default_forget_split(
    ds: MultiTaskDataset, fraction: float, forget_tasks, seed: int
) -> PartitionSpec:
    """Partition with a seeded random draw of ``fraction`` of the instances."""
    n_forget = forget_count(ds.n_instances, fraction)
    chosen = np.random.default_rng(seed).choice(ds.n_instances, size=n_forget, replace=False)
    return partition(ds, chosen, forget_tasks)


def encode_array(a: np.ndarray) -> dict:
    """A float array as little-endian float64 bytes in C order, base64-encoded."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {
        "dtype": "<f8",
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def problem_to_json(problem: SyntheticProblem) -> str:
    """Serialize the problem as versioned JSON, each array as base64 float64."""
    doc = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "config": config_to_doc(problem.config),
        "inputs": encode_array(problem.dataset.inputs),
        "targets": [encode_array(y) for y in problem.dataset.targets],
        "heads": [encode_array(h) for h in problem.heads],
        "teacher": encode_array(problem.teacher),
        "val_inputs": encode_array(problem.val_dataset.inputs),
        "val_targets": [encode_array(y) for y in problem.val_dataset.targets],
    }
    return json.dumps(doc, sort_keys=True)

