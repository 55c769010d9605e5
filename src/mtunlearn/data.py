"""Synthetic multi-task datasets and the four-way forget/retain partition.

A dataset is a complete supervision grid: every instance carries a target
for every task. Subsets of the grid are lists of (instance, task) pairs;
``model.Subset`` groups them by task for gradient and loss evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

DATASET_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SupervisionTriple:
    instance_id: int
    task_id: int
    target: np.ndarray


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
    n_val: int = 0
    task_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n_instances < 2 or self.n_tasks < 2 or self.input_dim < 2:
            raise ConfigError("need n_instances >= 2, n_tasks >= 2, input_dim >= 2")
        if len(self.task_dims) != self.n_tasks:
            raise ConfigError("task_dims length must equal n_tasks")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if not 1 <= self.teacher_rank <= min(self.input_dim, self.shared_dim):
            raise ConfigError("teacher_rank must be in [1, min(input_dim, shared_dim)]")
        if self.task_weights is not None and (
            len(self.task_weights) != self.n_tasks
            or any(w <= 0 for w in self.task_weights)
        ):
            raise ConfigError("task_weights must be n_tasks positive numbers")


@dataclass
class MultiTaskDataset:
    """Complete (instance x task) supervision grid.

    targets[t] holds the per-instance target rows for task t.
    """

    inputs: np.ndarray
    targets: list[np.ndarray]
    task_weights: np.ndarray

    @property
    def n_instances(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_tasks(self) -> int:
        return len(self.targets)

    @property
    def task_dims(self) -> tuple[int, ...]:
        return tuple(y.shape[1] for y in self.targets)

    def triples(self) -> list[SupervisionTriple]:
        return [
            SupervisionTriple(i, t, self.targets[t][i])
            for i in range(self.n_instances)
            for t in range(self.n_tasks)
        ]

    def all_pairs(self) -> list[tuple[int, int]]:
        return [
            (i, t) for i in range(self.n_instances) for t in range(self.n_tasks)
        ]

    def validate(self):
        if self.inputs.ndim != 2:
            raise DimensionError("inputs must be 2-D")
        for t, y in enumerate(self.targets):
            if y.shape[0] != self.n_instances:
                raise DimensionError(f"task {t} targets rows != n_instances")
        if len(self.task_weights) != self.n_tasks:
            raise DimensionError("task_weights length != n_tasks")
        if np.any(np.asarray(self.task_weights) <= 0):
            raise ConfigError("task weights must be positive")


@dataclass(frozen=True)
class PartitionSpec:
    """Four-way split induced by forgotten instances and forgotten tasks.

    forget:       forgotten instances x forgotten tasks
    retain_task:  forgotten instances x retained tasks
    retain_inst:  retained instances  x forgotten tasks
    retain_clean: retained instances  x retained tasks
    """

    forget_instances: frozenset[int]
    forget_tasks: frozenset[int]
    forget: tuple[tuple[int, int], ...]
    retain_task: tuple[tuple[int, int], ...]
    retain_inst: tuple[tuple[int, int], ...]
    retain_clean: tuple[tuple[int, int], ...]

    @property
    def retain(self) -> tuple[tuple[int, int], ...]:
        return self.retain_task + self.retain_inst + self.retain_clean


@dataclass
class SyntheticProblem:
    """Dataset plus the fixed task heads and hidden teacher that produced it."""

    dataset: MultiTaskDataset
    val_dataset: MultiTaskDataset | None
    heads: list[np.ndarray]
    teacher: np.ndarray
    config: GenConfig

    @property
    def shared_dim(self) -> int:
        return self.teacher.shape[1]


def generate_synthetic(config: GenConfig) -> SyntheticProblem:
    """Draw a dataset from a shared low-rank teacher with per-task heads.

    Inputs are standard normal; targets are the teacher's predictions plus
    independent Gaussian noise. Deterministic in the seed.
    """
    rng = np.random.default_rng(config.seed)
    d, k = config.input_dim, config.shared_dim
    left = rng.standard_normal((d, config.teacher_rank))
    right = rng.standard_normal((config.teacher_rank, k))
    teacher = left @ right / np.sqrt(config.teacher_rank * d)
    heads = [
        rng.standard_normal((m, k)) / np.sqrt(k) for m in config.task_dims
    ]
    weights = np.asarray(
        config.task_weights
        if config.task_weights is not None
        else [1.0] * config.n_tasks
    )

    def draw(n: int) -> MultiTaskDataset:
        x = rng.standard_normal((n, d))
        shared = x @ teacher
        targets = [
            shared @ h.T + config.noise_std * rng.standard_normal((n, h.shape[0]))
            for h in heads
        ]
        ds = MultiTaskDataset(inputs=x, targets=targets, task_weights=weights)
        ds.validate()
        return ds

    train = draw(config.n_instances)
    val = draw(config.n_val) if config.n_val > 0 else None
    return SyntheticProblem(
        dataset=train, val_dataset=val, heads=heads, teacher=teacher, config=config
    )


def partition(
    ds: MultiTaskDataset,
    forget_instances,
    forget_tasks,
) -> PartitionSpec:
    """Assign every (instance, task) pair to exactly one of the four subsets."""
    xf = frozenset(int(i) for i in forget_instances)
    tf = frozenset(int(t) for t in forget_tasks)
    if any(i < 0 or i >= ds.n_instances for i in xf):
        raise DimensionError("forget instance out of range")
    if any(t < 0 or t >= ds.n_tasks for t in tf):
        raise DimensionError("forget task out of range")
    buckets = {"f": [], "task": [], "inst": [], "clean": []}
    for i in range(ds.n_instances):
        for t in range(ds.n_tasks):
            if i in xf:
                buckets["f" if t in tf else "task"].append((i, t))
            else:
                buckets["inst" if t in tf else "clean"].append((i, t))
    return PartitionSpec(
        forget_instances=xf,
        forget_tasks=tf,
        forget=tuple(buckets["f"]),
        retain_task=tuple(buckets["task"]),
        retain_inst=tuple(buckets["inst"]),
        retain_clean=tuple(buckets["clean"]),
    )


def default_forget_split(
    ds: MultiTaskDataset, fraction: float, forget_tasks, seed: int
) -> PartitionSpec:
    """Partition with a seeded random draw of ``fraction`` of the instances."""
    if not 0 < fraction < 1:
        raise ConfigError("forget fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    n_forget = max(1, int(round(fraction * ds.n_instances)))
    chosen = rng.choice(ds.n_instances, size=n_forget, replace=False)
    return partition(ds, chosen.tolist(), forget_tasks)


def _array_to_lists(a: np.ndarray):
    return a.tolist()


def problem_to_json(problem: SyntheticProblem) -> str:
    """Serialize the problem (dataset, heads, teacher, config) as versioned JSON."""
    cfg = problem.config
    doc = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "config": {
            "n_instances": cfg.n_instances,
            "input_dim": cfg.input_dim,
            "n_tasks": cfg.n_tasks,
            "task_dims": list(cfg.task_dims),
            "shared_dim": cfg.shared_dim,
            "teacher_rank": cfg.teacher_rank,
            "noise_std": cfg.noise_std,
            "seed": cfg.seed,
            "n_val": cfg.n_val,
            "task_weights": list(cfg.task_weights) if cfg.task_weights else None,
        },
        "inputs": _array_to_lists(problem.dataset.inputs),
        "targets": [_array_to_lists(y) for y in problem.dataset.targets],
        "task_weights": _array_to_lists(problem.dataset.task_weights),
        "heads": [_array_to_lists(h) for h in problem.heads],
        "teacher": _array_to_lists(problem.teacher),
        "val_inputs": (
            _array_to_lists(problem.val_dataset.inputs)
            if problem.val_dataset is not None
            else None
        ),
        "val_targets": (
            [_array_to_lists(y) for y in problem.val_dataset.targets]
            if problem.val_dataset is not None
            else None
        ),
    }
    return json.dumps(doc, sort_keys=True)


def problem_from_json(text: str) -> SyntheticProblem:
    doc = json.loads(text)
    if doc.get("schema_version") != DATASET_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported dataset schema_version {doc.get('schema_version')!r}"
        )
    c = doc["config"]
    cfg = GenConfig(
        n_instances=c["n_instances"],
        input_dim=c["input_dim"],
        n_tasks=c["n_tasks"],
        task_dims=tuple(c["task_dims"]),
        shared_dim=c["shared_dim"],
        teacher_rank=c["teacher_rank"],
        noise_std=c["noise_std"],
        seed=c["seed"],
        n_val=c.get("n_val", 0),
        task_weights=tuple(c["task_weights"]) if c.get("task_weights") else None,
    )
    weights = np.asarray(doc["task_weights"], dtype=float)
    train = MultiTaskDataset(
        inputs=np.asarray(doc["inputs"], dtype=float),
        targets=[np.asarray(y, dtype=float) for y in doc["targets"]],
        task_weights=weights,
    )
    train.validate()
    val = None
    if doc.get("val_inputs") is not None:
        val = MultiTaskDataset(
            inputs=np.asarray(doc["val_inputs"], dtype=float),
            targets=[np.asarray(y, dtype=float) for y in doc["val_targets"]],
            task_weights=weights,
        )
        val.validate()
    return SyntheticProblem(
        dataset=train,
        val_dataset=val,
        heads=[np.asarray(h, dtype=float) for h in doc["heads"]],
        teacher=np.asarray(doc["teacher"], dtype=float),
        config=cfg,
    )
