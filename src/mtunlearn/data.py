"""Synthetic multi-task datasets and the four-way forget/retain partition.

A dataset is a complete supervision grid: every instance carries a target
for every task. Subsets of the grid are (n, 2) arrays of (instance, task)
pairs, each partition block the :func:`grid` of an instance and a task set;
``model.Subset`` groups them by task for gradient and loss evaluation.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

DATASET_SCHEMA_VERSION = 2


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
        if any(m < 1 for m in self.task_dims):
            raise ConfigError(f"task_dims must all be >= 1, got {list(self.task_dims)}")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        if not 1 <= self.teacher_rank <= min(self.input_dim, self.shared_dim):
            raise ConfigError("teacher_rank must be in [1, min(input_dim, shared_dim)]")
        for name in ("seed", "n_val"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.task_weights is not None and (
            len(self.task_weights) != self.n_tasks
            or any(not 0 < w < math.inf for w in self.task_weights)
        ):
            raise ConfigError("task_weights must be n_tasks finite positive numbers")


def _typed(value, tp, where: str):
    """``value`` checked against the annotation ``tp``; ints become floats."""
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _typed(value, args[0], where)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...], read from a JSON list
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_typed(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if tp is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    if not isinstance(value, tp) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected {tp.__name__}, got {value!r}")
    return value


def config_from_doc(cls, node, path: str, **fixed):
    """Build the config dataclass ``cls`` from the JSON object ``node``; errors name ``path``.

    Each key is a field not in ``fixed`` (set by the caller) with a value of its annotated
    type: an int is stored as a float, a list as a tuple, and a bool is not a number.
    """
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {node!r}")
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

    def all_pairs(self) -> np.ndarray:
        return grid(np.arange(self.n_instances), range(self.n_tasks))

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


def grid(instances, tasks) -> np.ndarray:
    """Every pair of ``instances`` x ``tasks`` as an (n, 2) array, instance-major."""
    inst, task = np.asarray(instances, dtype=np.intp), np.asarray(tasks, dtype=np.intp)
    return np.column_stack([np.repeat(inst, task.size), np.tile(task, inst.size)])


@dataclass(frozen=True, eq=False)
class PartitionSpec:
    """Four-way split induced by forgotten instances and forgotten tasks.

    Instance arrays and task tuples are sorted complements; each block is a
    :func:`grid`:

    forget:       forgotten instances x forgotten tasks
    retain_task:  forgotten instances x retained tasks
    retain_inst:  retained instances  x forgotten tasks
    retain_clean: retained instances  x retained tasks
    """

    forget_instances: np.ndarray
    retain_instances: np.ndarray
    forget_tasks: tuple[int, ...]
    retain_tasks: tuple[int, ...]
    forget: np.ndarray
    retain_task: np.ndarray
    retain_inst: np.ndarray
    retain_clean: np.ndarray

    @property
    def retain(self) -> np.ndarray:
        return np.concatenate([self.retain_task, self.retain_inst, self.retain_clean])


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


def partition(ds: MultiTaskDataset, forget_instances, forget_tasks) -> PartitionSpec:
    """Assign every (instance, task) pair to exactly one of the four subsets."""
    xf = np.unique(np.asarray(forget_instances, dtype=np.intp))
    tf = tuple(sorted({int(t) for t in forget_tasks}))
    if xf.size and (xf[0] < 0 or xf[-1] >= ds.n_instances):
        raise DimensionError("forget instance out of range")
    if tf and (tf[0] < 0 or tf[-1] >= ds.n_tasks):
        raise DimensionError("forget task out of range")
    xr = np.setdiff1d(np.arange(ds.n_instances, dtype=np.intp), xf, assume_unique=True)
    tr = tuple(t for t in range(ds.n_tasks) if t not in tf)
    return PartitionSpec(xf, xr, tf, tr, grid(xf, tf), grid(xf, tr), grid(xr, tf), grid(xr, tr))


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


def decode_array(node, where: str, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`encode_array`, checked against ``shape``; errors start with ``where``."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an encoded array object")
    if node.get("dtype") != "<f8":
        raise ConfigError(f"{where}: dtype {node.get('dtype')!r} is not '<f8'")
    if node.get("shape") != list(shape):
        raise ConfigError(f"{where}: shape {node.get('shape')!r} != {list(shape)}")
    try:
        raw = base64.b64decode(node.get("data"), validate=True)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: data is not valid base64 ({exc})") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ConfigError(f"{where}: {len(raw)} bytes, expected {8 * math.prod(shape)}")
    # astype copies into a writable array of the native float64 byte order.
    a = np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)
    if not np.all(np.isfinite(a)):
        raise ConfigError(f"{where}: {int(np.sum(~np.isfinite(a)))} non-finite entries")
    return a


def decode_list(nodes, where: str, shapes) -> list[np.ndarray]:
    """:func:`decode_array` over a list, one array per shape; entries read ``where[i]``."""
    if not isinstance(nodes, list) or len(nodes) != len(shapes):
        raise ConfigError(f"{where}: expected a list of {len(shapes)} arrays")
    return [
        decode_array(node, f"{where}[{i}]", shape)
        for i, (node, shape) in enumerate(zip(nodes, shapes))
    ]


def load_document(text: str, what: str, version: int) -> dict:
    """The JSON object ``text``, checked to have ``schema_version`` ``version``."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    found = doc.get("schema_version") if isinstance(doc, dict) else None
    if found != version:
        raise ConfigError(f"unsupported {what} schema_version {found!r}")
    return doc


def problem_to_json(problem: SyntheticProblem) -> str:
    """Serialize the problem as versioned JSON, each array as base64 float64."""
    val = problem.val_dataset
    doc = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "config": config_to_doc(problem.config),
        "inputs": encode_array(problem.dataset.inputs),
        "targets": [encode_array(y) for y in problem.dataset.targets],
        "task_weights": encode_array(problem.dataset.task_weights),
        "heads": [encode_array(h) for h in problem.heads],
        "teacher": encode_array(problem.teacher),
        "val_inputs": encode_array(val.inputs) if val is not None else None,
        "val_targets": [encode_array(y) for y in val.targets] if val is not None else None,
    }
    return json.dumps(doc, sort_keys=True)


def problem_from_json(text: str) -> SyntheticProblem:
    """Parse :func:`problem_to_json` output; a malformed field raises ConfigError."""
    doc = load_document(text, "dataset", DATASET_SCHEMA_VERSION)
    cfg = config_from_doc(GenConfig, doc.get("config"), "config")
    n, d, k, dims = cfg.n_instances, cfg.input_dim, cfg.shared_dim, cfg.task_dims

    def read(key, shape):
        """``doc[key]`` decoded: one array for a shape tuple, a list of them for a list."""
        decode = decode_list if isinstance(shape, list) else decode_array
        return decode(doc.get(key), f"dataset field {key}", shape)

    weights = read("task_weights", (cfg.n_tasks,))
    train = MultiTaskDataset(
        inputs=read("inputs", (n, d)),
        targets=read("targets", [(n, m) for m in dims]),
        task_weights=weights,
    )
    train.validate()
    val = None
    if cfg.n_val > 0:
        val = MultiTaskDataset(
            inputs=read("val_inputs", (cfg.n_val, d)),
            targets=read("val_targets", [(cfg.n_val, m) for m in dims]),
            task_weights=weights,
        )
        val.validate()
    return SyntheticProblem(
        dataset=train,
        val_dataset=val,
        heads=read("heads", [(m, k) for m in dims]),
        teacher=read("teacher", (d, k)),
        config=cfg,
    )
