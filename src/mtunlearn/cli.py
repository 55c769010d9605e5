"""Command-line pipeline: generate, run, verify, uis, sweep.

Every command materializes its full configuration, writes versioned JSON
or CSV artifacts, and records a manifest with the digest of each file it
wrote, so reruns can be checked for byte-identical numeric output. Exit
codes: 0 success, 2 configuration or schema error, 3 numeric or
verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import reprlib
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import theory
from .data import (
    GenConfig,
    PartitionConfig,
    config_from_doc,
    config_to_doc,
    default_forget_split,
    encode_array,
    forget_count,
    generate_synthetic,
    problem_to_json,
)
from .errors import CapacityError, ConfigError, DimensionError, MtUnlearnError
from .evaluation import EvalReport, UISInput, evaluate, uis
from .model import (
    MultiTaskModel,
    TrainConfig,
    partition_subsets,
    subset_loss,
    train_reference,
)
from .subspace import (
    SubspaceConfig,
    check_layout,
    default_subspace_dim,
    init_subspaces,
)
from .unlearn import UnlearnConfig, UnlearnTrace, run_unlearning

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CONFIG_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1
CHECKPOINT_SCHEMA_VERSION = 4
TRACE_SCHEMA_VERSION = 1


def _write(path: Path, text: str, outputs: dict):
    """Write ``text`` to ``path`` as UTF-8, making its directory; record the sha256 of
    its bytes in ``outputs``. A write that fails is a config error naming ``path``."""
    data = text.encode()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    outputs[path] = hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class _NonFinite:
    """What :func:`load_config` reads for NaN and Infinity; no field accepts it."""

    literal: str


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; :func:`load_config` rejects a key given twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"key {key!r} is given twice")
        doc[key] = value
    return doc


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_NonFinite, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # also a too long integer or too deep nesting
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def gen_config_from_doc(doc: dict, seed: int) -> GenConfig:
    """The generator config of ``doc["data"]``."""
    return config_from_doc(GenConfig, doc.get("data"), "data", seed=seed)


# The most seeds one config may run, so that every run ends.
MAX_SEEDS = 1000


@dataclass(frozen=True)
class _ConfigFile:
    """The top level of a config file; :meth:`RunConfig.from_doc` reads each section."""

    schema_version: int
    seed: int
    data: dict
    partition: dict
    train: dict
    subspace: dict = field(default_factory=dict)
    unlearn: dict = field(default_factory=dict)
    n_seeds: int = 1

    def __post_init__(self):
        if self.schema_version != CONFIG_SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version}")
        if self.n_seeds < 1:
            raise ConfigError(f"n_seeds must be >= 1, got {self.n_seeds}")
        if self.n_seeds > MAX_SEEDS:
            raise ConfigError(f"n_seeds must be <= {MAX_SEEDS}, got {reprlib.repr(self.n_seeds)}")


# The most bytes a config's float64 arrays may take, checked before any is
# allocated; see _check_array_budget. A run holds a few times this at its peak.
MAX_ARRAY_BYTES = 2**30


def _check_array_budget(data: GenConfig, rank: int):
    """Raise a ConfigError naming the largest size field if the arrays that ``data``
    and ``rank`` imply pass ``MAX_ARRAY_BYTES``: the train and validation inputs
    and targets, (N + n_val)(d + Σm); the teacher, base weight and heads, k (d + Σm);
    the (a, b) edit, r (d + k); and a subset's per-task R factors, K d (d + max m)."""
    n, d, k, m = data.n_instances + data.n_val, data.input_dim, data.shared_dim, data.task_dims
    n_bytes = 8 * ((n + k) * (d + sum(m)) + rank * (d + k) + len(m) * d * (d + max(m)))
    if n_bytes > MAX_ARRAY_BYTES:
        sizes = {
            "data.n_instances": data.n_instances,
            "data.n_val": data.n_val,
            "data.input_dim": d,
            "data.shared_dim": k,
            "data.task_dims": max(m),
            "train.rank": rank,
        }
        name = max(sizes, key=sizes.get)
        raise ConfigError(
            f"{name}: {reprlib.repr(sizes[name])} is too large: the arrays would pass the "
            f"budget of {MAX_ARRAY_BYTES} bytes (cli.MAX_ARRAY_BYTES)"
        )


@dataclass(frozen=True)
class RunConfig:
    """A config file with every default filled in; ``from_doc(to_doc())`` gives it back.

    Each section holds the base seed; run ``i`` of ``n_seeds`` uses ``seed + i``.
    """

    data: GenConfig
    partition: PartitionConfig
    train: TrainConfig
    subspace: SubspaceConfig
    unlearn: UnlearnConfig
    n_seeds: int = 1

    @property
    def seed(self) -> int:
        return self.data.seed

    @classmethod
    def from_doc(cls, doc, seed: int | None = None, strategy: str | None = None) -> "RunConfig":
        """Check a config document and fill in every default; errors name the field.

        ``seed`` and ``strategy`` override the document's; the setting (full
        or partial) follows from ``partition.forget_tasks``.
        """
        top = config_from_doc(_ConfigFile, doc, "config")
        seed = top.seed if seed is None else seed
        data = gen_config_from_doc(doc, seed)
        partition = config_from_doc(PartitionConfig, top.partition, "partition")
        tasks = tuple(sorted(set(partition.forget_tasks)))
        if not 0 <= tasks[0] <= tasks[-1] < data.n_tasks:
            raise ConfigError(f"partition.forget_tasks: {list(tasks)} not in [0, {data.n_tasks})")
        train = config_from_doc(TrainConfig, top.train, "train", seed=seed)
        train = replace(train, rank=train.rank_for(data))
        _check_array_budget(data, train.rank)
        forget_count(data.n_instances, partition.forget_fraction)
        dim = default_subspace_dim(train.rank, data.n_tasks)
        sub = config_from_doc(SubspaceConfig, {"dim": dim, **top.subspace}, "subspace")
        try:
            check_layout(data.n_tasks, train.rank, sub.dim, sub.mode)
        except ConfigError as exc:  # the mode
            raise ConfigError(f"subspace: {exc}") from None
        except (CapacityError, DimensionError) as exc:  # the widths
            raise ConfigError(
                f"subspace: {exc}: set subspace.dim or train.rank "
                f"(train.rank defaults to data.teacher_rank)"
            ) from None
        setting = "full" if len(tasks) == data.n_tasks else "partial"
        node = dict(top.unlearn)
        if strategy is not None:
            node["strategy"] = strategy
        unlearn = config_from_doc(UnlearnConfig, node, "unlearn", seed=seed, setting=setting)
        return cls(data, replace(partition, forget_tasks=tasks), train, sub, unlearn, top.n_seeds)

    def to_doc(self) -> dict:
        """The config document that :meth:`from_doc` reads back as this config."""
        sections = ("data", "partition", "train", "subspace", "unlearn")
        doc = {name: config_to_doc(getattr(self, name), "seed", "setting") for name in sections}
        return dict(doc, schema_version=CONFIG_SCHEMA_VERSION, seed=self.seed, n_seeds=self.n_seeds)


def checkpoint_to_json(model: MultiTaskModel, config_echo: dict) -> str:
    """A model as versioned JSON; every array is base64 float64."""
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "w_star": encode_array(model.edit.w_star),
        "a": encode_array(model.edit.a),
        "b": encode_array(model.edit.b),
        "heads": [encode_array(h) for h in model.heads],
        "config": config_echo,
    }
    return json.dumps(doc, sort_keys=True)


def trace_to_json(trace: UnlearnTrace) -> str:
    doc = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "reference_auc": trace.reference_auc,
        "selected_epoch": trace.selected_epoch,
        "records": [dataclasses.asdict(r) for r in trace.records],
    }
    return json.dumps(doc, sort_keys=True)


def write_manifest(out_dir: Path, command: str, config: dict, seed, outputs: dict, started):
    """Write ``manifest.json``, which lists ``outputs`` (each written path and its digest)."""
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": command,
        "config": config,
        "seed": seed,
        "outputs": {str(p.relative_to(out_dir)): d for p, d in outputs.items()},
        "elapsed_seconds": time.time() - started,
    }
    _write(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n", {})


def _out_dir(args) -> Path:
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path}: cannot create the output directory: {exc}") from exc
    return path


def cmd_generate(args) -> int:
    started = time.time()
    cfg = RunConfig.from_doc(load_config(args.config), args.seed)
    out = _out_dir(args)
    problem = generate_synthetic(cfg.data)
    ds_path, outputs = out / "dataset.json", {}
    _write(ds_path, problem_to_json(problem), outputs)
    write_manifest(out, "generate", cfg.to_doc(), cfg.seed, outputs, started)
    print(f"wrote {ds_path}")
    return EXIT_OK


def _single_run(cfg: RunConfig, out: Path, outputs: dict) -> dict:
    """Full pipeline for ``cfg``'s one seed; writes artifacts and returns summary row."""
    seed = cfg.seed
    problem = generate_synthetic(cfg.data)
    ds = problem.dataset

    pc = cfg.partition
    part = default_forget_split(ds, pc.forget_fraction, pc.forget_tasks, seed)
    subsets = partition_subsets(ds, part)
    original = train_reference(problem, subsets["all_pairs"], cfg.train)
    retrain = train_reference(problem, subsets["retain"], cfg.train)
    bases = init_subspaces(
        cfg.data.n_tasks, cfg.train.rank, cfg.subspace.dim, cfg.subspace.mode, seed
    )
    unlearned, trace = run_unlearning(original, problem, part, bases, cfg.unlearn, retrain)
    models = {"original": original, "retrain": retrain, "unlearned": unlearned}
    reports = {name: evaluate(m, ds, part, problem.val_dataset) for name, m in models.items()}
    try:
        score = uis(
            UISInput(
                evaluated=reports["unlearned"],
                original_ref=reports["original"],
                retrain_ref=reports["retrain"],
                setting=cfg.unlearn.setting,
                forget_tasks=frozenset(pc.forget_tasks),
            )
        )
    except ConfigError as exc:
        # The config has fixed the setting and its tasks, so a reference cell
        # is zero: an AUC over too few instances, or an underflowed utility.
        raise MtUnlearnError(
            f"seed {seed}: {exc} ({len(part.forget_instances)} forgotten and "
            f"{cfg.data.n_val} validation instances)"
        ) from None

    echo = cfg.to_doc()
    for name, model in models.items():
        _write(out / f"eval_{name}.csv", reports[name].to_csv(), outputs)
        _write(out / f"checkpoint_{name}.json", checkpoint_to_json(model, echo), outputs)
    _write(out / "trace.json", trace_to_json(trace), outputs)
    row = {
        "seed": seed,
        "selected_epoch": trace.selected_epoch,
        "forget_loss_start": trace.records[0].forget_loss,
        "forget_loss": trace.records[trace.selected_epoch].forget_loss,
        # None (JSON null) when every task is forgotten and no clean pair is left.
        "clean_loss": subset_loss(unlearned, ds, subsets["retain_clean"])
        if subsets["retain_clean"]
        else None,
        "mia_auc": trace.records[trace.selected_epoch].mia_auc,
        "reference_auc": trace.reference_auc,
        "uis": score,
    }
    _write(out / "uis.json", json.dumps(row, sort_keys=True), outputs)
    return row


_ROW_FIELDS = (
    "seed",
    "selected_epoch",
    "forget_loss_start",
    "forget_loss",
    "clean_loss",
    "mia_auc",
    "reference_auc",
    "uis",
)


def _csv_field(value) -> str:
    """A CSV field; a missing value (None) is an empty field."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _write_seed_table(out: Path, rows, outputs: dict) -> dict:
    """Write ``seeds.csv`` and ``summary.json``; return the summary.

    A field that some seed lacks (None) has a null mean and stddev.
    """
    lines = [",".join(_ROW_FIELDS)]
    for row in rows:
        lines.append(",".join(_csv_field(row[f]) for f in _ROW_FIELDS))
    _write(out / "seeds.csv", "\n".join(lines) + "\n", outputs)
    summary = {}
    for f in _ROW_FIELDS[1:]:
        vals = [row[f] for row in rows]
        if None in vals:
            summary[f] = {"mean": None, "stddev": None}
        else:
            arr = np.array(vals, dtype=float)
            summary[f] = {"mean": float(arr.mean()), "stddev": float(arr.std(ddof=0))}
    _write(out / "summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n", outputs)
    return summary


def _run_seeds(cfg: RunConfig, out: Path, outputs: dict) -> tuple[list[dict], dict]:
    """Run each seed of ``cfg`` as its own one-seed config; return rows and summary."""
    rows, doc = [], cfg.to_doc()
    for seed in range(cfg.seed, cfg.seed + cfg.n_seeds):
        sub = RunConfig.from_doc(dict(doc, seed=seed, n_seeds=1))
        rows.append(_single_run(sub, out / f"seed_{seed}", outputs))
    return rows, _write_seed_table(out, rows, outputs)


def cmd_run(args) -> int:
    started = time.time()
    cfg = RunConfig.from_doc(load_config(args.config), args.seed, args.strategy)
    out, outputs = _out_dir(args), {}
    rows, _ = _run_seeds(cfg, out, outputs)
    write_manifest(out, "run", cfg.to_doc(), cfg.seed, outputs, started)
    for row in rows:
        print(
            f"seed {row['seed']}: uis {100 * row['uis']:.1f}% "
            f"selected_epoch {row['selected_epoch']}"
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.time()
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    out = _out_dir(args) if args.out else None
    report = theory.run_all_checks(seed=args.seed)
    if out:
        outputs = {}
        _write(out / "verification.json", theory.report_to_json(report), outputs)
        write_manifest(out, "verify", {"seed": args.seed}, args.seed, outputs, started)
    failed = [s for s in report["suites"] if not s["passed"]]
    for suite in report["suites"]:
        print(f"{suite['suite']}: {'pass' if suite['passed'] else 'FAIL'}")
    if failed:
        detail = "; ".join(
            f"{s['suite']} ({ {k: v for k, v in s.items() if k not in ('suite', 'passed', 'doubling_ratios')} })"
            for s in failed
        )
        print(f"verification failed: {detail}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _parse_forget_tasks(text: str, n_tasks: int) -> frozenset[int]:
    try:
        ids = frozenset(int(t) for t in text.split(",")) if text else frozenset()
    except ValueError as exc:
        raise ConfigError(f"--forget-tasks must list integer task ids, got {text!r}") from exc
    outside = sorted(t for t in ids if not 0 <= t < n_tasks)
    if outside:
        raise ConfigError(f"--forget-tasks ids {outside} outside [0, {n_tasks})")
    return ids


def cmd_uis(args) -> int:
    reports = {}
    for name, path in (
        ("evaluated", args.evaluated),
        ("original", args.original),
        ("retrain", args.retrain),
    ):
        try:
            reports[name] = EvalReport.from_csv(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {name} CSV {path}: {exc}") from exc
    forget_tasks = _parse_forget_tasks(args.forget_tasks, reports["evaluated"].n_tasks)
    score = uis(
        UISInput(
            evaluated=reports["evaluated"],
            original_ref=reports["original"],
            retrain_ref=reports["retrain"],
            setting=args.setting,
            forget_tasks=forget_tasks,
        )
    )
    print(f"{100 * score:.1f}%")
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.time()
    cfg = RunConfig.from_doc(load_config(args.config), args.seed, args.strategy)
    try:
        ratios = [float(r) for r in args.ratios.split(",") if r.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid --ratios value: {exc}") from exc
    if not ratios:
        raise ConfigError("--ratios must list at least one value")
    subs = {}  # ratio -> its run config, checked as a config file would be
    doc = cfg.to_doc()
    for r in ratios:
        if r in subs:
            print(f"warning: duplicate ratio {r} ignored", file=sys.stderr)
        else:
            partition = dict(doc["partition"], forget_fraction=r)
            subs[r] = RunConfig.from_doc(dict(doc, partition=partition))

    out, outputs = _out_dir(args), {}
    lines = ["ratio," + ",".join(f"mean_{f}" for f in _ROW_FIELDS[1:])]
    for ratio, sub in subs.items():
        _, summary = _run_seeds(sub, out / f"ratio_{ratio}", outputs)
        lines.append(f"{ratio}," + ",".join(_csv_field(summary[f]["mean"]) for f in _ROW_FIELDS[1:]))
    sweep_path = out / "sweep.csv"
    _write(sweep_path, "\n".join(lines) + "\n", outputs)
    write_manifest(out, "sweep", cfg.to_doc(), cfg.seed, outputs, started)
    print(f"wrote {sweep_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtunlearn",
        description="interference-aware multi-task unlearning pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_command(name, func, help_text):
        """A subcommand that reads a run config file (see RunConfig)."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)
        return p

    config_command("generate", cmd_generate, "write a synthetic dataset")
    p_run = config_command("run", cmd_run, "train references, unlearn, evaluate")
    p_run.add_argument("--strategy", default=None)

    p_ver = sub.add_parser("verify", help="run the theory check suites")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_uis = sub.add_parser("uis", help="impact score from three eval CSVs")
    p_uis.add_argument("--evaluated", required=True)
    p_uis.add_argument("--original", required=True)
    p_uis.add_argument("--retrain", required=True)
    p_uis.add_argument("--setting", required=True, choices=["full", "partial"])
    p_uis.add_argument("--forget-tasks", default="")
    p_uis.set_defaults(func=cmd_uis)

    p_sweep = config_command("sweep", cmd_sweep, "repeat run across forget ratios")
    p_sweep.add_argument("--ratios", required=True)
    p_sweep.add_argument("--strategy", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MtUnlearnError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
