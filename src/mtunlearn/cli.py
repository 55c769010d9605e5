"""Command-line pipeline: generate, run, verify, uis, sweep.

Every command materializes its full configuration, writes versioned JSON
or CSV artifacts, and records a manifest with content digests so reruns
can be checked for byte-identical numeric output. Exit codes: 0 success,
2 configuration or schema error, 3 numeric or verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
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
    decode_array,
    decode_list,
    default_forget_split,
    encode_array,
    forget_count,
    generate_synthetic,
    load_document,
    problem_to_json,
)
from .errors import ConfigError, MtUnlearnError
from .evaluation import EvalReport, UISInput, evaluate, uis
from .model import (
    LowRankEdit,
    MultiTaskModel,
    TrainConfig,
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
CHECKPOINT_SCHEMA_VERSION = 2
TRACE_SCHEMA_VERSION = 1

# Largest Frobenius norm of Q^T Q - I accepted for a loaded subspace basis.
BASIS_ORTHONORMAL_TOL = 1e-8


# Bytes read per chunk when hashing a file, so hashing never holds a whole
# output in memory.
HASH_CHUNK_BYTES = 1 << 20


def sha256_of_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class _NonFinite:
    """What :func:`load_config` reads for NaN and Infinity; no field accepts it."""

    literal: str


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_NonFinite)
    except ValueError as exc:  # also an integer too long to convert
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def gen_config_from_doc(doc: dict, seed: int) -> GenConfig:
    """The generator config of ``doc["data"]``; ``n_val`` defaults to max(50, N // 2)."""
    cfg = config_from_doc(GenConfig, doc.get("data"), "data", seed=seed)
    return cfg if "n_val" in doc["data"] else replace(cfg, n_val=max(50, cfg.n_instances // 2))


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
        if data.n_val < 1:
            raise ConfigError("data.n_val: must be >= 1, early stopping needs a validation set")
        partition = config_from_doc(PartitionConfig, top.partition, "partition")
        tasks = tuple(sorted(set(partition.forget_tasks)))
        if not 0 <= tasks[0] <= tasks[-1] < data.n_tasks:
            raise ConfigError(f"partition.forget_tasks: {list(tasks)} not in [0, {data.n_tasks})")
        forget_count(data.n_instances, partition.forget_fraction)
        train = config_from_doc(TrainConfig, top.train, "train", seed=seed)
        train = replace(train, rank=train.rank_for(data))
        dim = default_subspace_dim(train.rank, data.n_tasks)
        sub = config_from_doc(SubspaceConfig, {"dim": dim, **top.subspace}, "subspace")
        try:
            check_layout(data.n_tasks, train.rank, sub.dim, sub.mode)
        except MtUnlearnError as exc:
            raise ConfigError(f"subspace: {exc}") from None
        setting = "full" if len(tasks) == data.n_tasks else "partial"
        node = dict(top.unlearn)
        if node.pop("setting", setting) != setting:
            raise ConfigError(f"unlearn.setting: partition.forget_tasks select {setting!r}")
        if strategy is not None:
            node["strategy"] = strategy
        unlearn = config_from_doc(UnlearnConfig, node, "unlearn", seed=seed, setting=setting)
        return cls(data, replace(partition, forget_tasks=tasks), train, sub, unlearn, top.n_seeds)

    def to_doc(self) -> dict:
        """The config document that :meth:`from_doc` reads back as this config."""
        sections = ("data", "partition", "train", "subspace", "unlearn")
        doc = {name: config_to_doc(getattr(self, name), "seed") for name in sections}
        return dict(doc, schema_version=CONFIG_SCHEMA_VERSION, seed=self.seed, n_seeds=self.n_seeds)


def checkpoint_to_json(
    model: MultiTaskModel,
    bases: np.ndarray,
    dataset_digest: str,
    config_echo: dict,
) -> str:
    """A model and its (K, r, s) subspace bases as versioned JSON; every array,
    and each task's basis on its own, is base64 float64."""
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "w_star": encode_array(model.edit.w_star),
        "a": encode_array(model.edit.a),
        "b": encode_array(model.edit.b),
        "heads": [encode_array(h) for h in model.heads],
        "subspace_bases": [encode_array(q) for q in bases],
        "dataset_digest": dataset_digest,
        "config": config_echo,
    }
    return json.dumps(doc, sort_keys=True)


def checkpoint_from_json(text: str):
    """The four arguments that :func:`checkpoint_to_json` made ``text`` from.

    The subspace bases come back as one (K, r, s) array. Array shapes
    follow from the ``config`` echo; a bad field raises ConfigError naming it.
    """
    doc = load_document(text, "checkpoint", CHECKPOINT_SCHEMA_VERSION)
    try:
        cfg = RunConfig.from_doc(doc.get("config"))
    except ConfigError as exc:
        raise ConfigError(f"checkpoint config: {exc}") from None
    digest = doc.get("dataset_digest")
    if not isinstance(digest, str):
        raise ConfigError(f"checkpoint dataset_digest: expected a string, got {digest!r}")
    d, k, r, dims = cfg.data.input_dim, cfg.data.shared_dim, cfg.train.rank, cfg.data.task_dims
    edit = LowRankEdit(
        w_star=decode_array(doc.get("w_star"), "checkpoint w_star", (d, k)),
        a=decode_array(doc.get("a"), "checkpoint a", (k, r)),
        b=decode_array(doc.get("b"), "checkpoint b", (d, r)),
    )
    heads = decode_list(doc.get("heads"), "checkpoint heads", [(m, k) for m in dims])
    bases = decode_list(
        doc.get("subspace_bases"), "checkpoint subspace_bases", [(r, cfg.subspace.dim)] * len(dims)
    )
    for t, q in enumerate(bases):
        err = float(np.linalg.norm(q.T @ q - np.eye(q.shape[1])))
        if err > BASIS_ORTHONORMAL_TOL:
            raise ConfigError(
                f"checkpoint subspace_bases[{t}] is not orthonormal: "
                f"|Q^T Q - I| = {err:.3g} > {BASIS_ORTHONORMAL_TOL:g}"
            )
    model = MultiTaskModel(edit=edit, heads=tuple(heads))
    return model, np.stack(bases), digest, doc["config"]


def trace_to_json(trace: UnlearnTrace) -> str:
    doc = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "reference_auc": trace.reference_auc,
        "selected_epoch": trace.selected_epoch,
        "records": [dataclasses.asdict(r) for r in trace.records],
    }
    return json.dumps(doc, sort_keys=True)


def write_manifest(out_dir: Path, command: str, config: dict, seed, outputs, started):
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": command,
        "config": config,
        "seed": seed,
        "outputs": {
            str(Path(p).relative_to(out_dir)): sha256_of_file(p) for p in outputs
        },
        "elapsed_seconds": time.time() - started,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


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
    ds_path = out / "dataset.json"
    ds_path.write_text(problem_to_json(problem))
    write_manifest(out, "generate", cfg.to_doc(), cfg.seed, [ds_path], started)
    print(f"wrote {ds_path}")
    return EXIT_OK


def _single_run(cfg: RunConfig, out: Path) -> dict:
    """Full pipeline for ``cfg``'s one seed; writes artifacts and returns summary row."""
    seed = cfg.seed
    out.mkdir(parents=True, exist_ok=True)
    problem = generate_synthetic(cfg.data)
    ds = problem.dataset
    ds_path = out / "dataset.json"
    ds_path.write_text(problem_to_json(problem))
    ds_digest = sha256_of_file(ds_path)

    pc = cfg.partition
    part = default_forget_split(ds, pc.forget_fraction, pc.forget_tasks, seed)
    original = train_reference(problem, ds.all_pairs(), cfg.train)
    retrain = train_reference(problem, part.retain, cfg.train)
    bases = init_subspaces(
        cfg.data.n_tasks, cfg.train.rank, cfg.subspace.dim, cfg.subspace.mode, seed
    )
    unlearned, trace = run_unlearning(original, problem, part, bases, cfg.unlearn, retrain)
    echo = cfg.to_doc()

    reports = {}
    for name, model in (("original", original), ("retrain", retrain), ("unlearned", unlearned)):
        reports[name] = evaluate(model, ds, part, problem.val_dataset)
        (out / f"eval_{name}.csv").write_text(reports[name].to_csv())
        (out / f"checkpoint_{name}.json").write_text(
            checkpoint_to_json(model, bases, ds_digest, echo)
        )
    (out / "trace.json").write_text(trace_to_json(trace))

    score = uis(
        UISInput(
            evaluated=reports["unlearned"],
            original_ref=reports["original"],
            retrain_ref=reports["retrain"],
            setting=cfg.unlearn.setting,
            forget_tasks=frozenset(pc.forget_tasks),
        )
    )
    row = {
        "seed": seed,
        "selected_epoch": trace.selected_epoch,
        "forget_loss_start": trace.records[0].forget_loss,
        "forget_loss": trace.records[trace.selected_epoch].forget_loss,
        # None (JSON null) when every task is forgotten and no clean pair is left.
        "clean_loss": subset_loss(unlearned, ds, part.retain_clean)
        if part.retain_clean.size
        else None,
        "mia_auc": trace.records[trace.selected_epoch].mia_auc,
        "reference_auc": trace.reference_auc,
        "uis": score,
    }
    (out / "uis.json").write_text(json.dumps(row, sort_keys=True))
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


def _write_seed_table(out: Path, rows) -> tuple[dict, list[Path]]:
    """Write ``seeds.csv`` and ``summary.json``; return the summary and both paths.

    A field that some seed lacks (None) has a null mean and stddev.
    """
    lines = [",".join(_ROW_FIELDS)]
    for row in rows:
        lines.append(",".join(_csv_field(row[f]) for f in _ROW_FIELDS))
    seeds_path = out / "seeds.csv"
    seeds_path.write_text("\n".join(lines) + "\n")
    summary = {}
    for f in _ROW_FIELDS[1:]:
        vals = [row[f] for row in rows]
        if None in vals:
            summary[f] = {"mean": None, "stddev": None}
        else:
            arr = np.array(vals, dtype=float)
            summary[f] = {"mean": float(arr.mean()), "stddev": float(arr.std(ddof=0))}
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary, [seeds_path, summary_path]


def _run_seeds(cfg: RunConfig, out: Path) -> tuple[list[dict], dict, list[Path]]:
    """Run each seed of ``cfg`` as its own one-seed config; return rows, summary and files."""
    rows, outputs, doc = [], [], cfg.to_doc()
    for seed in range(cfg.seed, cfg.seed + cfg.n_seeds):
        seed_dir = out / f"seed_{seed}"
        rows.append(_single_run(RunConfig.from_doc(dict(doc, seed=seed, n_seeds=1)), seed_dir))
        outputs.extend(sorted(seed_dir.iterdir()))
    summary, written = _write_seed_table(out, rows)
    return rows, summary, outputs + written


def cmd_run(args) -> int:
    started = time.time()
    cfg = RunConfig.from_doc(load_config(args.config), args.seed, args.strategy)
    out = _out_dir(args)
    rows, _, outputs = _run_seeds(cfg, out)
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
        path = out / "verification.json"
        path.write_text(theory.report_to_json(report))
        write_manifest(out, "verify", {"seed": args.seed}, args.seed, [path], started)
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

    out = _out_dir(args)
    outputs = []
    lines = ["ratio," + ",".join(f"mean_{f}" for f in _ROW_FIELDS[1:])]
    for ratio, sub in subs.items():
        _, summary, written = _run_seeds(sub, out / f"ratio_{ratio}")
        outputs.extend(written)
        lines.append(f"{ratio}," + ",".join(_csv_field(summary[f]["mean"]) for f in _ROW_FIELDS[1:]))
    sweep_path = out / "sweep.csv"
    sweep_path.write_text("\n".join(lines) + "\n")
    outputs.append(sweep_path)
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
