"""Command-line pipeline: generate, run, verify, uis, sweep.

Every command materializes its full configuration, writes versioned JSON
or CSV artifacts, and records a manifest with content digests so reruns
can be checked for byte-identical numeric output. Exit codes: 0 success,
2 configuration or schema error, 3 numeric or verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import theory
from .data import (
    GenConfig,
    default_forget_split,
    generate_synthetic,
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
from .subspace import TaskSubspace, default_subspace_dim, init_subspaces
from .unlearn import UnlearnConfig, UnlearnTrace, run_unlearning

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CONFIG_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1
CHECKPOINT_SCHEMA_VERSION = 1
TRACE_SCHEMA_VERSION = 1

# Largest Frobenius norm of Q^T Q - I accepted for a loaded subspace basis.
BASIS_ORTHONORMAL_TOL = 1e-8

# When set, this environment variable overrides --out for every command.
OUTPUT_DIR_ENV = "MTUNLEARN_OUT"


def sha256_of_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _require(doc: dict, path: str, types) -> object:
    """Fetch a dotted field from nested dicts; missing -> error naming it."""
    node = doc
    walked = []
    for key in path.split("."):
        walked.append(key)
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"missing required field {'.'.join(walked)!r}")
        node = node[key]
    if not isinstance(node, types) or isinstance(node, bool):
        raise ConfigError(f"field {path!r} has invalid type {type(node).__name__}")
    return node


def _optional(doc: dict, path: str, default):
    node = doc
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if _require(doc, "schema_version", int) != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported config schema_version {doc['schema_version']!r}"
        )
    return doc


def gen_config_from_doc(doc: dict, seed: int) -> GenConfig:
    task_dims = _require(doc, "data.task_dims", list)
    weights = _optional(doc, "data.task_weights", None)
    return GenConfig(
        n_instances=_require(doc, "data.n_instances", int),
        input_dim=_require(doc, "data.input_dim", int),
        n_tasks=_require(doc, "data.n_tasks", int),
        task_dims=tuple(task_dims),
        shared_dim=_require(doc, "data.shared_dim", int),
        teacher_rank=_require(doc, "data.teacher_rank", int),
        noise_std=float(_require(doc, "data.noise_std", (int, float))),
        seed=seed,
        n_val=int(_optional(doc, "data.n_val", 0)),
        task_weights=tuple(weights) if weights else None,
    )


def resolve_run_config(doc: dict, seed_override=None, strategy_override=None) -> dict:
    """Materialize every default so the manifest records the exact run."""
    seed = int(seed_override if seed_override is not None else _require(doc, "seed", int))
    n_tasks = _require(doc, "data.n_tasks", int)
    rank = _optional(doc, "train.rank", None)
    if rank is None:
        rank = _require(doc, "data.teacher_rank", int)
    forget_tasks = _require(doc, "partition.forget_tasks", list)
    if not forget_tasks:
        raise ConfigError("field 'partition.forget_tasks' must be nonempty")
    setting = "full" if len(set(forget_tasks)) == n_tasks else "partial"
    resolved = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "data": {
            "n_instances": _require(doc, "data.n_instances", int),
            "input_dim": _require(doc, "data.input_dim", int),
            "n_tasks": n_tasks,
            "task_dims": list(_require(doc, "data.task_dims", list)),
            "shared_dim": _require(doc, "data.shared_dim", int),
            "teacher_rank": _require(doc, "data.teacher_rank", int),
            "noise_std": float(_require(doc, "data.noise_std", (int, float))),
            "n_val": int(_optional(doc, "data.n_val", max(50, _require(doc, "data.n_instances", int) // 2))),
            "task_weights": _optional(doc, "data.task_weights", None),
        },
        "partition": {
            "forget_fraction": float(_require(doc, "partition.forget_fraction", (int, float))),
            "forget_tasks": sorted(set(int(t) for t in forget_tasks)),
        },
        "train": {
            "epochs": _require(doc, "train.epochs", int),
            "step_size": float(_require(doc, "train.step_size", (int, float))),
            "rank": int(rank),
            "init_scale": float(_optional(doc, "train.init_scale", 0.1)),
        },
        "subspace": {
            "dim": int(_optional(doc, "subspace.dim", default_subspace_dim(rank, n_tasks))),
            "mode": _optional(doc, "subspace.mode", "disjoint-blocks"),
        },
        "unlearn": {
            "setting": setting,
            "eta1": float(_optional(doc, "unlearn.eta1", 1.0)),
            "eta2": float(_optional(doc, "unlearn.eta2", 0.1)),
            "eps": float(_optional(doc, "unlearn.eps", 1e-8)),
            "max_epochs": int(_optional(doc, "unlearn.max_epochs", 20)),
            "reg_weight": float(_optional(doc, "unlearn.reg_weight", 1.0)),
            "reg_step_size": float(_optional(doc, "unlearn.reg_step_size", 1e-3)),
            "strategy": strategy_override or _optional(doc, "unlearn.strategy", "ours"),
            "anchor_fraction": float(_optional(doc, "unlearn.anchor_fraction", 0.10)),
        },
        "seed": seed,
        "n_seeds": int(_optional(doc, "n_seeds", 1)),
    }
    if not 0 < resolved["partition"]["forget_fraction"] < 1:
        raise ConfigError("field 'partition.forget_fraction' must be in (0, 1)")
    if resolved["n_seeds"] < 1:
        raise ConfigError("field 'n_seeds' must be >= 1")
    return resolved


def checkpoint_to_json(
    model: MultiTaskModel,
    subspaces,
    dataset_digest: str,
    config_echo: dict,
) -> str:
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "w_star": model.edit.w_star.tolist(),
        "a": model.edit.a.tolist(),
        "b": model.edit.b.tolist(),
        "heads": [h.tolist() for h in model.heads],
        "subspace_bases": [s.basis.tolist() for s in subspaces],
        "dataset_digest": dataset_digest,
        "config": config_echo,
    }
    return json.dumps(doc, sort_keys=True)


def checkpoint_from_json(text: str):
    doc = json.loads(text)
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ConfigError("unsupported checkpoint schema_version")
    edit = LowRankEdit(
        w_star=np.asarray(doc["w_star"], dtype=float),
        a=np.asarray(doc["a"], dtype=float),
        b=np.asarray(doc["b"], dtype=float),
    )
    model = MultiTaskModel(
        edit=edit, heads=tuple(np.asarray(h, dtype=float) for h in doc["heads"])
    )
    subspaces = []
    for t, basis in enumerate(doc["subspace_bases"]):
        q = np.asarray(basis, dtype=float)
        if q.ndim != 2 or not np.all(np.isfinite(q)):
            raise ConfigError(f"checkpoint subspace_bases[{t}] is not a finite matrix")
        err = float(np.linalg.norm(q.T @ q - np.eye(q.shape[1])))
        if err > BASIS_ORTHONORMAL_TOL:
            raise ConfigError(
                f"checkpoint subspace_bases[{t}] is not orthonormal: "
                f"|Q^T Q - I| = {err:.3g} > {BASIS_ORTHONORMAL_TOL:g}"
            )
        subspaces.append(TaskSubspace(t, q))
    return model, subspaces, doc


def trace_to_json(trace: UnlearnTrace) -> str:
    doc = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "reference_auc": trace.reference_auc,
        "selected_epoch": trace.selected_epoch,
        "records": [
            {
                "epoch": r.epoch,
                "forget_loss": r.forget_loss,
                "clean_loss": r.clean_loss,
                "inst_loss": r.inst_loss,
                "task_loss": r.task_loss,
                "mia_auc": r.mia_auc,
            }
            for r in trace.records
        ],
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
    out = os.environ.get(OUTPUT_DIR_ENV) or args.out
    if out is None:
        raise ConfigError("no output directory: pass --out or set " + OUTPUT_DIR_ENV)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_generate(args) -> int:
    started = time.time()
    doc = load_config(args.config)
    seed = args.seed if args.seed is not None else _require(doc, "seed", int)
    out = _out_dir(args)
    problem = generate_synthetic(gen_config_from_doc(doc, int(seed)))
    ds_path = out / "dataset.json"
    ds_path.write_text(problem_to_json(problem))
    write_manifest(out, "generate", doc, int(seed), [ds_path], started)
    print(f"wrote {ds_path}")
    return EXIT_OK


def _single_run(resolved: dict, seed: int, out: Path) -> dict:
    """Full pipeline for one seed; writes artifacts and returns summary row."""
    out.mkdir(parents=True, exist_ok=True)
    problem = generate_synthetic(gen_config_from_doc(resolved, seed))
    ds = problem.dataset
    ds_path = out / "dataset.json"
    ds_path.write_text(problem_to_json(problem))
    ds_digest = sha256_of_file(ds_path)

    pc = resolved["partition"]
    part = default_forget_split(ds, pc["forget_fraction"], pc["forget_tasks"], seed)
    tc = TrainConfig(
        epochs=resolved["train"]["epochs"],
        step_size=resolved["train"]["step_size"],
        seed=seed,
        rank=resolved["train"]["rank"],
        init_scale=resolved["train"]["init_scale"],
    )
    original = train_reference(problem, ds.all_pairs(), tc)
    retrain = train_reference(problem, list(part.retain), tc)
    subspaces = init_subspaces(
        resolved["data"]["n_tasks"],
        rank=resolved["train"]["rank"],
        dim=resolved["subspace"]["dim"],
        mode=resolved["subspace"]["mode"],
        seed=seed,
    )
    uc = resolved["unlearn"]
    ucfg = UnlearnConfig(
        setting=uc["setting"],
        eta1=uc["eta1"],
        eta2=uc["eta2"],
        eps=uc["eps"],
        max_epochs=uc["max_epochs"],
        reg_weight=uc["reg_weight"],
        reg_step_size=uc["reg_step_size"],
        strategy=uc["strategy"],
        anchor_fraction=uc["anchor_fraction"],
        seed=seed,
    )
    unlearned, trace = run_unlearning(original, problem, part, subspaces, ucfg, retrain)

    reports = {}
    for name, model in (
        ("original", original),
        ("retrain", retrain),
        ("unlearned", unlearned),
    ):
        rep = evaluate(model, ds, part, problem.val_dataset, metadata={"model": name, "seed": seed})
        reports[name] = rep
        (out / f"eval_{name}.json").write_text(rep.to_json())
        (out / f"eval_{name}.csv").write_text(rep.to_csv())
        (out / f"checkpoint_{name}.json").write_text(
            checkpoint_to_json(model, subspaces, ds_digest, resolved)
        )
    (out / "trace.json").write_text(trace_to_json(trace))

    score = uis(
        UISInput(
            evaluated=reports["unlearned"],
            original_ref=reports["original"],
            retrain_ref=reports["retrain"],
            setting=uc["setting"],
            forget_tasks=frozenset(pc["forget_tasks"]),
        )
    )
    row = {
        "seed": seed,
        "selected_epoch": trace.selected_epoch,
        "forget_loss_start": trace.records[0].forget_loss,
        "forget_loss": trace.record_for(trace.selected_epoch).forget_loss,
        "clean_loss": subset_loss(unlearned, ds, part.retain_clean)
        if part.retain_clean
        else float("nan"),
        "mia_auc": trace.record_for(trace.selected_epoch).mia_auc,
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


def _write_seed_table(out: Path, rows) -> list[Path]:
    lines = [",".join(_ROW_FIELDS)]
    for row in rows:
        lines.append(",".join(repr(row[f]) if isinstance(row[f], float) else str(row[f]) for f in _ROW_FIELDS))
    seeds_path = out / "seeds.csv"
    seeds_path.write_text("\n".join(lines) + "\n")
    summary = {}
    for f in _ROW_FIELDS[1:]:
        vals = np.array([float(row[f]) for row in rows])
        summary[f] = {"mean": float(vals.mean()), "stddev": float(vals.std(ddof=0))}
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return [seeds_path, summary_path]


def cmd_run(args) -> int:
    started = time.time()
    doc = load_config(args.config)
    resolved = resolve_run_config(doc, args.seed, args.strategy)
    out = _out_dir(args)
    rows = []
    outputs = []
    for i in range(resolved["n_seeds"]):
        seed = resolved["seed"] + i
        seed_dir = out / f"seed_{seed}"
        rows.append(_single_run(resolved, seed, seed_dir))
        outputs.extend(sorted(seed_dir.iterdir()))
    outputs.extend(_write_seed_table(out, rows))
    write_manifest(out, "run", resolved, resolved["seed"], outputs, started)
    for row in rows:
        print(
            f"seed {row['seed']}: uis {100 * row['uis']:.1f}% "
            f"selected_epoch {row['selected_epoch']}"
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.time()
    seed = args.seed if args.seed is not None else 0
    report = theory.run_all_checks(seed=int(seed))
    text = theory.report_to_json(report)
    outputs = []
    if args.out or os.environ.get(OUTPUT_DIR_ENV):
        out = _out_dir(args)
        path = out / "verification.json"
        path.write_text(text)
        outputs.append(path)
        write_manifest(out, "verify", {"seed": int(seed)}, int(seed), outputs, started)
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
        except OSError as exc:
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
    doc = load_config(args.config)
    resolved = resolve_run_config(doc, args.seed, args.strategy)
    out = _out_dir(args)
    try:
        ratios = [float(r) for r in args.ratios.split(",") if r.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid --ratios value: {exc}") from exc
    if not ratios:
        raise ConfigError("--ratios must list at least one value")
    unique = []
    for r in ratios:
        if r in unique:
            print(f"warning: duplicate ratio {r} ignored", file=sys.stderr)
            continue
        if not 0 < r < 1:
            raise ConfigError(f"ratio {r} outside (0, 1)")
        unique.append(r)

    outputs = []
    lines = ["ratio," + ",".join(f"mean_{f}" for f in _ROW_FIELDS[1:])]
    for ratio in unique:
        sub = dict(resolved)
        sub["partition"] = dict(resolved["partition"], forget_fraction=ratio)
        ratio_dir = out / f"ratio_{ratio}"
        rows = []
        for i in range(resolved["n_seeds"]):
            seed = resolved["seed"] + i
            seed_dir = ratio_dir / f"seed_{seed}"
            rows.append(_single_run(sub, seed, seed_dir))
            outputs.extend(sorted(seed_dir.iterdir()))
        outputs.extend(_write_seed_table(ratio_dir, rows))
        means = [
            repr(float(np.mean([float(row[f]) for row in rows])))
            for f in _ROW_FIELDS[1:]
        ]
        lines.append(f"{ratio}," + ",".join(means))
    sweep_path = out / "sweep.csv"
    sweep_path.write_text("\n".join(lines) + "\n")
    outputs.append(sweep_path)
    write_manifest(out, "sweep", resolved, resolved["seed"], outputs, started)
    print(f"wrote {sweep_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtunlearn",
        description="interference-aware multi-task unlearning pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="train references, unlearn, evaluate")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--strategy", default=None)
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run the theory check suites")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_uis = sub.add_parser("uis", help="impact score from three eval CSVs")
    p_uis.add_argument("--evaluated", required=True)
    p_uis.add_argument("--original", required=True)
    p_uis.add_argument("--retrain", required=True)
    p_uis.add_argument("--setting", required=True, choices=["full", "partial"])
    p_uis.add_argument("--forget-tasks", default="")
    p_uis.set_defaults(func=cmd_uis)

    p_sweep = sub.add_parser("sweep", help="repeat run across forget ratios")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--ratios", required=True)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--strategy", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

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
