import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchdata import BENCH_A_ORIGINAL, report_from_cells
from conftest import decode
from mtunlearn import LowRankEdit, MultiTaskModel, cli, surgery
from mtunlearn.errors import ConfigError


def base_config():
    return {
        "schema_version": 1,
        "data": {
            "n_instances": 30,
            "input_dim": 6,
            "n_tasks": 2,
            "task_dims": [1, 2],
            "shared_dim": 5,
            "teacher_rank": 2,
            "noise_std": 0.2,
            "n_val": 20,
        },
        "partition": {"forget_fraction": 0.1, "forget_tasks": [0]},
        "train": {"epochs": 80, "step_size": 0.3},
        "subspace": {"dim": 1, "mode": "disjoint-blocks"},
        "unlearn": {"eta1": 0.3, "eta2": 0.05, "max_epochs": 4, "anchor_fraction": 1.0},
        "seed": 0,
        "n_seeds": 1,
    }


def write_config(path, **overrides):
    doc = base_config()
    for key, value in overrides.items():
        doc[key] = value
    path.write_text(json.dumps(doc))
    return path


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# What `run` writes into each seed_N/. Eval reports are CSV only; no JSON twin.
# No dataset copy: each checkpoint's config echo regenerates it.
SEED_FILES = [
    "checkpoint_original.json",
    "checkpoint_retrain.json",
    "checkpoint_unlearned.json",
    "eval_original.csv",
    "eval_retrain.csv",
    "eval_unlearned.csv",
    "trace.json",
    "uis.json",
]


def test_generate_is_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert digest(out1 / "dataset.json") == digest(out2 / "dataset.json")
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["outputs"]["dataset.json"] == digest(out1 / "dataset.json")


def test_generate_seed_flag_changes_output(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["generate", "--config", str(cfg), "--out", str(out1)])
    cli.main(["generate", "--config", str(cfg), "--out", str(out2), "--seed", "9"])
    assert digest(out1 / "dataset.json") != digest(out2 / "dataset.json")


def test_missing_field_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    doc = json.loads(cfg.read_text())
    del doc["data"]["teacher_rank"]
    cfg.write_text(json.dumps(doc))
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "data.teacher_rank" in capsys.readouterr().err


def test_invalid_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "missing.json"
    assert cli.main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2


def test_integer_too_long_to_parse_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"schema_version": 1, "seed": ' + "7" * 5000 + "}")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "run"])
@pytest.mark.parametrize("nested", ["document", "field"])
def test_config_nested_too_deeply_exits_2_naming_the_file(tmp_path, capsys, command, nested):
    depth = 200_000
    deep = "[" * depth + "]" * depth
    cfg = tmp_path / "cfg.json"
    if nested == "document":
        cfg.write_text(deep)
    else:
        cfg.write_text(json.dumps(base_config()).replace('"noise_std": 0.2', f'"noise_std": {deep}'))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"config {cfg} is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, text",
    [
        ("eta2", '"unlearn": {"eta2": 0.05, "eta2": 5.0}'),
        ("seed", '"seed": 0, "seed": 4'),
    ],
    ids=["unlearn.eta2", "seed"],
)
def test_repeated_key_exits_2_naming_it(tmp_path, capsys, key, text):
    doc = json.dumps(base_config())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc[:-1] + ", " + text + "}")
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"key '{key}' is given twice" in capsys.readouterr().err
    assert not out.exists()


def test_run_artifacts_and_rerun_digest_equality(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert sorted(p.name for p in (out1 / "seed_0").iterdir()) == SEED_FILES
    # The README's list of a seed directory's files names exactly these.
    sentence = re.search(
        r"`run` writes one directory `seed_N/` per seed, holding\s(.*?)\.\s", README, re.S
    )
    assert sorted(re.findall(r"`([^`]+)`", sentence.group(1))) == SEED_FILES
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    # manifest digests verify against the files on disk
    for rel, expected in m1["outputs"].items():
        assert digest(out1 / rel) == expected


def test_run_into_a_reused_out_lists_only_what_it_wrote(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "r"
    (out / "seed_0").mkdir(parents=True)
    stale = {"seed_0/dataset.json": b'{"schema_version": 2}', "seed_0/notes.txt": b"mine\n"}
    for rel, data in stale.items():
        (out / rel).write_bytes(data)
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(outputs) == [f"seed_0/{name}" for name in SEED_FILES] + ["seeds.csv", "summary.json"]
    for rel, data in stale.items():
        assert (out / rel).read_bytes() == data


@pytest.mark.parametrize(
    "taken, is_dir",
    [("seed_0", False), ("seed_0/uis.json", True), ("manifest.json", True)],
    ids=["seed_dir_is_a_file", "uis_json_is_a_dir", "manifest_is_a_dir"],
)
def test_write_under_a_reused_out_that_fails_exits_2_naming_the_path(
    tmp_path, capsys, taken, is_dir
):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "r"
    path = out / taken
    if is_dir:
        path.mkdir(parents=True)
    else:
        out.mkdir()
        path.write_text("kept")
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert re.search(rf"cannot write {re.escape(str(path))}\b", captured.err)
    assert captured.out == ""
    assert path.is_dir() if is_dir else path.read_text() == "kept"


def test_run_never_encodes_the_dataset(tmp_path, monkeypatch):
    def refuse(problem):
        raise AssertionError("run encoded the dataset")

    monkeypatch.setattr(cli, "problem_to_json", refuse)
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "seed_0").iterdir()) == SEED_FILES


@pytest.mark.parametrize("command", ["generate", "run", "sweep", "verify"])
def test_manifest_lists_every_file_a_command_wrote(tmp_path, command):
    cfg = write_config(tmp_path / "cfg.json", n_seeds=2)
    out = tmp_path / "out"
    argv = {
        "generate": ["generate", "--config", str(cfg)],
        "run": ["run", "--config", str(cfg)],
        "sweep": ["sweep", "--config", str(cfg), "--ratios", "0.1,0.2"],
        "verify": ["verify", "--seed", "0"],
    }[command]
    assert cli.main([*argv, "--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert set(outputs) == written - {"manifest.json"}
    for rel, expected in outputs.items():
        assert digest(out / rel) == expected


def decoded_checkpoint(text):
    """The two arguments that ``cli.checkpoint_to_json`` made ``text`` from."""
    doc = json.loads(text)
    assert doc["schema_version"] == cli.CHECKPOINT_SCHEMA_VERSION
    edit = LowRankEdit(*(decode(doc[name]) for name in ("w_star", "a", "b")))
    model = MultiTaskModel(edit=edit, heads=tuple(decode(h) for h in doc["heads"]))
    return model, doc["config"]


def test_checkpoint_round_trip(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "r"
    cli.main(["run", "--config", str(cfg), "--out", str(out)])
    for name in ("original", "retrain", "unlearned"):
        text = (out / "seed_0" / f"checkpoint_{name}.json").read_text()
        assert cli.checkpoint_to_json(*decoded_checkpoint(text)) == text


def test_run_multi_seed_summary(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", n_seeds=2)
    out = tmp_path / "multi"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "seeds.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header plus one row per seed
    summary = json.loads((out / "summary.json").read_text())
    assert "uis" in summary and "mean" in summary["uis"] and "stddev" in summary["uis"]


def _reject_constant(literal):
    raise ValueError(f"non-standard JSON constant {literal}")


def test_full_task_run_writes_strict_json(tmp_path):
    # With every task forgotten no clean pair is left, so clean_loss has no value.
    cfg = write_config(
        tmp_path / "cfg.json",
        n_seeds=2,
        partition={"forget_fraction": 0.1, "forget_tasks": [0, 1]},
    )
    out = tmp_path / "full"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    artifacts = sorted(out.rglob("*.json"))
    # manifest and summary, then per seed: 3 checkpoints, trace and uis
    assert len(artifacts) == 2 + 2 * 5
    for path in artifacts:
        json.loads(path.read_text(), parse_constant=_reject_constant)
    assert json.loads((out / "seed_1" / "uis.json").read_text())["clean_loss"] is None
    summary = json.loads((out / "summary.json").read_text())
    assert summary["clean_loss"] == {"mean": None, "stddev": None}
    header, *rows = (out / "seeds.csv").read_text().splitlines()
    column = header.split(",").index("clean_loss")
    assert [row.split(",")[column] for row in rows] == ["", ""]


def test_strategy_flag_changes_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "ours", tmp_path / "ng"
    cli.main(["run", "--config", str(cfg), "--out", str(out1)])
    cli.main(
        ["run", "--config", str(cfg), "--out", str(out2), "--strategy", "neggrad_plus"]
    )
    assert digest(out1 / "seed_0" / "checkpoint_unlearned.json") != digest(
        out2 / "seed_0" / "checkpoint_unlearned.json"
    )
    capsys.readouterr()
    assert cli.main(
        ["run", "--config", str(cfg), "--out", str(tmp_path / "x"), "--strategy", "bogus"]
    ) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: unlearn: unknown strategy 'bogus', expected one of 'ours', "
        "'neggrad_plus', 'wo_projection', 'wo_task', 'wo_inst', 'wo_clean'\n"
    )


def test_uis_command_trivial_zero(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "r"
    cli.main(["run", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    original = out / "seed_0" / "eval_original.csv"
    code = cli.main(
        [
            "uis",
            "--evaluated", str(original),
            "--original", str(original),
            "--retrain", str(original),
            "--setting", "full",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.0%"


def test_uis_command_rejects_wrong_metric_label(tmp_path, capsys):
    report = tmp_path / "report.csv"
    text = report_from_cells(BENCH_A_ORIGINAL).to_csv()
    report.write_text(text.replace("exp_neg_loss", "accuracy"))
    code = cli.main(
        [
            "uis",
            "--evaluated", str(report),
            "--original", str(report),
            "--retrain", str(report),
            "--setting", "full",
        ]
    )
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "metric 'accuracy' for task 0 cell 'ret' is not 'exp_neg_loss'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("setting", ["full", "partial"])
def test_uis_command_with_a_zero_reference_exits_2_naming_it(tmp_path, capsys, setting):
    # Task 0's membership cell is scored against Retrain in both settings.
    cells = [list(c) for c in BENCH_A_ORIGINAL]
    cells[0][3] = 0.0
    paths_ = {}
    for name, report in (("original", BENCH_A_ORIGINAL), ("retrain", cells)):
        paths_[name] = tmp_path / f"{name}.csv"
        paths_[name].write_text(report_from_cells(report).to_csv())
    argv = ["uis", "--evaluated", str(paths_["original"]), "--setting", setting]
    argv += ["--original", str(paths_["original"]), "--retrain", str(paths_["retrain"])]
    forget_tasks = ["--forget-tasks", "0"] if setting == "partial" else []
    assert cli.main([*argv, *forget_tasks]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "config error: retrain_ref: zero reference for task 0 cell 'mia'\n"
    assert captured.out == ""


@pytest.mark.parametrize("header", ["value,metric,cell,task", None], ids=["reversed", "missing"])
def test_uis_command_rejects_a_csv_without_its_header(tmp_path, capsys, header):
    report = tmp_path / "report.csv"
    report.write_text(report_from_cells(BENCH_A_ORIGINAL).to_csv())
    lines = report.read_text().splitlines()
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(lines[1:] if header is None else [header, *lines[1:]]) + "\n")
    code = cli.main(
        [
            "uis",
            "--evaluated", str(broken),
            "--original", str(report),
            "--retrain", str(report),
            "--setting", "full",
        ]
    )
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    first = header if header is not None else lines[1]
    assert f"report CSV header {first!r} is not 'task,cell,metric,value'" in captured.err
    assert captured.out == ""


def test_uis_command_rejects_repeated_cell(tmp_path, capsys):
    report = tmp_path / "report.csv"
    report.write_text(report_from_cells(BENCH_A_ORIGINAL).to_csv() + "0,ret,exp_neg_loss,0.9\n")
    code = cli.main(
        [
            "uis",
            "--evaluated", str(report),
            "--original", str(report),
            "--retrain", str(report),
            "--setting", "full",
        ]
    )
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "repeated row for task 0 cell 'ret'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("forget_tasks", ["7", "0,-1", "x", "0,"])
def test_uis_command_rejects_bad_forget_tasks(tmp_path, capsys, forget_tasks):
    report = tmp_path / "report.csv"
    report.write_text(report_from_cells(BENCH_A_ORIGINAL).to_csv())  # 3 tasks
    code = cli.main(
        [
            "uis",
            "--evaluated", str(report),
            "--original", str(report),
            "--retrain", str(report),
            "--setting", "partial",
            "--forget-tasks", forget_tasks,
        ]
    )
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--forget-tasks" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("setting, forget_tasks", [("partial", "0,1,2"), ("full", "1")])
def test_uis_command_rejects_forget_tasks_that_contradict_the_setting(
    tmp_path, capsys, setting, forget_tasks
):
    report = tmp_path / "report.csv"
    report.write_text(report_from_cells(BENCH_A_ORIGINAL).to_csv())  # 3 tasks
    code = cli.main(
        [
            "uis",
            "--evaluated", str(report),
            "--original", str(report),
            "--retrain", str(report),
            "--setting", setting,
            "--forget-tasks", forget_tasks,
        ]
    )
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"forget_tasks: the {setting} setting" in captured.err
    assert captured.out == ""


def test_uis_command_rejects_non_utf8_csv(tmp_path, capsys):
    report = tmp_path / "report.csv"
    report.write_text(report_from_cells(BENCH_A_ORIGINAL).to_csv())
    broken = tmp_path / "broken.csv"
    broken.write_bytes(report.read_bytes() + b"0,ret,exp_neg_loss,0.9\xff\n")
    code = cli.main(
        [
            "uis",
            "--evaluated", str(broken),
            "--original", str(report),
            "--retrain", str(report),
            "--setting", "full",
        ]
    )
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"cannot read evaluated CSV {broken}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["generate", "run", "sweep", "verify"])
def test_out_naming_an_existing_file_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "cfg.json")
    taken = tmp_path / "taken"
    taken.write_text("kept")
    argv = {
        "generate": ["generate", "--config", str(cfg)],
        "run": ["run", "--config", str(cfg)],
        "sweep": ["sweep", "--config", str(cfg), "--ratios", "0.1"],
        "verify": ["verify", "--seed", "0"],
    }[command]
    assert cli.main([*argv, "--out", str(taken)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"--out {taken}: cannot create the output directory" in captured.err
    assert captured.out == ""
    assert taken.read_text() == "kept"


def test_sweep_single_ratio_and_dedup(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "sw"
    code = cli.main(
        ["sweep", "--config", str(cfg), "--ratios", "0.1,0.1", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "duplicate ratio" in captured.err
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the single deduplicated ratio
    # single-ratio sweep reproduces the plain run for that ratio
    run_out = tmp_path / "plain"
    cli.main(["run", "--config", str(cfg), "--out", str(run_out)])
    assert digest(out / "ratio_0.1" / "seed_0" / "uis.json") == digest(
        run_out / "seed_0" / "uis.json"
    )
    assert cli.main(
        ["sweep", "--config", str(cfg), "--ratios", "1.5", "--out", str(out)]
    ) == cli.EXIT_CONFIG


def test_sweep_ratio_that_forgets_every_instance_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "sw"
    code = cli.main(["sweep", "--config", str(cfg), "--ratios", "0.1,0.99", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "partition.forget_fraction: 0.99 forgets all 30 instances" in capsys.readouterr().err
    assert not out.exists()


def test_verify_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "ver"
    assert cli.main(["verify", "--seed", "0", "--out", str(out)]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["all_passed"] is True
    assert "pass" in capsys.readouterr().out


def test_verify_negative_seed_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "ver"
    assert cli.main(["verify", "--seed", "-1", "--out", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--seed must be >= 0, got -1" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_verify_detects_injected_sign_flip(tmp_path, capsys, monkeypatch):
    """A sign error in the orthogonalization update must fail verification."""
    true_orthogonalize = surgery.orthogonalize

    def flipped(g_f, g_r, eps=surgery.DEFAULT_EPS):
        correction = g_f - true_orthogonalize(g_f, g_r, eps)
        return g_f + correction

    monkeypatch.setattr(surgery, "orthogonalize", flipped)
    code = cli.main(["verify", "--seed", "0"])
    assert code == cli.EXIT_NUMERIC
    assert "orthogonalization_identity" in capsys.readouterr().err


def test_verify_detects_a_skipped_projection(capsys, monkeypatch):
    """A projection that returns the gradient unprojected must fail verification."""
    monkeypatch.setattr(surgery, "project_task", lambda grad, basis: grad)
    code = cli.main(["verify", "--seed", "0"])
    assert code == cli.EXIT_NUMERIC
    assert "projection_bound" in capsys.readouterr().err


DELETE = object()

# One field broken at a time: (path, value or DELETE, what stderr must say).
BAD_CONFIGS = [
    (("train", "epochs"), -3, r"train: epochs must be >= 1, got -3"),
    (("train", "epochs"), 0, r"train: epochs must be >= 1, got 0"),
    (("train", "step_size"), -0.1, r"train: step_size must be finite and > 0"),
    (("n_seeds",), 1.5, r"config\.n_seeds: expected int, got 1\.5"),
    (("train", "rank"), 2.7, r"train\.rank: expected int, got 2\.7"),
    (("unlearn", "eta_1"), 0.3, r"unlearn\.eta_1: unknown field"),
    (("unlearn", "reg_weight"), 1.0, r"unlearn\.reg_weight: unknown field"),
    (("data", "task_dims"), [0, 2], r"data: task_dims must all be >= 1"),
    (("data", "n_val"), 0, r"data: n_val must be >= 1"),
    (("unlearn", "eps"), "1e-8", r"unlearn\.eps: unknown field"),
    (("unlearn", "reg_step_size"), 0.001, r"unlearn\.reg_step_size: unknown field"),
    (("subspace", "mode"), "bogus", r"subspace: unknown mode 'bogus'"),
    (("unlearn", "eta1"), "x", r"unlearn\.eta1: expected float, got 'x'"),
    (("partition", "forget_tasks"), ["a"], r"partition\.forget_tasks\[0\]: expected int"),
    (("data", "task_dims"), ["a", 2], r"data\.task_dims\[0\]: expected int"),
    (("seed",), -1, r"seed must be >= 0, got -1"),
    (("data", "noise_std"), float("nan"), r"data\.noise_std: expected float, got .*'NaN'"),
    (("partition", "forget_tasks"), [5], r"partition\.forget_tasks: \[5\] not in \[0, 2\)"),
    (("subspace", "dim"), 9, r"subspace: need 1 <= dim <= rank, got dim=9, rank=2"),
    (("train", "init_scale"), float("inf"), r"train\.init_scale: unknown field"),
    (("data", "task_weights"), None, r"data\.task_weights: unknown field"),
    (("partition", "forget_fraction"), 1.5, r"partition: forget_fraction must be in \(0, 1\)"),
    (("partition", "forget_fraction"), DELETE, r"partition\.forget_fraction is required"),
    (("partition", "forget_fraction"), 0.99, r"partition\.forget_fraction: 0\.99 forgets all 30"),
    (("partition", "forget_tasks"), [], r"partition: forget_tasks must be nonempty"),
    (("n_seeds",), 0, r"config: n_seeds must be >= 1"),
    (("schema_version",), 2, r"config: unsupported schema_version 2"),
    (("unlearn", "strategy"), "bogus", r"unlearn: unknown strategy 'bogus'"),
    (("unlearn", "anchor_fraction"), 0.0, r"unlearn: anchor_fraction must be in \(0, 1\]"),
]


def set_path(doc, path, value):
    *parents, leaf = path
    for key in parents:
        doc = doc[key]
    if value is DELETE:
        del doc[leaf]
    else:
        doc[leaf] = value


@pytest.mark.parametrize(
    "path, value, message",
    BAD_CONFIGS,
    ids=[
        ".".join(p) + "=" + ("<deleted>" if v is DELETE else json.dumps(v))
        for p, v, _ in BAD_CONFIGS
    ],
)
def test_bad_config_exits_2_naming_the_field(tmp_path, capsys, path, value, message):
    doc = base_config()
    set_path(doc, path, value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_config_error_names_the_field_and_type_not_the_whole_value(tmp_path, capsys):
    doc = base_config()
    doc["data"]["noise_std"] = [0.3] * 200_000
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.encode()) < 1000
    assert re.search(r"data\.noise_std: expected float, got \[0\.3, .*\] \(list\)$", err)


@pytest.mark.parametrize("command", ["generate", "run"])
def test_overflowing_generator_exits_3_naming_the_field(tmp_path, capsys, command):
    # Finite, so the config takes it, but the targets' noise overflows. Any
    # numpy warning would be raised here rather than printed.
    doc = base_config()
    doc["data"]["noise_std"] = 1e308
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric failure: generate_synthetic: data.noise_std=1e+308 overflows the targets\n"
    )


def test_diverging_gradient_exits_3_naming_the_epoch(tmp_path, capsys):
    # Finite targets, so generate takes them, but the first training gradient
    # overflows; any numpy warning would be raised here rather than printed.
    doc = base_config()
    doc["data"]["noise_std"] = 1e200
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric failure: train_reference epoch 1: gradient norm inf\n"
    )


@pytest.mark.parametrize("field", ["eta1", "eta2"])
def test_overflowing_unlearning_step_exits_3_naming_the_epoch(tmp_path, capsys, field):
    # Finite, so the config takes it, but the first unlearning step overflows
    # the forget loss; any numpy warning would be raised here rather than printed.
    doc = base_config()
    doc["unlearn"][field] = 1e308
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric failure: run_unlearning epoch 1: forget_loss=inf\n"
    )


@pytest.mark.parametrize(
    "path",
    [
        ("data", "n_instances"),
        ("data", "input_dim"),
        ("data", "shared_dim"),
        ("data", "n_val"),
        ("train", "rank"),
        ("train", "epochs"),
        ("unlearn", "max_epochs"),
    ],
    ids=".".join,
)
def test_huge_size_or_epoch_count_exits_2_naming_the_field(tmp_path, capsys, path):
    # Checked before anything is allocated or any output directory is made.
    doc = base_config()
    set_path(doc, path, 10**30)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    section, name = path
    assert re.match(rf"config error: {section}(\.|: ){name}\b", err), err
    assert len(err.encode()) < 1000 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "path, value, width, rank",
    [
        (("data", "teacher_rank"), 1, 1, 1),
        (("train", "rank"), 1, 1, 1),
        (("subspace", "dim"), 2, 2, 2),
    ],
    ids=["teacher_rank=1", "rank=1", "dim=2"],
)
def test_a_layout_that_does_not_fit_names_dim_and_rank(tmp_path, capsys, path, value, width, rank):
    doc = base_config()
    set_path(doc, path, value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: subspace: 2 blocks of width {width} do not fit in rank {rank}: "
        "set subspace.dim or train.rank (train.rank defaults to data.teacher_rank)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("n_val", [1, 2])
def test_a_zero_reference_in_run_exits_3_naming_it(tmp_path, capsys, n_val):
    # With one or two validation instances, Retrain's forget-vs-validation AUC
    # can be 0. The seed fails before it writes anything.
    doc = base_config()
    doc["data"]["n_val"] = n_val
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric failure: seed 0: retrain_ref: zero reference for task 0 cell 'mia' "
        f"(3 forgotten and {n_val} validation instances)\n"
    )
    assert list(out.iterdir()) == []


def config_fields() -> list[tuple]:
    """The path of every settable field of a run config, top level last."""
    doc = cli.RunConfig.from_doc(base_config()).to_doc()
    sections = [(s, f) for s, node in doc.items() if isinstance(node, dict) for f in node]
    return sections + [(s,) for s, node in doc.items() if not isinstance(node, dict)]


# One bad, odd or edge value of each JSON type, set in turn on every field.
MUTATIONS = [0, -1, 1e308, float("nan"), "x", None, True, [], {}, 0.5, 1e-320, 1, 2]


def test_the_mutation_table_covers_every_settable_field():
    assert len(config_fields()) == 23


@pytest.mark.parametrize("path", config_fields(), ids=".".join)
def test_every_mutation_of_a_field_exits_0_2_or_3_with_a_short_message(tmp_path, path):
    for i, value in enumerate(MUTATIONS):
        doc = base_config()
        set_path(doc, path, value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / f"out{i}")])
        err = err.getvalue()
        case = f"{'.'.join(path)}={value!r}: exit {code}, stderr {err!r}"
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC), case
        assert len(err.encode()) < 1000 and "Traceback" not in err, case
        if code == cli.EXIT_CONFIG:
            assert path[0] in err and re.search(rf"\b{path[-1]}\b", err), case


def test_array_budget_holds_a_config_at_its_edge():
    # The most training instances the budget leaves room for pass; one more does not.
    doc = base_config()
    data, rank = doc["data"], 2  # rank: the teacher rank
    d, k, m = data["input_dim"], data["shared_dim"], data["task_dims"]
    fixed = 8 * (k * (d + sum(m)) + rank * (d + k) + len(m) * d * (d + max(m)))
    data["n_instances"] = (cli.MAX_ARRAY_BYTES - fixed) // (8 * (d + sum(m))) - data["n_val"]
    cli.RunConfig.from_doc(doc)
    data["n_instances"] += 1
    with pytest.raises(ConfigError, match=r"^data\.n_instances: \d+ is too large"):
        cli.RunConfig.from_doc(doc)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_huge_seed_count_exits_2_naming_n_seeds(tmp_path, capsys, command):
    # Checked before the first seed runs: no seed_N/ or any other output.
    cfg = write_config(tmp_path / "cfg.json", n_seeds=10**30)
    out = tmp_path / "out"
    extra = ["--ratios", "0.1"] if command == "sweep" else []
    assert cli.main([command, "--config", str(cfg), "--out", str(out), *extra]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: config: n_seeds must be <= {cli.MAX_SEEDS}, got {10**30}\n"
    assert len(err.encode()) < 1000 and "Traceback" not in err
    assert not out.exists()


def test_seed_bound_holds_a_config_at_its_edge():
    cli.RunConfig.from_doc(dict(base_config(), n_seeds=cli.MAX_SEEDS))
    with pytest.raises(ConfigError, match=r"^config: n_seeds must be <= \d+, got \d+$"):
        cli.RunConfig.from_doc(dict(base_config(), n_seeds=cli.MAX_SEEDS + 1))


# Runs ``cli.main`` on its arguments (none: the import alone) in a fresh
# interpreter, then prints the exit code and whether scipy.linalg was loaded.
SCIPY_PROBE = (
    "import sys\n"
    "from mtunlearn import cli\n"
    "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(code, 'scipy.linalg' in sys.modules)\n"
)


def test_only_verify_imports_scipy(tmp_path):
    # One fresh interpreter per case: this process has scipy loaded already.
    cfg = write_config(tmp_path / "cfg.json")
    seed_dir = tmp_path / "run" / "seed_0"  # the run case's output, which the uis case reads
    reports = (("evaluated", "unlearned"), ("original", "original"), ("retrain", "retrain"))
    uis = [f"--{flag}={seed_dir / f'eval_{name}.csv'}" for flag, name in reports]
    cases = [
        ([], "0 False"),
        (["generate", "--config", str(cfg), "--out", str(tmp_path / "gen")], "0 False"),
        (["run", "--config", str(cfg), "--out", str(tmp_path / "run")], "0 False"),
        (["uis", *uis, "--setting", "partial", "--forget-tasks", "0"], "0 False"),
        (["verify", "--seed", "0"], "0 True"),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    for argv, expected in cases:
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, *argv],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.stdout.splitlines()[-1] == expected, (argv, proc.stderr)


def test_generate_and_run_write_the_same_dataset_without_n_val(tmp_path):
    # With and without n_val, generate on every checkpoint's config echo writes
    # the dataset.json that generate writes from the config itself.
    for n_val in (20, None):
        doc = base_config()
        if n_val is None:
            del doc["data"]["n_val"]
        cfg = tmp_path / f"cfg_{n_val}.json"
        cfg.write_text(json.dumps(doc))
        gen, run = tmp_path / f"g_{n_val}", tmp_path / f"r_{n_val}"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(gen)]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(run)]) == 0
        generated = (gen / "dataset.json").read_bytes()
        assert json.loads(generated)["config"]["n_val"] == (n_val or 50)
        for name in ("original", "retrain", "unlearned"):
            checkpoint = json.loads((run / "seed_0" / f"checkpoint_{name}.json").read_text())
            assert "dataset_digest" not in checkpoint
            echo, again = tmp_path / f"echo_{n_val}_{name}.json", tmp_path / f"g_{n_val}_{name}"
            echo.write_text(json.dumps(checkpoint["config"]))
            assert cli.main(["generate", "--config", str(echo), "--out", str(again)]) == 0
            assert (again / "dataset.json").read_bytes() == generated


def test_run_from_manifest_config_reproduces_digests(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", n_seeds=2)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    first = json.loads((tmp_path / "a" / "manifest.json").read_text())
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(first["config"]))
    assert cli.main(["run", "--config", str(echo), "--out", str(tmp_path / "b")]) == 0
    second = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert second["outputs"] == first["outputs"]
    assert second["config"] == first["config"]


def test_seed_checkpoint_echoes_its_own_seed_and_reproduces(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", n_seeds=2)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    checkpoint = tmp_path / "a" / "seed_1" / "checkpoint_unlearned.json"
    echo = json.loads(checkpoint.read_text())["config"]
    assert (echo["seed"], echo["n_seeds"]) == (1, 1)
    first = json.loads((tmp_path / "a" / "seed_0" / "checkpoint_unlearned.json").read_text())
    assert (first["config"]["seed"], first["config"]["n_seeds"]) == (0, 1)
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echo))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    again = tmp_path / "b" / "seed_1" / "checkpoint_unlearned.json"
    assert again.read_bytes() == checkpoint.read_bytes()


def test_echoed_setting_must_match_forget_tasks():
    # The setting follows from partition.forget_tasks, so the echo leaves it out.
    cfg = cli.RunConfig.from_doc(base_config())
    doc = cfg.to_doc()
    assert "setting" not in doc["unlearn"] and cfg.unlearn.setting == "partial"
    for setting in ("partial", "full"):
        doc["unlearn"]["setting"] = setting
        with pytest.raises(ConfigError, match=r"^unlearn\.setting: unknown field$"):
            cli.RunConfig.from_doc(doc)


def readme_config_fields() -> list[str]:
    """The names in the first column of the README's "Every field" table; a
    bare name inherits the section prefix of the name before it in its cell."""
    lines = README.split("Every field:", 1)[1].strip().splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines)
    fields = []
    for row in list(rows)[2:]:  # after the header and the separator
        prefix = ""
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            if "." in name:
                prefix = name.rsplit(".", 1)[0] + "."
            fields.append(name if "." in name else prefix + name)
    return fields


def test_readme_field_table_lists_every_config_field():
    doc = cli.RunConfig.from_doc(base_config()).to_doc()
    keys = []
    for key, value in doc.items():
        keys += [f"{key}.{name}" for name in value] if isinstance(value, dict) else [key]
    fields = readme_config_fields()
    assert len(fields) == len(set(fields))
    assert sorted(fields) == sorted(keys)


# Any JSON value, or one close enough to a valid field value to be accepted.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
) | st.one_of(
    st.integers(0, 8),
    st.floats(0, 1),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.sampled_from(["random", "disjoint-blocks", "ours", "wo_task", "full", "partial"]),
)
FIELD_NAMES = st.sampled_from(["rank", "dim", "eta2", "seed", "n_val", "task_weights", "setting"])


def paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from paths(child, prefix + (key,))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_configs(draw):
    """The test config with one to three keys deleted, added or set to a JSON value."""
    doc = base_config()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "add", "set"]))
        if kind == "add":
            parents = [p for p in paths(doc) if isinstance(node_at(doc, p), dict)]
            path = draw(st.sampled_from(parents)) + (draw(FIELD_NAMES | st.text(max_size=8)),)
        else:
            path = draw(st.sampled_from(list(paths(doc))[1:]))
        if kind == "delete":
            node = node_at(doc, path[:-1])
            del node[path[-1]]
        else:
            set_path(doc, path, draw(JSON_VALUES))
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=mutated_configs())
def test_fuzzed_config_is_rejected_or_round_trips(doc):
    try:
        cfg = cli.RunConfig.from_doc(doc)
    except ConfigError:
        return
    assert cli.RunConfig.from_doc(json.loads(json.dumps(cfg.to_doc()))) == cfg


VALID_CSV = report_from_cells(BENCH_A_ORIGINAL).to_csv()


@st.composite
def fuzzed_csvs(draw):
    """A valid 3-task report CSV with up to three lines or cells replaced."""
    lines = VALID_CSV.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["line", "cell", "delete", "duplicate"]))
        if kind == "line":
            lines[i] = draw(st.text(max_size=20))
        elif kind == "cell":
            cells = lines[i].split(",")
            number = st.floats().map(repr) | st.integers().map(str)
            cells[draw(st.integers(0, len(cells) - 1))] = draw(number | st.text(max_size=6))
            lines[i] = ",".join(cells)
        elif kind == "delete" and len(lines) > 1:
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    texts=st.tuples(fuzzed_csvs(), fuzzed_csvs(), fuzzed_csvs()),
    setting=st.sampled_from(["full", "partial"]),
    forget_tasks=st.sampled_from(["", "0", "1,2", "3", "x"]),
)
def test_uis_on_fuzzed_csv_exits_0_2_or_3(tmp_path_factory, texts, setting, forget_tasks):
    d = tmp_path_factory.getbasetemp() / "uis_fuzz"
    d.mkdir(exist_ok=True)
    paths_ = []
    for name, text in zip(("evaluated", "original", "retrain"), texts):
        (d / f"{name}.csv").write_text(text)
        paths_ += [f"--{name}", str(d / f"{name}.csv")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["uis", *paths_, "--setting", setting, "--forget-tasks", forget_tasks])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC)
