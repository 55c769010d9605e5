import contextlib
import hashlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchdata import BENCH_A_ORIGINAL, report_from_cells
from mtunlearn import LowRankEdit, MultiTaskModel, cli, init_subspaces, surgery
from mtunlearn.data import decode_array, encode_array
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


def test_run_artifacts_and_rerun_digest_equality(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    # Eval reports are CSV only; no JSON twin.
    assert sorted(p.name for p in (out1 / "seed_0").iterdir()) == [
        "checkpoint_original.json",
        "checkpoint_retrain.json",
        "checkpoint_unlearned.json",
        "dataset.json",
        "eval_original.csv",
        "eval_retrain.csv",
        "eval_unlearned.csv",
        "trace.json",
        "uis.json",
    ]
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    # manifest digests verify against the files on disk
    for rel, expected in m1["outputs"].items():
        assert digest(out1 / rel) == expected


def test_checkpoint_round_trip(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "r"
    cli.main(["run", "--config", str(cfg), "--out", str(out)])
    for name in ("original", "retrain", "unlearned"):
        text = (out / "seed_0" / f"checkpoint_{name}.json").read_text()
        assert cli.checkpoint_to_json(*cli.checkpoint_from_json(text)) == text


def random_checkpoint():
    """Checkpoint text, model and random-mode (dense) subspace bases for 3 tasks, r = 4."""
    doc = base_config()
    doc["data"].update(n_tasks=3, task_dims=[2, 2, 2])  # input_dim 6, shared_dim 5
    doc["train"]["rank"] = 4
    doc["subspace"] = {"dim": 2, "mode": "random"}
    echo = cli.RunConfig.from_doc(doc).to_doc()
    rng = np.random.default_rng(0)
    edit = LowRankEdit(
        w_star=rng.standard_normal((6, 5)),
        a=rng.standard_normal((5, 4)),
        b=rng.standard_normal((6, 4)),
    )
    model = MultiTaskModel(edit=edit, heads=tuple(rng.standard_normal((2, 5)) for _ in range(3)))
    bases = init_subspaces(3, rank=4, dim=2, mode="random", seed=0)
    return cli.checkpoint_to_json(model, bases, "digest", echo), model, bases


def test_checkpoint_round_trip_keeps_random_bases():
    text, model, bases = random_checkpoint()
    loaded, loaded_bases, digest_, echo = cli.checkpoint_from_json(text)
    for name in ("w_star", "a", "b"):
        assert np.array_equal(getattr(loaded.edit, name), getattr(model.edit, name))
    assert all(np.array_equal(h, g) for h, g in zip(loaded.heads, model.heads, strict=True))
    assert loaded_bases.shape == (3, 4, 2) and np.array_equal(loaded_bases, bases)
    assert digest_ == "digest" and echo == json.loads(text)["config"]
    assert cli.checkpoint_to_json(loaded, loaded_bases, digest_, echo) == text


@pytest.mark.parametrize("scale", [1.0 + 1e-6, 0.0, float("nan")])
def test_checkpoint_rejects_corrupted_basis_naming_the_task(scale):
    text, _, _ = random_checkpoint()
    doc = json.loads(text)
    q = decode_array(doc["subspace_bases"][1], "basis", (4, 2))
    q[2, 0] *= scale
    doc["subspace_bases"][1] = encode_array(q)
    with pytest.raises(ConfigError, match=r"subspace_bases\[1\]"):
        cli.checkpoint_from_json(json.dumps(doc))


def _as_version_1(doc):
    """The decimal-list layout of checkpoint schema version 1."""
    for key in ("w_star", "a", "b"):
        doc[key] = decode_array(doc[key], key, doc[key]["shape"]).tolist()
    for key in ("heads", "subspace_bases"):
        doc[key] = [decode_array(n, key, n["shape"]).tolist() for n in doc[key]]
    doc["schema_version"] = 1


def _nan_in_a(doc):
    a = decode_array(doc["a"], "a", (5, 4))
    a[1, 2] = np.nan
    doc["a"] = encode_array(a)


def edited(change):
    """A text edit that applies ``change`` to the parsed checkpoint in place."""

    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)

    return edit


# One checkpoint field broken at a time: (edit of the checkpoint text, what the error says).
BAD_CHECKPOINTS = {
    "truncated JSON": (lambda text: text[: len(text) // 2], r"checkpoint is not valid JSON"),
    "not an object": (lambda text: "[1, 2]", r"unsupported checkpoint schema_version None"),
    "version 1": (edited(_as_version_1), r"unsupported checkpoint schema_version 1"),
    "missing a": (
        edited(lambda doc: doc.pop("a")),
        r"checkpoint a: expected an encoded array object",
    ),
    "NaN in a": (edited(_nan_in_a), r"checkpoint a: 1 non-finite entries"),
    "head of wrong width": (
        edited(lambda doc: doc["heads"].__setitem__(1, encode_array(np.zeros((1, 2))))),
        r"checkpoint heads\[1\]: shape \[1, 2\] != \[2, 5\]",
    ),
    "heads not a list": (
        edited(lambda doc: doc.update(heads={"0": doc["heads"][0]})),
        r"checkpoint heads: expected a list of 3 arrays",
    ),
    "one basis for 3 tasks": (
        edited(lambda doc: doc["subspace_bases"].pop()),
        r"checkpoint subspace_bases: expected a list of 3 arrays",
    ),
    "config echo lacks a field": (
        edited(lambda doc: doc["config"]["data"].pop("teacher_rank")),
        r"checkpoint config: data: missing or invalid 'teacher_rank'",
    ),
    "config echo shape mismatch": (
        edited(lambda doc: doc["config"]["train"].update(rank=3)),
        r"checkpoint a: shape \[5, 4\] != \[5, 3\]",
    ),
    "digest not a string": (
        edited(lambda doc: doc.pop("dataset_digest")),
        r"checkpoint dataset_digest: expected a string, got None",
    ),
}


@pytest.mark.parametrize("edit, message", BAD_CHECKPOINTS.values(), ids=BAD_CHECKPOINTS)
def test_checkpoint_rejects_malformed_field_naming_it(edit, message):
    text, _, _ = random_checkpoint()
    with pytest.raises(ConfigError, match=message):
        cli.checkpoint_from_json(edit(text))


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
    # manifest and summary, then per seed: 3 checkpoints, dataset, trace and uis
    assert len(artifacts) == 2 + 2 * 6
    for path in artifacts:
        json.loads(path.read_text(), parse_constant=_reject_constant)
    assert json.loads((out / "seed_1" / "uis.json").read_text())["clean_loss"] is None
    summary = json.loads((out / "summary.json").read_text())
    assert summary["clean_loss"] == {"mean": None, "stddev": None}
    header, *rows = (out / "seeds.csv").read_text().splitlines()
    column = header.split(",").index("clean_loss")
    assert [row.split(",")[column] for row in rows] == ["", ""]


def test_strategy_flag_changes_run(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "ours", tmp_path / "ng"
    cli.main(["run", "--config", str(cfg), "--out", str(out1)])
    cli.main(
        ["run", "--config", str(cfg), "--out", str(out2), "--strategy", "neggrad_plus"]
    )
    assert digest(out1 / "seed_0" / "checkpoint_unlearned.json") != digest(
        out2 / "seed_0" / "checkpoint_unlearned.json"
    )
    assert cli.main(
        ["run", "--config", str(cfg), "--out", str(tmp_path / "x"), "--strategy", "bogus"]
    ) == cli.EXIT_CONFIG


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


@pytest.mark.parametrize("n_bytes", [0, 5 * cli.HASH_CHUNK_BYTES // 2])
def test_sha256_of_file_hashes_in_chunks_to_the_whole_file_digest(tmp_path, n_bytes):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(n_bytes).bytes(n_bytes))
    assert cli.sha256_of_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


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
    (("unlearn", "eps"), "1e-8", r"unlearn\.eps: expected float, got '1e-8'"),
    (("subspace", "mode"), "bogus", r"subspace: unknown mode 'bogus'"),
    (("unlearn", "eta1"), "x", r"unlearn\.eta1: expected float, got 'x'"),
    (("partition", "forget_tasks"), ["a"], r"partition\.forget_tasks\[0\]: expected int"),
    (("data", "task_dims"), ["a", 2], r"data\.task_dims\[0\]: expected int"),
    (("seed",), -1, r"seed must be >= 0, got -1"),
    (("data", "noise_std"), float("nan"), r"data\.noise_std: expected float, got .*'NaN'"),
    (("partition", "forget_tasks"), [5], r"partition\.forget_tasks: \[5\] not in \[0, 2\)"),
    (("subspace", "dim"), 9, r"subspace: need 1 <= dim <= rank, got dim=9, rank=2"),
    (("train", "init_scale"), float("inf"), r"train\.init_scale: expected float, got .*'Infinity'"),
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


def test_generate_and_run_write_the_same_dataset_without_n_val(tmp_path):
    doc = base_config()
    del doc["data"]["n_val"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    generated = tmp_path / "g" / "dataset.json"
    assert digest(generated) == digest(tmp_path / "r" / "seed_0" / "dataset.json")
    assert json.loads(generated.read_text())["config"]["n_val"] == 50


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
    doc = cli.RunConfig.from_doc(base_config()).to_doc()
    assert doc["unlearn"]["setting"] == "partial"
    doc["unlearn"]["setting"] = "full"
    with pytest.raises(ConfigError, match=r"unlearn\.setting: .*forget_tasks select 'partial'"):
        cli.RunConfig.from_doc(doc)


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
