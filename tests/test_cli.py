import hashlib
import json

import numpy as np
import pytest

from benchdata import BENCH_A_ORIGINAL, report_from_cells
from mtunlearn import MultiTaskModel, cli, init_subspaces, surgery
from mtunlearn.errors import ConfigError
from mtunlearn.model import zero_init_edit


def write_config(path, **overrides):
    doc = {
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


def test_run_artifacts_and_rerun_digest_equality(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in (
        "dataset.json",
        "checkpoint_original.json",
        "checkpoint_retrain.json",
        "checkpoint_unlearned.json",
        "eval_original.csv",
        "eval_unlearned.json",
        "trace.json",
        "uis.json",
    ):
        assert (out1 / "seed_0" / name).exists()
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
    text = (out / "seed_0" / "checkpoint_unlearned.json").read_text()
    model, subspaces, doc = cli.checkpoint_from_json(text)
    again = cli.checkpoint_to_json(model, subspaces, doc["dataset_digest"], doc["config"])
    assert again == text


def random_checkpoint():
    """Checkpoint text for a small model with random-mode (dense) subspace bases."""
    rng = np.random.default_rng(0)
    edit = zero_init_edit(rng.standard_normal((6, 5)), rank=4, seed=0)
    model = MultiTaskModel(edit=edit, heads=(rng.standard_normal((2, 5)),) * 3)
    subspaces = init_subspaces(3, rank=4, dim=2, mode="random", seed=0)
    return cli.checkpoint_to_json(model, subspaces, "digest", {"seed": 0}), subspaces


def test_checkpoint_round_trip_keeps_random_bases():
    text, subspaces = random_checkpoint()
    model, loaded, doc = cli.checkpoint_from_json(text)
    for s, t in zip(subspaces, loaded):
        assert np.array_equal(s.basis, t.basis) and s.task_id == t.task_id
    assert cli.checkpoint_to_json(model, loaded, doc["dataset_digest"], doc["config"]) == text


@pytest.mark.parametrize("scale", [1.0 + 1e-6, 0.0, float("nan")])
def test_checkpoint_rejects_corrupted_basis_naming_the_task(scale):
    text, _ = random_checkpoint()
    doc = json.loads(text)
    doc["subspace_bases"][1][2][0] *= scale
    with pytest.raises(ConfigError, match=r"subspace_bases\[1\]"):
        cli.checkpoint_from_json(json.dumps(doc))


def test_run_multi_seed_summary(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", n_seeds=2)
    out = tmp_path / "multi"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "seeds.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header plus one row per seed
    summary = json.loads((out / "summary.json").read_text())
    assert "uis" in summary and "mean" in summary["uis"] and "stddev" in summary["uis"]


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


def test_env_var_overrides_out(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json")
    override = tmp_path / "env_out"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(override))
    assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "ignored")]) == 0
    assert (override / "dataset.json").exists()
    assert not (tmp_path / "ignored").exists()


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


def test_verify_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "ver"
    assert cli.main(["verify", "--seed", "0", "--out", str(out)]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["all_passed"] is True
    assert "pass" in capsys.readouterr().out


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
