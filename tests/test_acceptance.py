"""Acceptance suite: pinned tolerances for every release-gating property."""

import numpy as np
import pytest

from benchdata import all_cases
from conftest import fd_gradient, fd_hessian_from_gradient
from mtunlearn import (
    GenConfig,
    TrainConfig,
    UnlearnConfig,
    cli,
    default_forget_split,
    flattened_hessian,
    generate_synthetic,
    init_subspaces,
    run_unlearning,
    subset_gradient,
    subset_loss,
    train_reference,
)
from mtunlearn.evaluation import evaluate
from mtunlearn.theory import (
    check_aggregation_linearity,
    check_first_order_interference,
    check_optimal_direction,
    check_orthogonalization_identity,
    check_projection_bound,
)


# --- impact-score regression against published benchmark cells -------------

@pytest.mark.parametrize(
    "evaluated,original,retrain,setting,forget_tasks,expected",
    list(all_cases()),
    ids=[f"case{i}" for i in range(7)],
)
def test_impact_score_regression_via_cli(
    tmp_path, capsys, evaluated, original, retrain, setting, forget_tasks, expected
):
    paths = {}
    for name, rep in (
        ("evaluated", evaluated),
        ("original", original),
        ("retrain", retrain),
    ):
        path = tmp_path / f"{name}.csv"
        path.write_text(rep.to_csv())
        paths[name] = str(path)
    args = [
        "uis",
        "--evaluated", paths["evaluated"],
        "--original", paths["original"],
        "--retrain", paths["retrain"],
        "--setting", setting,
    ]
    if setting == "partial":
        args += ["--forget-tasks", ",".join(str(t) for t in sorted(forget_tasks))]
    assert cli.main(args) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("%")
    value = float(printed.rstrip("%"))
    assert abs(value - expected) <= 1.0  # percentage points


# --- first-order interference prediction -----------------------------------

def test_first_order_interference_prediction():
    result = check_first_order_interference(n_instances_checked=20, rho=0.01)
    assert result["worst_relative_error"] <= 0.10
    assert result["min_slope"] >= 1.7
    assert result["passed"]


def test_interference_aggregation_linearity():
    result = check_aggregation_linearity()
    assert result["worst_deviation"] <= 1e-10
    assert result["passed"]


# --- constrained optimal update --------------------------------------------

def test_optimal_update_beats_constraint_plane_samples():
    result = check_optimal_direction(n_instances_checked=20, n_samples=1000)
    assert result["sample_violations"] == 0
    assert result["raw_strictly_worse"]
    assert result["eigenvector_gap_max"] <= 1e-10
    assert result["passed"]


# --- projected-gradient inner-product bound --------------------------------

def test_projected_gradient_alignment_bound():
    result = check_projection_bound(n_draws=1000)
    assert result["draws"] >= 1000
    assert result["worst_excess"] <= 1e-9
    assert result["passed"]


# --- orthogonalization residual identity -----------------------------------

def test_orthogonalization_residual_identity():
    result = check_orthogonalization_identity(n_draws=1000)
    assert result["worst_relative_deviation"] <= 1e-10
    assert result["worst_exact_alignment"] <= 1e-12
    assert result["passed"]


# --- analytic gradient and Hessian correctness -----------------------------

def test_gradients_match_central_differences_20_configs(small_problem):
    ds = small_problem.dataset
    rng = np.random.default_rng(123)
    from test_model import make_model

    for trial in range(20):
        rank = int(rng.integers(1, 4))
        model = make_model(small_problem, rank=rank, seed=100 + trial)
        pairs = [
            (int(rng.integers(0, ds.n_instances)), int(rng.integers(0, ds.n_tasks)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        ga, gb = subset_gradient(model, ds, pairs)
        analytic = np.concatenate([ga.ravel(), gb.ravel()])
        numeric = fd_gradient(model, ds, pairs)
        denom = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom <= 1e-5


def test_hessian_symmetric_and_matches_differentiated_gradients(small_problem):
    from test_model import make_model

    ds = small_problem.dataset
    model = make_model(small_problem, rank=2, seed=9)
    pairs = [(0, 0), (1, 1), (3, 2), (5, 0), (9, 1)]
    h = flattened_hessian(model, ds, pairs)
    assert np.max(np.abs(h - h.T)) <= 1e-8
    numeric = fd_hessian_from_gradient(model, ds, pairs)
    assert np.linalg.norm(h - numeric) / np.linalg.norm(numeric) <= 1e-4


# --- end-to-end unlearning property suite ----------------------------------

N_SEEDS = 10


@pytest.fixture(scope="module")
def endtoend_results():
    """Partial-task unlearning on 10 seeded benchmarks: N=200, d=16, K=3."""
    rows = []
    for seed in range(N_SEEDS):
        cfg = GenConfig(
            n_instances=200,
            input_dim=16,
            n_tasks=3,
            task_dims=(2, 2, 2),
            shared_dim=12,
            teacher_rank=6,
            noise_std=0.3,
            seed=seed,
            n_val=100,
        )
        problem = generate_synthetic(cfg)
        ds = problem.dataset
        part = default_forget_split(ds, 0.10, [0], seed=seed)
        tc = TrainConfig(epochs=400, step_size=0.3, seed=seed)
        original = train_reference(problem, ds.all_pairs(), tc)
        retrain = train_reference(problem, list(part.retain), tc)
        subspaces = init_subspaces(3, rank=6, dim=2, mode="random", seed=seed)
        base = dict(
            setting="partial",
            eta1=0.3,
            eta2=0.05,
            max_epochs=20,
            anchor_fraction=1.0,
            seed=seed,
        )
        model, trace = run_unlearning(
            original, problem, part, subspaces, UnlearnConfig(**base), retrain
        )
        ablated, _ = run_unlearning(
            original, problem, part, subspaces,
            UnlearnConfig(strategy="wo_task", **base), retrain,
        )
        auc_original = evaluate(original, ds, part, problem.val_dataset).mia_unl[0]
        rows.append(
            {
                "forget_start": trace.records[0].forget_loss,
                "forget_end": trace.records[trace.selected_epoch].forget_loss,
                "clean_original": subset_loss(original, ds, part.retain_clean),
                "clean_unlearned": subset_loss(model, ds, part.retain_clean),
                "clean_ablated": subset_loss(ablated, ds, part.retain_clean),
                "auc_original": auc_original,
                "auc_unlearned": trace.records[trace.selected_epoch].mia_auc,
                "auc_retrain": trace.reference_auc,
            }
        )
    return rows


def test_forget_loss_increases(endtoend_results):
    wins = sum(r["forget_end"] > r["forget_start"] for r in endtoend_results)
    assert wins >= 9


def test_clean_retain_loss_stays_close_to_original(endtoend_results):
    wins = sum(
        abs(r["clean_unlearned"] - r["clean_original"]) <= 0.10 * r["clean_original"]
        for r in endtoend_results
    )
    assert wins >= 9


def test_membership_auc_moves_toward_retrain(endtoend_results):
    wins = sum(
        abs(r["auc_unlearned"] - r["auc_retrain"])
        < abs(r["auc_original"] - r["auc_retrain"])
        for r in endtoend_results
    )
    assert wins >= 8


def test_ablation_without_task_degrades_clean_more(endtoend_results):
    wins = sum(
        r["clean_ablated"] > r["clean_unlearned"] for r in endtoend_results
    )
    assert wins >= 8


# --- determinism ------------------------------------------------------------

def test_cli_run_is_deterministic(tmp_path):
    import json

    from test_cli import write_config

    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    d1 = json.loads((out1 / "manifest.json").read_text())["outputs"]
    d2 = json.loads((out2 / "manifest.json").read_text())["outputs"]
    assert d1 == d2
