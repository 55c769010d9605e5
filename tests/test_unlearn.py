import numpy as np
import pytest

from conftest import count_cell_factors, count_stacks
from mtunlearn import (
    GenConfig,
    TrainConfig,
    UnlearnConfig,
    generate_synthetic,
    init_subspaces,
    partition,
    regularize_step,
    run_unlearning,
    train_reference,
)
from mtunlearn.errors import ConfigError, DimensionError, EmptySubsetError, StepSizeError
from mtunlearn import mia_auc, unlearn
from mtunlearn.unlearn import STRATEGIES


@pytest.fixture(scope="module")
def pipeline():
    cfg = GenConfig(
        n_instances=40,
        input_dim=8,
        n_tasks=3,
        task_dims=(2, 2, 2),
        shared_dim=6,
        teacher_rank=3,
        noise_std=0.2,
        seed=1,
        n_val=30,
    )
    problem = generate_synthetic(cfg)
    ds = problem.dataset
    part_partial = partition(ds, [0, 1, 2, 3], [0])
    part_full = partition(ds, [0, 1, 2, 3], [0, 1, 2])
    tc = TrainConfig(epochs=200, step_size=0.3, seed=1)
    original = train_reference(problem, ds.all_pairs(), tc)
    retrain_partial = train_reference(problem, list(part_partial.retain), tc)
    retrain_full = train_reference(problem, list(part_full.retain), tc)
    subspaces = init_subspaces(3, rank=3, dim=1)
    return problem, part_partial, part_full, original, retrain_partial, retrain_full, subspaces


def test_config_validation():
    with pytest.raises(ConfigError):
        UnlearnConfig(setting="weird")
    with pytest.raises(ConfigError):
        UnlearnConfig(setting="full", strategy="nope")
    with pytest.raises(ConfigError):
        UnlearnConfig(setting="full", eta1=-1.0)
    with pytest.raises(ConfigError):
        UnlearnConfig(setting="full", anchor_fraction=0.0)
    with pytest.raises(ConfigError):
        UnlearnConfig(setting="full", max_epochs=0)


def test_setting_must_match_partition(pipeline):
    problem, part_partial, part_full, original, retrain_p, retrain_f, subs = pipeline
    with pytest.raises(ConfigError):
        run_unlearning(
            original, problem, part_partial, subs,
            UnlearnConfig(setting="full"), retrain_p,
        )
    with pytest.raises(ConfigError):
        run_unlearning(
            original, problem, part_full, subs,
            UnlearnConfig(setting="partial"), retrain_f,
        )


def test_empty_forget_rejected(pipeline):
    problem, part_partial, *_ , subs = pipeline
    original, retrain = pipeline[3], pipeline[4]
    empty = partition(problem.dataset, [], [0])
    with pytest.raises(EmptySubsetError):
        run_unlearning(
            original, problem, empty, subs,
            UnlearnConfig(setting="partial"), retrain,
        )


def test_empty_retain_rejected(pipeline):
    problem, *_ , subs = pipeline
    original, retrain = pipeline[3], pipeline[5]
    ds = problem.dataset
    everything = partition(ds, range(ds.n_instances), range(ds.n_tasks))
    with pytest.raises(EmptySubsetError, match="retain set is empty"):
        run_unlearning(
            original, problem, everything, subs,
            UnlearnConfig(setting="full"), retrain,
        )


def test_partial_run_structure_and_determinism(pipeline):
    problem, part, _, original, retrain, _, subs = pipeline
    cfg = UnlearnConfig(setting="partial", eta1=0.3, eta2=0.05, max_epochs=8, seed=2)
    m1, t1 = run_unlearning(original, problem, part, subs, cfg, retrain)
    m2, t2 = run_unlearning(original, problem, part, subs, cfg, retrain)
    assert np.array_equal(m1.edit.a, m2.edit.a)
    assert np.array_equal(m1.edit.b, m2.edit.b)
    assert t1.selected_epoch == t2.selected_epoch
    assert len(t1.records) == 9  # epoch 0 plus max_epochs
    assert 1 <= t1.selected_epoch <= 8
    # partial-task runs track all three retain subsets
    rec = t1.records[1]
    assert rec.clean_loss is not None
    assert rec.inst_loss is not None
    assert rec.task_loss is not None
    assert 0.0 <= rec.mia_auc <= 1.0


def test_base_weight_is_frozen_and_matches_original(pipeline):
    problem, part, _, original, retrain, _, subs = pipeline
    cfg = UnlearnConfig(setting="partial", eta1=0.3, eta2=0.05, max_epochs=4)
    model, _ = run_unlearning(original, problem, part, subs, cfg, retrain)
    assert np.allclose(model.edit.w_star, original.edit.effective_weight)
    for h_new, h_old in zip(model.heads, original.heads):
        assert np.array_equal(h_new, h_old)


def test_selected_epoch_minimizes_auc_gap(pipeline):
    problem, part, _, original, retrain, _, subs = pipeline
    cfg = UnlearnConfig(setting="partial", eta1=0.3, eta2=0.05, max_epochs=8)
    _, trace = run_unlearning(original, problem, part, subs, cfg, retrain)
    gaps = [abs(r.mia_auc - trace.reference_auc) for r in trace.records[1:]]
    assert gaps[trace.selected_epoch - 1] == min(gaps)


def test_full_task_run(pipeline):
    problem, _, part, original, _, retrain, subs = pipeline
    cfg = UnlearnConfig(setting="full", eta1=0.3, eta2=0.05, max_epochs=6)
    model, trace = run_unlearning(original, problem, part, subs, cfg, retrain)
    # full-task partitions have no clean or task subsets
    rec = trace.records[1]
    assert rec.clean_loss is None
    assert rec.task_loss is None
    assert rec.inst_loss is not None
    assert np.all(np.isfinite(model.edit.a))


@pytest.mark.parametrize("strategy", [s for s in STRATEGIES if s != "ours"])
def test_all_strategies_run(pipeline, strategy):
    problem, part, _, original, retrain, _, subs = pipeline
    cfg = UnlearnConfig(
        setting="partial", eta1=0.3, eta2=0.05, max_epochs=4, strategy=strategy
    )
    model, trace = run_unlearning(original, problem, part, subs, cfg, retrain)
    assert np.all(np.isfinite(model.edit.b))
    assert len(trace.records) == 5


def test_strategies_differ_from_ours(pipeline):
    problem, part, _, original, retrain, _, subs = pipeline
    results = {}
    for strategy in ("ours", "neggrad_plus", "wo_projection"):
        cfg = UnlearnConfig(
            setting="partial", eta1=0.3, eta2=0.05, max_epochs=4, strategy=strategy
        )
        model, _ = run_unlearning(original, problem, part, subs, cfg, retrain)
        results[strategy] = model.edit.b
    assert not np.allclose(results["ours"], results["neggrad_plus"])
    assert not np.allclose(results["ours"], results["wo_projection"])


@pytest.mark.parametrize(
    "strategy, expected_calls", [("ours", 4), ("neggrad_plus", 0), ("wo_projection", 0)]
)
def test_subspaces_regularized_only_when_projecting(pipeline, monkeypatch, strategy, expected_calls):
    problem, part, _, original, retrain, _, subs = pipeline
    calls = []

    def counting(*args):
        calls.append(args)
        return regularize_step(*args)

    monkeypatch.setattr(unlearn, "regularize_step", counting)
    cfg = UnlearnConfig(
        setting="partial", eta1=0.3, eta2=0.05, max_epochs=4, strategy=strategy
    )
    run_unlearning(original, problem, part, subs, cfg, retrain)
    assert len(calls) == expected_calls


def test_validation_set_is_required(pipeline):
    # run_unlearning reads the validation set unchecked: a problem without
    # one is refused when it is built.
    problem = pipeline[0]
    with pytest.raises(ConfigError, match=r"^val_dataset is required"):
        type(problem)(
            dataset=problem.dataset,
            val_dataset=None,
            heads=problem.heads,
            teacher=problem.teacher,
            config=problem.config,
        )


@pytest.mark.parametrize("strategy", ["ours", "neggrad_plus", "wo_projection"])
def test_basis_count_must_match_the_task_count(pipeline, monkeypatch, strategy):
    problem, part, _, original, retrain, _, subs = pipeline
    calls = []
    monkeypatch.setattr(unlearn, "subset_loss", lambda *args: calls.append(args))
    cfg = UnlearnConfig(setting="partial", eta1=0.3, eta2=0.05, max_epochs=2, strategy=strategy)
    with pytest.raises(DimensionError, match=r"3 tasks, bases of shape \(2, 3, 1\)"):
        run_unlearning(original, problem, part, subs[:2], cfg, retrain)
    assert not calls  # raised before the first epoch's record


def test_unlearning_divergence_names_epoch_and_forget_loss(pipeline):
    problem, part_partial, _, original, retrain_p, _, subs = pipeline
    cfg = UnlearnConfig(setting="partial", eta2=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepSizeError, match=r"^run_unlearning epoch 1: forget_loss=inf$"):
            run_unlearning(original, problem, part_partial, subs, cfg, retrain_p)


def test_unlearning_overflowing_forget_gradient_names_epoch(pipeline):
    # The forget loss stays finite, but the next forget gradient's squared
    # norm overflows, which orthogonalization would turn into NaNs.
    problem, part_partial, _, original, retrain_p, _, subs = pipeline
    cfg = UnlearnConfig(setting="partial", eta2=1e3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(
            StepSizeError,
            match=r"^run_unlearning epoch 6: forget gradient non-finite \(squared norm inf; "
            r"0 of 42 entries non-finite; largest finite \|entry\| 2\.37\d*e\+195\)$",
        ):
            run_unlearning(original, problem, part_partial, subs, cfg, retrain_p)


def forget_task_auc_reference(model, problem, part):
    """The forgotten tasks' mean membership AUC, one task at a time in numpy."""
    ds, val = problem.dataset, problem.val_dataset
    inst, w_eff = part.forget_instances, model.edit.effective_weight

    def losses(x, y, t):
        e = x @ w_eff @ model.heads[t].T - y
        return 0.5 * (e * e).sum(axis=1)

    aucs = [
        mia_auc(
            losses(ds.inputs[inst], ds.targets[t][inst], t),
            losses(val.inputs, val.targets[t], t),
        )
        for t in part.forget_tasks
    ]
    return float(np.mean(aucs))


@pytest.mark.parametrize("setting", ["partial", "full"])
def test_membership_aucs_equal_the_per_instance_losses_path(pipeline, setting):
    problem, part_p, part_f, original, retrain_p, retrain_f, subs = pipeline
    part, retrain = (part_p, retrain_p) if setting == "partial" else (part_f, retrain_f)
    cfg = UnlearnConfig(setting=setting, eta1=0.3, eta2=0.05, max_epochs=6)
    model, trace = run_unlearning(original, problem, part, subs, cfg, retrain)
    assert trace.reference_auc == forget_task_auc_reference(retrain, problem, part)
    selected = trace.records[trace.selected_epoch]
    assert selected.mia_auc == forget_task_auc_reference(model, problem, part)


@pytest.mark.parametrize("strategy", ["ours", "neggrad_plus"])
def test_non_finite_retain_gradient_names_epoch_and_source(pipeline, monkeypatch, strategy):
    # The second gradient of the "inst" source (retained instances on the
    # forgotten task) has NaN entries in its 6x3 factor a. Its block holds a
    # pair per retained instance; the forget block on that task, one per
    # forgotten instance.
    problem, part, _, original, retrain, _, subs = pipeline
    true_gradient = unlearn.subset_gradient
    inst_calls = 0

    def poisoned(model, ds, subset):
        nonlocal inst_calls
        ga, gb = true_gradient(model, ds, subset)
        (task,), (count,) = subset.tasks.tolist(), subset.counts
        if task in part.forget_tasks and count == len(part.retain_instances):
            inst_calls += 1
            if inst_calls == 2:
                ga = np.full_like(ga, np.nan)
        return ga, gb

    monkeypatch.setattr(unlearn, "subset_gradient", poisoned)
    cfg = UnlearnConfig(setting="partial", eta1=0.3, eta2=0.05, max_epochs=4, strategy=strategy)
    with pytest.raises(
        StepSizeError, match=r"^run_unlearning epoch 2: inst gradient non-finite \(18 of 42 entries\)$"
    ):
        run_unlearning(original, problem, part, subs, cfg, retrain)


@pytest.mark.parametrize("anchor_fraction, stacks", [(1.0, 6), (0.5, 11)], ids=["1.0", "0.5"])
def test_each_epoch_computes_one_residual_and_one_gradient_stack(
    pipeline, monkeypatch, anchor_fraction, stacks
):
    # Every model's four losses and the next epoch's per-task gradients share
    # one residual and one W-gradient stack, computed together. A subsampled
    # anchor is a stack of its own, read by the 5 models that take a gradient.
    problem, part, _, original, retrain, _, subs = pipeline
    calls = count_stacks(monkeypatch)
    cfg = UnlearnConfig(
        setting="partial", eta1=0.3, eta2=0.05, max_epochs=5, anchor_fraction=anchor_fraction
    )
    run_unlearning(original, problem, part, subs, cfg, retrain)
    assert calls == {"residual": stacks, "gradient": stacks}


def test_a_second_run_over_a_partition_groups_no_subset(pipeline, monkeypatch):
    # The first run over a partition factors its 2K cells; every later run
    # reads them, and runs as a run over a fresh partition of the same arrays.
    problem, part, _, original, retrain, _, subs = pipeline
    grouped = count_cell_factors(monkeypatch)
    cfg = UnlearnConfig(setting="partial", eta1=0.3, eta2=0.05, max_epochs=4, anchor_fraction=1.0)
    first = partition(problem.dataset, part.forget_instances, part.forget_tasks)
    run_unlearning(original, problem, first, subs, cfg, retrain)
    n_forget = len(part.forget_instances)
    groups = (n_forget, problem.dataset.n_instances - n_forget)
    assert sorted(grouped) == [(rows, t) for rows in sorted(groups) for t in range(3)]
    again = run_unlearning(original, problem, first, subs, cfg, retrain)
    assert len(grouped) == 6
    fresh = partition(problem.dataset, part.forget_instances, part.forget_tasks)
    want = run_unlearning(original, problem, fresh, subs, cfg, retrain)
    assert len(grouped) == 12
    assert again[0].stacked_heads is original.stacked_heads  # handed over, not rebuilt
    assert repr(again[1]) == repr(want[1])
    for got, expected in zip((again[0].edit.a, again[0].edit.b), (want[0].edit.a, want[0].edit.b)):
        assert got.tobytes() == expected.tobytes()
