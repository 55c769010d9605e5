import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from benchdata import BENCH_A_ORIGINAL, report_from_cells
from mtunlearn import (
    EvalReport,
    GenConfig,
    UISInput,
    default_forget_split,
    evaluate,
    generate_synthetic,
    mia_auc,
    partition,
    uis,
)
from mtunlearn.errors import (
    ConfigError,
    DimensionError,
    EmptySubsetError,
    NonFiniteError,
)
from mtunlearn.model import LowRankEdit, MultiTaskModel, zero_init_edit


def test_mia_auc_known_values():
    assert mia_auc([0.1, 0.2], [0.9, 0.8]) == 1.0  # members fit much better
    assert mia_auc([0.9, 0.8], [0.1, 0.2]) == 0.0
    assert mia_auc([0.5], [0.5]) == 0.5  # ties count one half


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 15),
    m=st.integers(1, 15),
    seed=st.integers(0, 10_000),
)
def test_mia_auc_matches_mann_whitney_oracle(n, m, seed):
    rng = np.random.default_rng(seed)
    members = np.round(rng.standard_normal(n), 1)  # rounding forces ties
    nonmembers = np.round(rng.standard_normal(m), 1)
    # score = -loss with members positive
    u, _ = scipy.stats.mannwhitneyu(-members, -nonmembers, alternative="two-sided")
    assert mia_auc(members, nonmembers) == pytest.approx(u / (n * m), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 15),
    m=st.integers(1, 15),
    seed=st.integers(0, 10_000),
)
def test_mia_auc_equals_pairwise_counts(n, m, seed):
    """The rank form counts exactly the wins and ties of all n*m comparisons."""
    rng = np.random.default_rng(seed)
    members = np.round(rng.standard_normal(n), 1)
    nonmembers = np.round(rng.standard_normal(m), 1)
    wins = (members[:, None] < nonmembers[None, :]).sum()
    ties = (members[:, None] == nonmembers[None, :]).sum()
    assert mia_auc(members, nonmembers) == float((wins + 0.5 * ties) / (n * m))


def test_mia_auc_matches_brute_force_with_ties_in_any_member_order():
    rng = np.random.default_rng(3)
    members = np.round(rng.exponential(1.0, 400), 1)  # many ties
    nonmembers = np.round(rng.exponential(1.2, 700), 1)
    wins = (members[:, None] < nonmembers[None, :]).sum()
    ties = (members[:, None] == nonmembers[None, :]).sum()
    want = float((wins + 0.5 * ties) / (members.size * nonmembers.size))
    assert ties > 0
    for _ in range(5):
        assert mia_auc(rng.permutation(members), rng.permutation(nonmembers)) == want


def test_mia_auc_empty_rejected():
    with pytest.raises(EmptySubsetError):
        mia_auc([], [1.0])


@pytest.mark.parametrize(
    "members, nonmembers, name",
    [
        ([np.nan, 1.0], [0.5, 2.0], "member_losses"),
        ([0.5, 1.0], [np.inf, 2.0], "nonmember_losses"),
        ([0.5, -np.inf], [1.0], "member_losses"),
    ],
)
def test_mia_auc_rejects_non_finite(members, nonmembers, name):
    with pytest.raises(NonFiniteError, match=f"\\b{name}"):
        mia_auc(members, nonmembers)


def make_report(n_tasks=2, offset=0.0):
    cells = [
        (0.8 + offset, 0.6 + offset, 0.7 + offset, 0.55)
        for _ in range(n_tasks)
    ]
    return report_from_cells(cells)


def test_evaluate_fills_every_cell(small_problem):
    ds = small_problem.dataset
    part = partition(ds, [0, 1], [0])
    model = MultiTaskModel(
        edit=zero_init_edit(np.zeros((5, 4)), rank=2, seed=0),
        heads=tuple(small_problem.heads),
    )
    rep = evaluate(model, ds, part, small_problem.val_dataset)
    rep.validate()
    for t in range(3):
        for s in ("ret", "unl", "val"):
            assert 0.0 < rep.metrics[(t, s)] <= 1.0
        assert 0.0 <= rep.mia_unl[t] <= 1.0
        assert 0.0 <= rep.mia_ret[t] <= 1.0


def test_evaluate_without_a_validation_set_raises_config_error(small_problem):
    # evaluate takes the validation set as given: a config without one is
    # refused before any problem can be generated from it.
    with pytest.raises(ConfigError, match=r"^n_val must be >= 1"):
        dataclasses.replace(small_problem.config, n_val=0)


@pytest.mark.parametrize("forget_tasks", [[0], [0, 1, 2]], ids=["partial", "full"])
def test_evaluate_equals_a_per_cell_reference(small_problem, forget_tasks):
    ds, val = small_problem.dataset, small_problem.val_dataset
    part = partition(ds, [0, 3, 4], forget_tasks)
    rng = np.random.default_rng(3)
    edit = LowRankEdit(
        w_star=rng.standard_normal((5, 4)),
        a=rng.standard_normal((4, 2)),
        b=rng.standard_normal((5, 2)),
    )
    model = MultiTaskModel(edit=edit, heads=tuple(small_problem.heads))
    rep = evaluate(model, ds, part, val)

    def losses(split_ds, t, instances):
        e = split_ds.inputs[instances] @ edit.effective_weight @ model.heads[t].T
        e -= split_ds.targets[t][instances]
        return 0.5 * (e * e).sum(axis=1)

    for t in range(3):
        ret = losses(ds, t, part.retain_instances)
        unl = losses(ds, t, part.forget_instances)
        val_losses = losses(val, t, slice(None))
        for split, split_losses in (("ret", ret), ("unl", unl), ("val", val_losses)):
            assert rep.metrics[(t, split)] == float(np.exp(-np.mean(split_losses)))
        assert rep.mia_unl[t] == mia_auc(unl, val_losses)
        assert rep.mia_ret[t] == mia_auc(ret, val_losses)


def test_evaluate_indexes_the_splits_without_copying_rows():
    # One loss pass over all N training rows, indexed by split: a call peaks
    # below two (N, k) feature arrays. Gathering the retained rows and their
    # features for a pass of their own passes that.
    n, k = 20_000, 12
    config = GenConfig(
        n_instances=n,
        input_dim=16,
        n_tasks=3,
        task_dims=(2, 2, 2),
        shared_dim=k,
        teacher_rank=6,
        noise_std=0.3,
        seed=0,
    )
    problem = generate_synthetic(config)
    ds, val = problem.dataset, problem.val_dataset
    part = default_forget_split(ds, 0.1, [0], seed=0)
    rng = np.random.default_rng(0)
    edit = LowRankEdit(
        w_star=problem.teacher, a=rng.standard_normal((k, 6)), b=rng.standard_normal((16, 6))
    )
    model = MultiTaskModel(edit=edit, heads=tuple(problem.heads))
    first = evaluate(model, ds, part, val)
    tracemalloc.start()
    try:
        second = evaluate(model, ds, part, val)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second.to_csv() == first.to_csv()
    assert peak < 2 * n * k * 8, peak


def test_report_csv_round_trip():
    rep = make_report()
    back = EvalReport.from_csv(rep.to_csv())
    for key, value in rep.metrics.items():
        assert back.metrics[key] == value
    assert back.mia_unl == rep.mia_unl


def test_report_csv_requires_mia_retain_row():
    text = make_report().to_csv()
    lines = [line for line in text.splitlines() if not line.startswith("1,mia_retain,")]
    with pytest.raises(ConfigError, match="'mia_retain' AUC cell for task 1"):
        EvalReport.from_csv("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "cell, bad",
    # Non-finite values, utility cells outside (0, 1], the range of exp(-mean loss),
    # then AUC cells outside [0, 1].
    [("val", "nan"), ("mia", "inf"), ("ret", "-inf")]
    + [("ret", "-5.0"), ("unl", "0.0"), ("val", "1.5")]
    + [("mia", "1.5"), ("mia_retain", "-0.1")],
)
def test_report_csv_rejects_non_finite(cell, bad):
    lines = make_report().to_csv().splitlines()
    i = next(n for n, line in enumerate(lines) if line.startswith(f"1,{cell},"))
    lines[i] = ",".join(lines[i].split(",")[:3] + [bad])
    with pytest.raises(ConfigError, match=f"task 1 cell '{cell}'"):
        EvalReport.from_csv("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "cell, label",
    [("ret", "accuracy"), ("val", "auc"), ("mia", "exp_neg_loss"), ("mia_retain", "")],
)
def test_report_csv_rejects_wrong_metric_label(cell, label):
    lines = make_report().to_csv().splitlines()
    i = next(n for n, line in enumerate(lines) if line.startswith(f"1,{cell},"))
    task, cell_name, _, value = lines[i].split(",")
    lines[i] = ",".join([task, cell_name, label, value])
    with pytest.raises(ConfigError, match=f"metric '{label}' for task 1 cell '{cell}'"):
        EvalReport.from_csv("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "row", ["x,ret,exp_neg_loss,0.5", "0,ret,0.5", "0,ret,exp_neg_loss,high"]
)
def test_report_csv_rejects_malformed_row(row):
    with pytest.raises(ConfigError, match="malformed CSV row"):
        EvalReport.from_csv(make_report().to_csv() + row + "\n")


def test_report_csv_rejects_header_only():
    with pytest.raises(ConfigError, match="no rows"):
        EvalReport.from_csv("task,cell,metric,value\n")


def test_report_validate_rejects_incomplete():
    rep = make_report()
    del rep.metrics[(1, "val")]
    with pytest.raises(ConfigError):
        rep.validate()
    rep2 = make_report()
    rep2.mia_unl[0] = 1.5
    with pytest.raises(ConfigError):
        rep2.validate()


def test_uis_zero_when_evaluated_equals_references():
    rep = make_report()
    inp = UISInput(
        evaluated=rep,
        original_ref=rep,
        retrain_ref=rep,
        setting="full",
    )
    assert uis(inp) == 0.0


def test_uis_full_setting_reference_assignment():
    """ret/val compare against original, unl/mia against retrain."""
    original = report_from_cells([(0.8, 0.7, 0.6, 0.9)] * 2)
    retrain = report_from_cells([(0.9, 0.5, 0.65, 0.5)] * 2)
    evaluated = report_from_cells([(0.8, 0.5, 0.6, 0.5)] * 2)
    inp = UISInput(
        evaluated=evaluated, original_ref=original, retrain_ref=retrain, setting="full"
    )
    assert uis(inp) == pytest.approx(0.0, abs=1e-12)
    # deviating only in ret is measured against the original value
    shifted = report_from_cells([(0.4, 0.5, 0.6, 0.5)] * 2)
    inp2 = UISInput(
        evaluated=shifted, original_ref=original, retrain_ref=retrain, setting="full"
    )
    assert uis(inp2) == pytest.approx(abs(0.4 - 0.8) / 0.8, rel=1e-12)


def test_uis_partial_setting_reference_assignment():
    """Forgotten task uses retrain for all four cells, retained tasks original."""
    original = report_from_cells([(0.8, 0.7, 0.6, 0.9), (0.7, 0.6, 0.5, 0.8)])
    retrain = report_from_cells([(0.9, 0.5, 0.65, 0.5), (0.75, 0.55, 0.52, 0.45)])
    matches = report_from_cells([(0.9, 0.5, 0.65, 0.5), (0.7, 0.6, 0.5, 0.8)])
    inp = UISInput(
        evaluated=matches,
        original_ref=original,
        retrain_ref=retrain,
        setting="partial",
        forget_tasks=frozenset({0}),
    )
    assert uis(inp) == pytest.approx(0.0, abs=1e-12)
    # per-cell deviations accumulate against the assigned reference
    off = report_from_cells([(0.45, 0.5, 0.65, 0.5), (0.7, 0.3, 0.5, 0.8)])
    inp2 = UISInput(
        evaluated=off,
        original_ref=original,
        retrain_ref=retrain,
        setting="partial",
        forget_tasks=frozenset({0}),
    )
    expected = (abs(0.45 - 0.9) / 0.9 + abs(0.3 - 0.6) / 0.6) / 2
    assert uis(inp2) == pytest.approx(expected, rel=1e-12)


def test_uis_partial_requires_forget_tasks():
    rep = make_report()
    inp = UISInput(
        evaluated=rep, original_ref=rep, retrain_ref=rep, setting="partial"
    )
    with pytest.raises(ConfigError):
        uis(inp)


@pytest.mark.parametrize(
    "setting, forget_tasks",
    [
        ("partial", {0, 1, 2}),
        ("partial", {7}),
        ("partial", {0, 7}),
        ("full", {1}),
        ("full", {0, 1, 2, 3}),
    ],
    ids=["partial-all", "partial-7", "partial-0-7", "full-1", "full-0-3"],
)
def test_uis_rejects_forget_tasks_that_contradict_the_setting(setting, forget_tasks):
    rep = report_from_cells(BENCH_A_ORIGINAL)  # 3 tasks
    inp = UISInput(
        evaluated=rep, original_ref=rep, retrain_ref=rep,
        setting=setting, forget_tasks=frozenset(forget_tasks),
    )
    with pytest.raises(ConfigError, match="^forget_tasks: the .* setting"):
        uis(inp)
    for ok in ({0}, {1, 2}) if setting == "partial" else (set(), {0, 1, 2}):
        assert uis(dataclasses.replace(inp, forget_tasks=frozenset(ok))) == 0.0


def test_uis_rejects_mismatched_reports():
    inp = UISInput(
        evaluated=make_report(2),
        original_ref=make_report(3),
        retrain_ref=make_report(2),
        setting="full",
    )
    with pytest.raises(DimensionError):
        uis(inp)
