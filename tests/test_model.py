import dataclasses
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    block_pairs,
    count_cell_factors,
    count_stacks,
    fd_gradient,
    fd_hessian_from_gradient,
)
from mtunlearn import (
    GenConfig,
    LowRankEdit,
    MultiTaskDataset,
    MultiTaskModel,
    Subset,
    TrainConfig,
    flattened_hessian,
    default_forget_split,
    generate_synthetic,
    partition,
    subset_gradient,
    subset_loss,
    train_reference,
)
from mtunlearn.errors import (
    ConfigError,
    DimensionError,
    EmptySubsetError,
    SizeGuardError,
    StepSizeError,
)
from mtunlearn.model import LOSS_SUBSETS, cell_factors, partition_subsets, zero_init_edit


def make_model(problem, rank=3, seed=0):
    d, k = problem.config.input_dim, problem.shared_dim
    rng = np.random.default_rng(seed)
    edit = LowRankEdit(
        w_star=rng.standard_normal((d, k)) * 0.3,
        a=rng.standard_normal((k, rank)) * 0.4,
        b=rng.standard_normal((d, rank)) * 0.4,
    )
    return MultiTaskModel(edit=edit, heads=tuple(problem.heads))


def pair_loss(model, ds, pair) -> float:
    """Per-pair reference: squared loss 0.5 |x_i W_eff M_t^T - y_i|^2."""
    i, t = pair
    err = ds.inputs[i] @ model.edit.effective_weight @ model.heads[t].T - ds.targets[t][i]
    return 0.5 * float(err @ err)


def test_effective_weight_is_base_plus_edit(small_problem):
    edit = make_model(small_problem).edit
    assert np.allclose(edit.effective_weight, edit.w_star + edit.b @ edit.a.T)
    # computed once, read-only, and not assignable
    assert edit.effective_weight is edit.effective_weight
    assert not edit.effective_weight.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        edit.effective_weight = edit.w_star


def test_edit_shape_validation():
    with pytest.raises(DimensionError):
        LowRankEdit(w_star=np.zeros((4, 3)), a=np.zeros((5, 2)), b=np.zeros((4, 2)))
    with pytest.raises(DimensionError):
        LowRankEdit(w_star=np.zeros((4, 3)), a=np.zeros((3, 2)), b=np.zeros((4, 1)))


def test_zero_init_edit_has_zero_delta():
    w_star = np.arange(12.0).reshape(4, 3)
    edit = zero_init_edit(w_star, rank=2, seed=0)
    assert np.array_equal(edit.effective_weight, w_star)
    assert np.any(edit.a != 0)


def test_subset_loss_matches_pair_mean(small_problem):
    model = make_model(small_problem)
    ds = small_problem.dataset
    pairs = [(0, 0), (1, 2), (5, 1), (7, 0)]
    expected = np.mean([pair_loss(model, ds, p) for p in pairs])
    assert subset_loss(model, ds, pairs) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(EmptySubsetError):
        subset_loss(model, ds, [])


def test_gradient_matches_central_differences(small_problem):
    """Analytic gradients vs finite differences over 20 random configs."""
    ds = small_problem.dataset
    rng = np.random.default_rng(42)
    for trial in range(20):
        rank = int(rng.integers(1, 4))
        model = make_model(small_problem, rank=rank, seed=trial)
        n = int(rng.integers(1, 6))
        pairs = [
            (int(rng.integers(0, ds.n_instances)), int(rng.integers(0, ds.n_tasks)))
            for _ in range(n)
        ]
        ga, gb = subset_gradient(model, ds, pairs)
        analytic = np.concatenate([ga.ravel(), gb.ravel()])
        numeric = fd_gradient(model, ds, pairs)
        denom = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom <= 1e-5


def test_hessian_symmetry_and_fd_agreement(small_problem):
    ds = small_problem.dataset
    for seed in range(3):
        model = make_model(small_problem, rank=2, seed=seed)
        pairs = [(0, 0), (2, 1), (4, 2), (6, 0), (8, 1)]
        h = flattened_hessian(model, ds, pairs)
        assert np.max(np.abs(h - h.T)) <= 1e-8
        numeric = fd_hessian_from_gradient(model, ds, pairs)
        denom = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(h - numeric) / denom <= 1e-4


def test_hessian_size_guard(small_problem):
    model = make_model(small_problem, rank=50)
    with pytest.raises(SizeGuardError):
        flattened_hessian(model, small_problem.dataset, [(0, 0)])


def test_gradient_empty_subset(small_problem):
    model = make_model(small_problem)
    ds = small_problem.dataset
    # An empty sequence or (0, 2) array is an empty subset, not a shape error.
    for empty in ([], Subset.from_pairs(ds, []), Subset.from_pairs(ds, np.zeros((0, 2), int))):
        with pytest.raises(EmptySubsetError):
            subset_gradient(model, ds, empty)
        with pytest.raises(EmptySubsetError):
            subset_loss(model, ds, empty)


def residual_gradient(model, ds, pairs):
    """Reference: sum the per-pair residual gradients one pair at a time."""
    w_eff = model.edit.effective_weight
    grad_w = np.zeros_like(w_eff)
    for i, t in pairs:
        x, m = ds.inputs[i], model.heads[t]
        e = m @ (w_eff.T @ x) - ds.targets[t][i]
        grad_w += np.outer(x, e @ m)
    grad_w /= len(pairs)
    return grad_w.T @ model.edit.b, grad_w @ model.edit.a


def large_problem(noise_std=0.5):
    """N=2000, for checks against per-pair sums."""
    return generate_synthetic(
        GenConfig(
            n_instances=2000,
            input_dim=8,
            n_tasks=3,
            task_dims=(2, 3, 1),
            shared_dim=6,
            teacher_rank=3,
            noise_std=noise_std,
            seed=3,
        )
    )


def random_pairs(n_instances, n_tasks, n, seed=0):
    """Random pairs with repeats, so some rows count more than once."""
    rng = np.random.default_rng(seed)
    instances = rng.integers(0, n_instances, n).tolist()
    return list(zip(instances, rng.integers(0, n_tasks, n).tolist()))


def test_subset_gradient_matches_residual_form():
    problem = large_problem()
    ds = problem.dataset
    model = make_model(problem, rank=3, seed=1)
    pairs = random_pairs(2000, 3, 3000)
    subset = Subset.from_pairs(ds, pairs)
    assert len(subset) == len(pairs)
    ga, gb = subset_gradient(model, ds, subset)
    ra, rb = residual_gradient(model, ds, pairs)
    got = np.concatenate([ga.ravel(), gb.ravel()])
    want = np.concatenate([ra.ravel(), rb.ravel()])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # a list of pairs goes through the same Subset
    la, lb = subset_gradient(model, ds, pairs)
    assert np.array_equal(la, ga) and np.array_equal(lb, gb)


def test_subset_loss_matches_residual_sum():
    problem = large_problem()
    ds = problem.dataset
    model = make_model(problem, rank=3, seed=1)
    pairs = random_pairs(2000, 3, 3000)
    w_eff = model.edit.effective_weight
    total = 0.0
    for i, t in pairs:
        e = model.heads[t] @ (w_eff.T @ ds.inputs[i]) - ds.targets[t][i]
        total += 0.5 * float(e @ e)
    want = total / len(pairs)
    got = subset_loss(model, ds, Subset.from_pairs(ds, pairs))
    assert abs(got - want) <= 1e-12 * want


def counting_qr(monkeypatch):
    """Count calls to np.linalg.qr while the test runs."""
    calls = []
    real = np.linalg.qr

    def qr(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", qr)
    return calls


def test_subset_factors_each_block_once_when_built(monkeypatch):
    calls = counting_qr(monkeypatch)
    problem = large_problem()
    ds = problem.dataset
    model = make_model(problem, rank=3, seed=1)
    subset = Subset.from_pairs(ds, random_pairs(2000, 3, 3000))
    assert len(calls) == subset.tasks.size == 3
    # by_task() views the stacked factors, and every call reads them
    for part in (subset, *subset.by_task()):
        subset_loss(model, ds, part)
        subset_gradient(model, ds, part)
        flattened_hessian(model, ds, part)
    assert len(calls) == 3


def test_lazily_built_loss_matches_residual_reference():
    problem = large_problem()
    ds = problem.dataset
    model = make_model(problem, rank=3, seed=1)
    pairs = random_pairs(2000, 3, 3000, seed=5)
    subset = Subset.from_pairs(ds, pairs)
    subset_gradient(model, ds, subset)
    want = np.mean([pair_loss(model, ds, p) for p in pairs])
    got = subset_loss(model, ds, subset)
    assert abs(got - want) <= 1e-12 * want


def test_subset_loss_of_block_with_fewer_rows_than_inputs():
    problem = large_problem()
    ds = problem.dataset
    model = make_model(problem, rank=3, seed=1)
    # 3 pairs on task 1 (one repeated) and 1 on task 0, all fewer than d=8
    pairs = [(5, 1), (17, 1), (5, 1), (40, 0)]
    subset = Subset.from_pairs(ds, pairs)
    # Each block's factor has min(n_t, d) rows; the rest are zero padding.
    assert subset.r.shape == (2, 8, 8)
    nonzero_rows = np.any(subset.r != 0, axis=2)
    assert nonzero_rows.tolist() == [[True] + [False] * 7, [True] * 3 + [False] * 5]
    expected = np.mean([pair_loss(model, ds, p) for p in pairs])
    assert subset_loss(model, ds, subset) == pytest.approx(expected, rel=1e-12)


def test_subset_loss_at_teacher_on_noiseless_data_is_tiny_not_negative():
    problem = large_problem(noise_std=0.0)
    ds = problem.dataset
    rank = 1
    edit = LowRankEdit(
        w_star=problem.teacher,
        a=np.zeros((problem.shared_dim, rank)),
        b=np.zeros((ds.inputs.shape[1], rank)),
    )
    model = MultiTaskModel(edit=edit, heads=tuple(problem.heads))
    subset = Subset.from_pairs(ds, ds.all_pairs())
    assert 0.0 <= subset_loss(model, ds, subset) <= 1e-20


def test_subset_single_task_equals_task_slice(small_problem):
    ds = small_problem.dataset
    pairs = [(3, 2), (0, 0), (5, 2), (1, 0), (3, 1), (0, 2), (5, 2)]
    multi = Subset.from_pairs(ds, pairs)
    assert len(multi) == len(pairs)
    assert multi.tasks.tolist() == [0, 1, 2]
    for t, part in zip((0, 1, 2), multi.by_task()):
        task_pairs = [p for p in pairs if p[1] == t]
        single = Subset.from_pairs(ds, task_pairs)
        assert len(part) == len(task_pairs)
        assert part.tasks.tolist() == single.tasks.tolist() == [t]
        assert part.counts == single.counts == (len(task_pairs),)
        for name in ("r", "z", "rho"):
            assert getattr(part, name).tobytes() == getattr(single, name).tobytes()
            # a view of the whole subset's array, not a copy
            assert np.shares_memory(getattr(part, name), getattr(multi, name))


@pytest.mark.parametrize(
    "pairs", [np.zeros((2, 3), dtype=int), [0, 1, 2, 1], [[(0, 1)]], [(0, 1, 2)]]
)
def test_subset_rejects_pairs_not_shaped_n_by_2(small_problem, pairs):
    shape = re.escape(str(np.asarray(pairs).shape))
    with pytest.raises(DimensionError, match=rf"shape \(n, 2\), got {shape}$"):
        Subset.from_pairs(small_problem.dataset, pairs)


def per_block_reference(model, ds, pairs):
    """Loss, (a, b) gradient and Hessian summed one task block at a time,
    each block from its own QR of [X_t, Y_t] and its own unpadded head."""
    edit, (d, k), r = model.edit, model.edit.w_star.shape, model.edit.rank
    w_eff = edit.effective_weight
    p_a = k * r
    loss, grad_w, h = 0.0, np.zeros_like(w_eff), np.zeros((p_a + d * r, p_a + d * r))
    for t in sorted({t for _, t in pairs}):
        idx = [i for i, u in pairs if u == t]
        f = np.linalg.qr(np.hstack([ds.inputs[idx], ds.targets[t][idx]]), mode="r")
        rt, zt, tail, m = f[:d, :d], f[:d, d:], f[d:, d:], model.heads[t]
        e = rt @ (w_eff @ m.T) - zt
        loss += 0.5 * (float(np.vdot(e, e)) + float(np.vdot(tail, tail)))
        term = rt.T @ (e @ m)
        grad_w += term
        gram, ma, mtm = rt.T @ rt, m @ edit.a, m.T @ m
        s = edit.b.T @ gram
        h[:p_a, :p_a] += np.kron(mtm, s @ edit.b)
        h[p_a:, p_a:] += np.kron(gram, ma.T @ ma)
        t_ab = np.einsum("ip,jl->ijlp", mtm @ edit.a, s)
        t_ab += np.einsum("li,jp->ijlp", term, np.eye(r))
        h[:p_a, p_a:] += t_ab.reshape(p_a, -1)
        h[p_a:, :p_a] += t_ab.reshape(p_a, -1).T
    grad_w /= len(pairs)
    h /= len(pairs)
    return loss / len(pairs), (grad_w.T @ edit.b, grad_w @ edit.a), 0.5 * (h + h.T)


def equal_dims_problem():
    """The benchmark's shapes (equal task_dims, n_t >= d on every task)."""
    return generate_synthetic(
        GenConfig(
            n_instances=200,
            input_dim=16,
            n_tasks=3,
            task_dims=(2, 2, 2),
            shared_dim=12,
            teacher_rank=6,
            noise_std=0.5,
            seed=4,
        )
    )


@pytest.mark.parametrize("case", ["equal_dims", "conftest", "trapezoidal"])
def test_stacked_blocks_match_per_block_reference(small_problem, case):
    # Bit-identical where no block is padded; padded rows (n_t < d) or
    # columns (unequal task_dims) may move the last bits only.
    problem = small_problem if case == "conftest" else equal_dims_problem()
    ds = problem.dataset
    if case == "trapezoidal":
        pairs = [(5, 1), (17, 1), (5, 1), (40, 0), (9, 2), (3, 2), (11, 2)]
    else:
        pairs = random_pairs(ds.n_instances, 3, 3 * ds.n_instances, seed=2)
    subset = Subset.from_pairs(ds, pairs)
    parts = [(subset, pairs)] + [
        (part, [p for p in pairs if p[1] == t]) for t, part in zip(subset.tasks, subset.by_task())
    ]
    # Several models, so that some sum depends on the order of its terms.
    models = [make_model(problem, rank=problem.config.teacher_rank, seed=s) for s in range(4)]
    for model, (part, part_pairs) in itertools.product(models, parts):
        loss, (ga, gb), h = per_block_reference(model, ds, part_pairs)
        got_loss = subset_loss(model, ds, part)
        got_ga, got_gb = subset_gradient(model, ds, part)
        got_h = flattened_hessian(model, ds, part)
        if case == "equal_dims":
            assert got_loss == loss
            assert got_ga.tobytes() == ga.tobytes() and got_gb.tobytes() == gb.tobytes()
            assert got_h.tobytes() == h.tobytes()
        else:
            assert abs(got_loss - loss) <= 1e-12 * loss
            for got, want in ((got_ga, ga), (got_gb, gb), (got_h, h)):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_stacked_heads_are_read_only_padded_and_shared_by_with_edit(small_problem):
    model = make_model(small_problem)
    stack = model.stacked_heads
    assert not stack.flags.writeable
    for t, head in enumerate(model.heads):  # task_dims 2/1/3: rows beyond m_t are zero
        assert np.array_equal(stack[t, : len(head)], head) and not stack[t, len(head) :].any()
    assert model.with_edit(model.edit).stacked_heads is stack
    with pytest.raises(TypeError):
        MultiTaskModel(model.edit, model.heads, stack)


@pytest.mark.parametrize(
    "pairs, dtype", [([(0.9, 1.7), (2.5, 0.2)], "float64"), ([(True, False)], "bool")]
)
def test_subset_rejects_pairs_that_are_not_integer_ids(small_problem, pairs, dtype):
    # A cast to intp would read these as instance 0 on task 1 and instance 2
    # on task 0, and as instance 1 on task 0.
    message = f"^subset pairs must be integer ids, got dtype {dtype}$"
    with pytest.raises(DimensionError, match=message):
        Subset.from_pairs(small_problem.dataset, pairs)


def test_subset_on_tasks_that_are_not_consecutive_reads_their_heads():
    problem = equal_dims_problem()
    ds, model = problem.dataset, make_model(problem, seed=1)
    pairs = [(3, 2), (0, 0), (7, 2), (5, 0), (1, 2)]
    loss, (ga, gb), h = per_block_reference(model, ds, pairs)
    assert Subset.from_pairs(ds, pairs).tasks.tolist() == [0, 2]
    assert abs(subset_loss(model, ds, pairs) - loss) <= 1e-12 * loss
    for got, want in zip(subset_gradient(model, ds, pairs), (ga, gb)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    got_h = flattened_hessian(model, ds, pairs)
    assert np.linalg.norm(got_h - h) <= 1e-12 * np.linalg.norm(h)


def test_subset_rejects_bad_ids_and_foreign_dataset(small_problem):
    ds, val = small_problem.dataset, small_problem.val_dataset
    for bad in [(ds.n_instances, 0), (-1, 0), (0, ds.n_tasks), (0, -1)]:
        with pytest.raises(DimensionError):
            Subset.from_pairs(ds, [(0, 0), bad])
    with pytest.raises(ConfigError):
        subset_loss(make_model(small_problem), val, Subset.from_pairs(ds, [(0, 0)]))


def test_train_reference_fits_noiseless_realizable_data():
    cfg = GenConfig(
        n_instances=60,
        input_dim=6,
        n_tasks=2,
        task_dims=(2, 2),
        shared_dim=5,
        teacher_rank=2,
        noise_std=0.0,
        seed=11,
    )
    problem = generate_synthetic(cfg)
    tc = TrainConfig(epochs=3000, step_size=0.4, seed=0)
    model = train_reference(problem, problem.dataset.all_pairs(), tc)
    assert subset_loss(model, problem.dataset, problem.dataset.all_pairs()) <= 1e-6


def test_train_reference_determinism(small_problem):
    tc = TrainConfig(epochs=50, step_size=0.3, seed=5)
    pairs = small_problem.dataset.all_pairs()
    m1 = train_reference(small_problem, pairs, tc)
    m2 = train_reference(small_problem, pairs, tc)
    assert np.array_equal(m1.edit.a, m2.edit.a)
    assert np.array_equal(m1.edit.b, m2.edit.b)


def test_train_reference_divergence_raises(small_problem):
    tc = TrainConfig(epochs=500, step_size=500.0, seed=0)
    with pytest.raises(StepSizeError, match=r"^train_reference epoch 2: loss=1\.1441186\d*e\+24$"):
        train_reference(small_problem, small_problem.dataset.all_pairs(), tc)


@pytest.mark.parametrize("forget_tasks", [[1], [0, 1, 2]], ids=["partial", "full"])
def test_views_of_one_stack_give_the_bits_of_fresh_subsets(forget_tasks):
    # Each loss subset of the partition and each of its by_task() views slices
    # the one memoized stack, and gives the loss and gradient bits of a fresh
    # subset of its pairs on a fresh model; a second call reads the same
    # unmodified memo.
    problem = large_problem()
    ds = problem.dataset
    part = partition(ds, range(0, 2000, 9), forget_tasks)
    subsets = partition_subsets(ds, part)
    model = make_model(problem, rank=3, seed=1)
    checked = 0
    for name in LOSS_SUBSETS:
        view, p = subsets[name], block_pairs(part)[name]
        fresh = Subset.from_pairs(ds, p)
        assert len(view) == len(fresh) == len(p)
        for got, want in zip((view, *view.by_task()), (fresh, *fresh.by_task())):
            assert got.tasks.tolist() == want.tasks.tolist() and got.counts == want.counts
            if not want:
                continue
            alone = model.with_edit(model.edit)
            want_loss, want_grads = subset_loss(alone, ds, want), subset_gradient(alone, ds, want)
            for _ in range(2):
                assert repr(subset_loss(model, ds, got)) == repr(want_loss)
                for g, w in zip(subset_gradient(model, ds, got), want_grads):
                    assert g.tobytes() == w.tobytes()
            checked += 1
    assert checked == (10 if len(forget_tasks) == 1 else 8)
    (stack,) = model._memo  # one root stack behind every view


def test_train_reference_epoch_computes_one_residual(small_problem, monkeypatch):
    # The divergence check's loss on the stepped model computes the residual
    # that the next epoch's gradient reads.
    calls = count_stacks(monkeypatch)
    tc = TrainConfig(epochs=30, step_size=0.1, seed=0)
    train_reference(small_problem, small_problem.dataset.all_pairs(), tc)
    assert calls == {"residual": 31, "gradient": 31}


def test_memo_shapes_do_not_grow_with_n():
    shapes = []
    for n in (200, 2000):
        problem = generate_synthetic(dataclasses.replace(large_problem().config, n_instances=n))
        ds = problem.dataset
        part = default_forget_split(ds, 0.1, [0], seed=0)
        model = make_model(problem)
        subsets = partition_subsets(ds, part)
        for name in LOSS_SUBSETS:
            subset_loss(model, ds, subsets[name])
            subset_gradient(model, ds, subsets[name])
        (memo,) = model._memo.values()
        shapes.append([a.shape for a in memo])
    assert shapes[0] == shapes[1] == [(6, 8, 3), (6, 8, 6)]


def test_loss_subsets_are_grouped_once_per_partition_and_dataset(small_problem, monkeypatch):
    # The subsets are memoized on the partition: a second call factors no
    # cell. Another dataset object of the same shape gets subsets built on it,
    # which then are memoized in turn.
    ds = small_problem.dataset
    part = partition(ds, [0, 5, 7], [1])
    cells = count_cell_factors(monkeypatch)
    subsets = partition_subsets(ds, part)
    assert list(subsets) == [*LOSS_SUBSETS, "all_pairs", "retain"]
    assert sorted(cells) == [(rows, t) for rows in (3, 9) for t in range(3)]
    assert all(a is b for a, b in zip(partition_subsets(ds, part).values(), subsets.values()))
    assert len(cells) == 6
    (root,) = {subsets[name].root for name in LOSS_SUBSETS}
    other = type(ds)(inputs=ds.inputs + 1.0, targets=[y - 1.0 for y in ds.targets])
    rebuilt = partition_subsets(other, part)
    assert len(cells) == 12
    assert all(s.dataset is other and s.root is not root for s in rebuilt.values())
    assert partition_subsets(other, part)["forget"] is rebuilt["forget"]
    assert len(cells) == 12
    model = make_model(small_problem)
    for name in LOSS_SUBSETS:
        fresh = Subset.from_pairs(other, block_pairs(part)[name])
        got, want = subset_loss(model, other, rebuilt[name]), subset_loss(model, other, fresh)
        assert repr(got) == repr(want)


def cell_problems(small_problem):
    """Short cells (fewer rows than d + m, mixed m_t) and tall ones."""
    return [(small_problem, [0, 5, 7]), (large_problem(), range(0, 2000, 9))]


@pytest.mark.parametrize("forget_tasks", [[1], [0, 1, 2]], ids=["partial", "full"])
def test_loss_subset_cells_have_the_bits_of_from_pairs(small_problem, forget_tasks):
    for problem, forgotten in cell_problems(small_problem):
        ds = problem.dataset
        part = partition(ds, forgotten, forget_tasks)
        subsets = partition_subsets(ds, part)
        views = [subsets[name] for name in LOSS_SUBSETS]
        assert len({id(view.root) for view in views}) == 1
        sizes = [view.tasks.size for view in views]
        assert [view.start for view in views] == np.cumsum([0, *sizes])[:-1].tolist()
        for got, name in zip(views, LOSS_SUBSETS):
            want = Subset.from_pairs(ds, block_pairs(part)[name])
            assert got.tasks.tolist() == want.tasks.tolist() and got.counts == want.counts
            for array in ("r", "z", "rho"):
                assert getattr(got, array).tobytes() == getattr(want, array).tobytes(), array


def gram_form(subset):
    """Per block: X^T X, X^T Y and |Y|^2, from the block's r, z and rho."""
    rt = subset.r.transpose(0, 2, 1)
    return np.matmul(rt, subset.r), np.matmul(rt, subset.z), subset.rho + (subset.z**2).sum((1, 2))


@pytest.mark.parametrize("forget_tasks", [[1], [0, 1, 2]], ids=["partial", "full"])
def test_merged_subsets_match_grouped_pairs(small_problem, forget_tasks):
    # all_pairs and retain merge two cells' R factors per task where a task
    # spans both instance groups: the same Gram statistics as grouping the
    # pairs, to rounding.
    for problem, forgotten in cell_problems(small_problem):
        ds = problem.dataset
        part = partition(ds, forgotten, forget_tasks)
        subsets = partition_subsets(ds, part)
        for name, pairs in (("all_pairs", ds.all_pairs()), ("retain", part.retain)):
            got, want = subsets[name], Subset.from_pairs(ds, pairs)
            assert got.root is None and len(got) == len(pairs)
            assert got.tasks.tolist() == want.tasks.tolist() and got.counts == want.counts
            for g, w in zip(gram_form(got), gram_form(want)):
                for gb, wb in zip(g, w):
                    assert np.linalg.norm(gb - wb) <= 1e-12 * np.linalg.norm(wb), name


def test_partition_subsets_need_the_partitioned_dataset(small_problem):
    ds = small_problem.dataset
    part = partition(ds, [0, 5, 7], [1])
    short = type(ds)(inputs=ds.inputs[:-1], targets=[y[:-1] for y in ds.targets])
    with pytest.raises(DimensionError, match="partition does not cover the dataset"):
        partition_subsets(short, part)


# Factors a 180000-row cell (d=16, m=2) from seeded normal rows and prints a
# digest of its bytes; run in a process of its own per BLAS thread count.
CELL_DIGEST = """
import hashlib
import numpy as np
from mtunlearn.data import MultiTaskDataset
from mtunlearn.model import cell_factors
rng = np.random.default_rng(0)
n = 180_000
x, y = rng.standard_normal((n, 16)), rng.standard_normal((n, 2))
ds = MultiTaskDataset(inputs=x, targets=[y])
print(hashlib.sha256(cell_factors(ds, np.arange(n), [0])[0].tobytes()).hexdigest())
"""


def test_cell_factors_do_not_depend_on_the_blas_thread_count():
    # A BLAS library reads its thread count once, when it loads, so each count
    # gets a subprocess. One tall QR of the cell can round differently on 1 and
    # 2 threads; chunks of fixed size merged in a fixed tree do not.
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), threads))
        proc = subprocess.run(
            [sys.executable, "-c", CELL_DIGEST],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("rows, chunk, fan_in", [(9000, 4096, 64), (100, 5, 3)])
def test_chunked_cell_factors_hold_the_cells_gram_matrix(monkeypatch, rows, chunk, fan_in):
    # Three 4096-row chunks merged in one QR, and twenty 5-row chunks merged
    # over three levels of fan-in 3: R^T R is the Gram matrix of [X, Y_t].
    from mtunlearn import model

    monkeypatch.setattr(model, "QR_CHUNK_ROWS", chunk)
    monkeypatch.setattr(model, "TSQR_FAN_IN", fan_in)
    rng = np.random.default_rng(3)
    x, targets = rng.standard_normal((rows, 8)), [rng.standard_normal((rows, m)) for m in (2, 3)]
    ds = MultiTaskDataset(inputs=x, targets=targets)
    for t, r in zip((1, 0), cell_factors(ds, rng.permutation(rows), (1, 0))):
        a = np.hstack([x, targets[t]])
        assert r.shape == (a.shape[1],) * 2 and np.array_equal(r, np.triu(r))
        gram = a.T @ a
        assert np.linalg.norm(r.T @ r - gram) <= 1e-12 * np.linalg.norm(gram)
