import numpy as np
import pytest

from conftest import fd_gradient, fd_hessian_from_gradient
from mtunlearn import (
    GenConfig,
    LowRankEdit,
    MultiTaskModel,
    Subset,
    TrainConfig,
    flattened_hessian,
    generate_synthetic,
    pair_loss,
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
from mtunlearn.model import balanced_init_edit, zero_init_edit


def make_model(problem, rank=3, seed=0):
    d, k = problem.config.input_dim, problem.shared_dim
    rng = np.random.default_rng(seed)
    edit = LowRankEdit(
        w_star=rng.standard_normal((d, k)) * 0.3,
        a=rng.standard_normal((k, rank)) * 0.4,
        b=rng.standard_normal((d, rank)) * 0.4,
    )
    return MultiTaskModel(edit=edit, heads=tuple(problem.heads))


def test_effective_weight_and_predict(small_problem):
    model = make_model(small_problem)
    edit = model.edit
    w = edit.effective_weight()
    assert np.allclose(w, edit.w_star + edit.b @ edit.a.T)
    x = small_problem.dataset.inputs[0]
    for t in range(3):
        expected = small_problem.heads[t] @ (w.T @ x)
        assert np.allclose(model.predict(x, t), expected)


def test_edit_shape_validation():
    with pytest.raises(DimensionError):
        LowRankEdit(w_star=np.zeros((4, 3)), a=np.zeros((5, 2)), b=np.zeros((4, 2)))
    with pytest.raises(DimensionError):
        LowRankEdit(w_star=np.zeros((4, 3)), a=np.zeros((3, 2)), b=np.zeros((4, 1)))


def test_zero_init_edit_has_zero_delta():
    w_star = np.arange(12.0).reshape(4, 3)
    edit = zero_init_edit(w_star, rank=2, seed=0)
    assert np.array_equal(edit.effective_weight(), w_star)
    assert np.any(edit.a != 0)


def test_subset_loss_matches_pair_mean(small_problem):
    model = make_model(small_problem)
    ds = small_problem.dataset
    pairs = [(0, 0), (1, 2), (5, 1), (7, 0)]
    expected = np.mean([pair_loss(model, ds, p) for p in pairs])
    assert subset_loss(model, ds, pairs) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(EmptySubsetError):
        subset_loss(model, ds, [])


def test_weighted_subset_loss(small_problem):
    model = make_model(small_problem)
    ds = small_problem.dataset
    ds.task_weights = np.array([2.0, 1.0, 0.5])
    pairs = [(0, 0), (1, 2)]
    expected = (
        2.0 * pair_loss(model, ds, (0, 0)) + 0.5 * pair_loss(model, ds, (1, 2))
    ) / 2
    assert subset_loss(model, ds, pairs, weighted=True) == pytest.approx(expected)


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
    for empty in ([], Subset.from_pairs(ds, [])):
        with pytest.raises(EmptySubsetError):
            subset_gradient(model, ds, empty)
        with pytest.raises(EmptySubsetError):
            subset_loss(model, ds, empty)


def residual_gradient(model, ds, pairs, weighted):
    """Reference: sum the per-pair residual gradients one pair at a time."""
    w_eff = model.edit.effective_weight()
    grad_w = np.zeros_like(w_eff)
    for i, t in pairs:
        x, m = ds.inputs[i], model.heads[t]
        e = m @ (w_eff.T @ x) - ds.targets[t][i]
        lam = ds.task_weights[t] if weighted else 1.0
        grad_w += lam * np.outer(x, e @ m)
    grad_w /= len(pairs)
    return grad_w.T @ model.edit.b, grad_w @ model.edit.a


@pytest.mark.parametrize("weighted", [False, True])
def test_subset_gradient_matches_residual_form(weighted):
    problem = generate_synthetic(
        GenConfig(
            n_instances=2000,
            input_dim=8,
            n_tasks=3,
            task_dims=(2, 3, 1),
            shared_dim=6,
            teacher_rank=3,
            noise_std=0.5,
            seed=3,
            task_weights=(1.0, 2.0, 0.5),
        )
    )
    ds = problem.dataset
    model = make_model(problem, rank=3, seed=1)
    rng = np.random.default_rng(0)
    # random pairs with repeats, so some rows count more than once
    instances = rng.integers(0, 2000, 3000).tolist()
    pairs = list(zip(instances, rng.integers(0, 3, 3000).tolist()))
    subset = Subset.from_pairs(ds, pairs)
    assert len(subset) == len(pairs)
    ga, gb = subset_gradient(model, ds, subset, weighted=weighted)
    ra, rb = residual_gradient(model, ds, pairs, weighted)
    got = np.concatenate([ga.ravel(), gb.ravel()])
    want = np.concatenate([ra.ravel(), rb.ravel()])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # a list of pairs goes through the same Subset
    la, lb = subset_gradient(model, ds, pairs, weighted=weighted)
    assert np.array_equal(la, ga) and np.array_equal(lb, gb)


def test_subset_single_task_equals_task_slice(small_problem):
    ds = small_problem.dataset
    pairs = [(3, 2), (0, 0), (5, 2), (1, 0), (3, 1), (0, 2), (5, 2)]
    multi = Subset.from_pairs(ds, pairs)
    assert len(multi) == len(pairs)
    assert [b.task for b in multi.blocks] == [0, 1, 2]
    for t, part in zip((0, 1, 2), multi.by_task()):
        task_pairs = [p for p in pairs if p[1] == t]
        (single,) = Subset.from_pairs(ds, task_pairs).blocks
        (block,) = part.blocks
        assert len(part) == len(task_pairs)
        assert block.task == single.task == t
        assert np.array_equal(block.index, [i for i, _ in task_pairs])
        assert np.array_equal(block.index, single.index)
        assert np.array_equal(block.gram, single.gram)
        assert np.array_equal(block.cross, single.cross)


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
    with pytest.raises(StepSizeError):
        train_reference(small_problem, small_problem.dataset.all_pairs(), tc)


def test_balanced_init_scale():
    w_star = np.zeros((4, 3))
    edit = balanced_init_edit(w_star, rank=2, seed=0, scale=0.0)
    assert np.all(edit.a == 0) and np.all(edit.b == 0)
