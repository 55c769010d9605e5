"""pytest-benchmark cases for the hot layers.

The default options disable timing, so the normal test run calls each case
once as a smoke test. Time them with::

    PYTHONPATH=src python -m pytest tests/test_bench.py --benchmark-enable
"""

import dataclasses
import json

import numpy as np

from conftest import decode
from mtunlearn import (
    GenConfig,
    Subset,
    TrainConfig,
    UnlearnConfig,
    default_forget_split,
    generate_synthetic,
    init_subspaces,
    mia_auc,
    orthogonalize,
    regularize_step,
    run_unlearning,
    subset_gradient,
    subset_loss,
    subspace,
    train_reference,
)
from mtunlearn.data import problem_to_json
from mtunlearn.linalg import orthonormalize, solve_spd, spd_factor
from mtunlearn.model import LOSS_SUBSETS, MultiTaskModel, balanced_init_edit, partition_subsets
from mtunlearn.theory import (
    check_first_order_interference,
    check_optimal_direction,
    check_orthogonalization_identity,
    check_projection_bound,
)

# The acceptance-suite shapes at 10x the paper's N.
SHAPES = GenConfig(
    n_instances=2000,
    input_dim=16,
    n_tasks=3,
    task_dims=(2, 2, 2),
    shared_dim=12,
    teacher_rank=6,
    noise_std=0.3,
    seed=0,
)


def prebuilt():
    """A model and the full N=2000 subset, built outside the timed call."""
    problem = generate_synthetic(SHAPES)
    ds = problem.dataset
    edit = balanced_init_edit(np.zeros((16, 12)), rank=6, seed=0)
    model = MultiTaskModel(edit=edit, heads=tuple(problem.heads))
    return model, ds, Subset.from_pairs(ds, ds.all_pairs())


# The two cases below call on a fresh model each time, so each call computes
# its residual (and W-gradient) stack rather than reading the model's memo.


def test_bench_subset_gradient(benchmark):
    model, ds, subset = prebuilt()
    ga, gb = benchmark(lambda: subset_gradient(model.with_edit(model.edit), ds, subset))
    assert ga.shape == (12, 6) and gb.shape == (16, 6)
    assert np.all(np.isfinite(ga)) and np.all(np.isfinite(gb))


def test_bench_subset_loss(benchmark):
    model, ds, subset = prebuilt()
    loss = benchmark(lambda: subset_loss(model.with_edit(model.edit), ds, subset))
    assert np.isfinite(loss) and loss > 0


def test_bench_train_reference(benchmark):
    # The Original reference of an `mtunlearn run` at N=2000: 400 epochs of
    # one gradient and one loss call each, from prebuilt()'s model.
    start, _, _ = prebuilt()
    problem = generate_synthetic(SHAPES)
    ds = problem.dataset
    subset = Subset.from_pairs(ds, ds.all_pairs())
    tc = TrainConfig(epochs=400, step_size=0.3, seed=0, rank=6)
    trained = benchmark(train_reference, problem, subset, tc)
    assert subset_loss(trained, ds, subset) < 0.1 * subset_loss(start, ds, subset)


def test_bench_problem_to_json(benchmark):
    # The dataset an `mtunlearn run` at N=2000 writes, with its n_val=1000.
    problem = generate_synthetic(dataclasses.replace(SHAPES, n_val=1000))
    text = benchmark(problem_to_json, problem)
    doc = json.loads(text)
    assert decode(doc["inputs"]).tobytes() == problem.dataset.inputs.tobytes()
    assert decode(doc["val_inputs"]).shape == (1000, SHAPES.input_dim)


def test_bench_partition(benchmark):
    # The forget split and the retain subset at 100x the paper's N.
    ds = generate_synthetic(dataclasses.replace(SHAPES, n_instances=20_000)).dataset

    def split_and_group():
        part = default_forget_split(ds, 0.1, [0], seed=0)
        return part, Subset.from_pairs(ds, part.retain)

    part, subset = benchmark(split_and_group)
    assert part.forget_instances.size == 2000
    assert len(subset) == len(part.retain) == 3 * 20_000 - 2000


def test_bench_partition_subsets(benchmark):
    # The 2K cells of that split, factored once, and the six subsets built
    # from them. The memo is cleared before each call, so the case times the
    # computation.
    ds = generate_synthetic(dataclasses.replace(SHAPES, n_instances=20_000)).dataset
    part = default_forget_split(ds, 0.1, [0], seed=0)

    def factor_and_merge():
        part._memo.clear()
        return partition_subsets(ds, part)

    subsets = benchmark(factor_and_merge)
    assert len(subsets["all_pairs"]) == 3 * 20_000
    assert len(subsets["retain"]) == len(part.retain) == 3 * 20_000 - 2000
    assert sum(len(subsets[name]) for name in LOSS_SUBSETS) == 3 * 20_000


def test_bench_run_unlearning(benchmark):
    # One `ours` partial run at the paper's size (N=200, n_val=100, forget
    # task 0), its two references trained outside the timed call.
    problem = generate_synthetic(dataclasses.replace(SHAPES, n_instances=200, n_val=100))
    ds = problem.dataset
    tc = TrainConfig(epochs=400, step_size=0.3, seed=0, rank=6)
    part = default_forget_split(ds, 0.1, [0], seed=0)
    original = train_reference(problem, ds.all_pairs(), tc)
    retrain = train_reference(problem, part.retain, tc)
    subspaces = init_subspaces(3, rank=6, dim=2, mode="random", seed=0)
    cfg = UnlearnConfig(setting="partial", eta1=0.3, eta2=0.05, anchor_fraction=1.0)
    model, trace = benchmark(run_unlearning, original, problem, part, subspaces, cfg, retrain)
    assert len(trace.records) == cfg.max_epochs + 1
    assert np.all(np.isfinite(model.edit.a)) and np.all(np.isfinite(model.edit.b))


def test_bench_regularize_step(benchmark):
    # K=3 random subspaces of dim 2 in rank 6, as the ablation runs use. The
    # memo is cleared before each call, so the case times the computation.
    bases = init_subspaces(3, rank=6, dim=2, mode="random", seed=0)

    def uncached():
        subspace._regularized.clear()
        return regularize_step(bases, 1e-3)

    out = benchmark(uncached)
    for q in out:
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)


def test_bench_orthogonalize(benchmark):
    rng = np.random.default_rng(0)
    g_f, g_r = rng.standard_normal((16, 6)), rng.standard_normal((16, 6))
    out = benchmark(orthogonalize, g_f, g_r, 0.0)
    assert abs(np.vdot(out, g_r)) <= 1e-12 * np.linalg.norm(g_f) * np.linalg.norm(g_r)


def test_bench_orthogonalize_stack(benchmark):
    # One 32-draw block of the orthogonalization-identity suite, at its
    # largest shape.
    g_f, g_r = np.random.default_rng(0).standard_normal((2, 32, 5, 5))
    out = benchmark(orthogonalize, g_f, g_r, 0.0)
    residual = np.abs(np.add.reduce(out * g_r, axis=(-2, -1)))
    scale = np.linalg.norm(g_f, axis=(-2, -1)) * np.linalg.norm(g_r, axis=(-2, -1))
    assert np.all(residual <= 1e-12 * scale)


def test_bench_mia_auc(benchmark):
    rng = np.random.default_rng(0)
    members = rng.exponential(1.0, 50_000)
    nonmembers = rng.exponential(1.2, 50_000)
    auc = benchmark(mia_auc, members, nonmembers)
    assert 0.5 < auc < 1.0


def test_bench_orthonormalize(benchmark):
    m = np.random.default_rng(0).standard_normal((16, 6))
    q = benchmark(orthonormalize, m)
    assert np.allclose(q.T @ q, np.eye(6), atol=1e-10)


def test_bench_orthonormalize_stack(benchmark):
    # One projection-bound block of `mtunlearn verify`: 32 draws of two
    # rank-16 bases of dim 8.
    m = np.random.default_rng(0).standard_normal((64, 16, 8))
    q = benchmark(orthonormalize, m)
    assert np.allclose(q.mT @ q, np.eye(8), atol=1e-10)


def test_bench_orthonormalize_verify_block(benchmark):
    # The layer baseline: one projection-bound block as `mtunlearn verify`
    # passes it, 32 draws of [u, v], each a rank-16 basis of dim 8.
    m = np.random.default_rng(0).standard_normal((32, 2, 16, 8))
    q = benchmark(orthonormalize, m)
    assert np.allclose(q.mT @ q, np.eye(8), atol=1e-10)


def test_bench_solve_spd(benchmark):
    # p=30, within the p = 10-40 the first-order interference suite solves.
    rng = np.random.default_rng(0)
    m = rng.standard_normal((30, 30))
    h = m @ m.T / 30 + 1e-2 * np.eye(30)
    b = rng.standard_normal(30)
    x = benchmark(solve_spd, h, b)
    assert np.linalg.norm(h @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_bench_solve_spd_factored(benchmark):
    # The O(p²) path: the same system against its factor, built outside the
    # timed call, as each `predict_interference` call solves it.
    rng = np.random.default_rng(0)
    m = rng.standard_normal((30, 30))
    h = m @ m.T / 30 + 1e-2 * np.eye(30)
    b = rng.standard_normal(30)
    x = benchmark(solve_spd, spd_factor(h), b)
    assert x.tobytes() == solve_spd(h, b).tobytes()


def test_bench_check_optimal_direction(benchmark):
    report = benchmark(check_optimal_direction)
    assert report["passed"] and report["sample_violations"] == 0


def test_bench_check_first_order_interference(benchmark):
    # The 20 stacked problems of `mtunlearn verify --seed 0`, each with its
    # order fit at three rho.
    report = benchmark(check_first_order_interference)
    assert report["passed"] and len(report["doubling_ratios"]) == 20


def test_bench_check_projection_bound(benchmark):
    # The 1004 draws of `mtunlearn verify --seed 0`, measured in blocks.
    report = benchmark(check_projection_bound)
    assert report["passed"] and report["draws"] == 1004


def test_bench_check_orthogonalization_identity(benchmark):
    # The 1000 draws of `mtunlearn verify --seed 0`, one stacked
    # `orthogonalize` per block of up to 32 draws and eps.
    report = benchmark(check_orthogonalization_identity)
    assert report["passed"]
