"""pytest-benchmark cases for the hot layers.

The default options disable timing, so the normal test run calls each case
once as a smoke test. Time them with::

    PYTHONPATH=src python -m pytest tests/test_bench.py --benchmark-enable
"""

import numpy as np

from mtunlearn import GenConfig, Subset, generate_synthetic, mia_auc, subset_gradient
from mtunlearn.linalg import orthonormalize
from mtunlearn.model import MultiTaskModel, balanced_init_edit

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


def test_bench_subset_gradient(benchmark):
    problem = generate_synthetic(SHAPES)
    ds = problem.dataset
    subset = Subset.from_pairs(ds, ds.all_pairs())
    edit = balanced_init_edit(np.zeros((16, 12)), rank=6, seed=0)
    model = MultiTaskModel(edit=edit, heads=tuple(problem.heads))
    ga, gb = benchmark(subset_gradient, model, ds, subset, weighted=True)
    assert ga.shape == (12, 6) and gb.shape == (16, 6)
    assert np.all(np.isfinite(ga)) and np.all(np.isfinite(gb))


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
