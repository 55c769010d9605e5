import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mtunlearn import GenConfig, generate_synthetic
from mtunlearn.model import LowRankEdit, subset_loss


@pytest.fixture
def small_problem():
    cfg = GenConfig(
        n_instances=12,
        input_dim=5,
        n_tasks=3,
        task_dims=(2, 1, 3),
        shared_dim=4,
        teacher_rank=2,
        noise_std=0.1,
        seed=7,
        n_val=8,
    )
    return generate_synthetic(cfg)


def flatten_params(edit):
    """The edit's parameters in ``flattened_hessian`` order: a.ravel(), b.ravel()."""
    return np.concatenate([edit.a.ravel(), edit.b.ravel()])


def unflatten_params(edit, theta):
    """The edit with (a, b) read back from ``theta`` in ``flatten_params`` order."""
    k, r = edit.a.shape
    d = edit.b.shape[0]
    a = theta[: k * r].reshape(k, r)
    b = theta[k * r :].reshape(d, r)
    return LowRankEdit(w_star=edit.w_star, a=a, b=b)


def fd_gradient(model, ds, pairs, h=1e-6):
    """Central-difference gradient of the subset-mean loss over (a, b)."""
    theta0 = flatten_params(model.edit)
    grad = np.zeros_like(theta0)
    for i in range(theta0.size):
        for sign in (1.0, -1.0):
            theta = theta0.copy()
            theta[i] += sign * h
            shifted = model.with_edit(unflatten_params(model.edit, theta))
            grad[i] += sign * subset_loss(shifted, ds, pairs)
    return grad / (2 * h)


def fd_hessian_from_gradient(model, ds, pairs, h=1e-5):
    """Differentiate the analytic gradient with central differences."""
    from mtunlearn.model import subset_gradient

    theta0 = flatten_params(model.edit)
    n = theta0.size

    def grad_at(theta):
        shifted = model.with_edit(unflatten_params(model.edit, theta))
        ga, gb = subset_gradient(shifted, ds, pairs)
        return np.concatenate([ga.ravel(), gb.ravel()])

    hess = np.zeros((n, n))
    for i in range(n):
        plus = theta0.copy()
        plus[i] += h
        minus = theta0.copy()
        minus[i] -= h
        hess[:, i] = (grad_at(plus) - grad_at(minus)) / (2 * h)
    return hess
