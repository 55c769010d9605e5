import base64
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

sys.path.insert(0, str(Path(__file__).parent))

from mtunlearn import GenConfig, generate_synthetic
from mtunlearn.errors import DegenerateBasisError, DimensionError
from mtunlearn.linalg import DEPENDENT_COLUMN_RTOL, as_matrix
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


def count_stacks(monkeypatch):
    """Count the residual and W-gradient stacks the model layer computes,
    rather than reads from a model's memo."""
    from mtunlearn import model

    calls = {"residual": 0, "gradient": 0}
    for key, name in (("residual", "_residual_stack"), ("gradient", "_w_gradient_stack")):

        def counted(*args, _real=getattr(model, name), _key=key):
            calls[_key] += 1
            return _real(*args)

        monkeypatch.setattr(model, name, counted)
    return calls


def orthonormalize_reference(m):
    """Per-matrix reference for ``linalg.orthonormalize``: one 2-D matrix,
    LAPACK ``dgeqrf``/``dorgqr`` called directly, columns checked one by one,
    then signs flipped so that R has a nonnegative diagonal."""
    m = as_matrix(m, "m")
    qr, tau, _, _ = scipy.linalg.lapack.dgeqrf(m)
    diag = qr.diagonal()
    norms = np.linalg.norm(m, axis=0)
    for j, (r_jj, norm) in enumerate(zip(diag.tolist(), norms.tolist())):
        if norm == 0.0:
            raise DegenerateBasisError(f"column {j} is zero")
        if abs(r_jj) < DEPENDENT_COLUMN_RTOL * norm:
            raise DegenerateBasisError(f"column {j} is linearly dependent on earlier columns")
    q, _, _ = scipy.linalg.lapack.dorgqr(qr, tau)
    return q * np.copysign(1.0, diag)


def orthogonalize_reference(g_f, g_r, eps):
    """Per-matrix reference for ``surgery.orthogonalize``: one pair of 2-D
    matrices, with its inner products taken as Python floats."""
    g_f = as_matrix(g_f, "g_f")
    g_r = as_matrix(g_r, "g_r")
    denom = float(np.add.reduce(g_r * g_r, axis=None)) + eps
    if denom == 0.0:
        raise DimensionError("g_r is zero and eps = 0: projection undefined")
    return g_f - (float(np.add.reduce(g_f * g_r, axis=None)) / denom) * g_r


def decode(node):
    """An array that ``data.encode_array`` wrote: base64 of little-endian float64 bytes in C order."""
    assert node["dtype"] == "<f8"
    return np.frombuffer(base64.b64decode(node["data"], validate=True), "<f8").reshape(node["shape"])
