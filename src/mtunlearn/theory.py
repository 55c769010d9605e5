"""Numeric verification of the interference analysis.

Quadratic multi-task least-squares instances have closed-form minimizers,
so the exact loss change between the all-data and retain-only optima can
be compared against its first-order Hessian-preconditioned prediction
without any optimizer noise. The module also hosts the randomized
harnesses for the projected-gradient alignment bound and the
orthogonalization residual identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import surgery
from .errors import CurvatureError, DimensionError, EmptySubsetError
from .linalg import frob_inner, frob_norm, orthonormalize, solve_spd
from .subspace import alignment

THEORY_SCHEMA_VERSION = 1

# Draws the randomized suites measure per stacked call. Bounded blocks keep
# the stacks' memory independent of the number of draws.
DRAW_BLOCK = 32


def _pair_sum(features: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``sum_i F_i^T R_i`` over the stacked pairs. Axis 0 is summed one pair
    after another, so the result equals a Python ``sum`` to the bit."""
    return (features.mT @ right).sum(axis=0)


@dataclass
class QuadraticProblem:
    """Retain/forget quadratic losses with closed-form minimizers.

    Each side stacks its (instance, task) pairs: pair i has features F_i
    (m x p), targets y_i (m) and loss 0.5 |F_i theta - y_i|^2. The retain
    loss is the mean pair loss plus a small ridge term, so its Hessian is
    positive definite; ``rho`` weights the forget loss in the combined
    objective that defines the pre-unlearning optimum.
    """

    retain_features: np.ndarray  # n_r x m x p
    retain_targets: np.ndarray  # n_r x m
    retain_instances: np.ndarray  # n_r
    forget_features: np.ndarray  # n_f x m x p
    forget_targets: np.ndarray  # n_f x m
    rho: float
    ridge: float

    def __post_init__(self):
        n_r, n_f = len(self.retain_features), len(self.forget_features)
        if not n_r or not n_f:
            raise EmptySubsetError("need nonempty retain and forget pair sets")
        f_r, f_f = self.retain_features, self.forget_features
        self.h_r = _pair_sum(f_r, f_r) / n_r + self.ridge * np.eye(f_r.shape[2])
        self.h_f = _pair_sum(f_f, f_f) / n_f
        b_r = _pair_sum(f_r, self.retain_targets[..., None])[:, 0] / n_r
        b_f = _pair_sum(f_f, self.forget_targets[..., None])[:, 0] / n_f
        self.theta_r = solve_spd(self.h_r, b_r)
        self.theta_star = solve_spd(self.h_r + self.rho * self.h_f, b_r + self.rho * b_f)
        self.g_f = self.grad_forget(self.theta_r)  # the forget gradient at the retain optimum

    def grad_forget(self, theta: np.ndarray) -> np.ndarray:
        e = self.forget_features @ theta - self.forget_targets
        return _pair_sum(self.forget_features, e[..., None])[:, 0] / len(e)


def random_quadratic_problem(
    dim: int,
    n_instances: int,
    n_tasks: int,
    out_dim: int,
    n_forget_instances: int,
    rho: float,
    seed: int,
    ridge: float = 1e-2,
) -> QuadraticProblem:
    """Multi-task ridge least-squares instance with shared task structure.

    Each task owns a fixed feature operator; each instance modulates it by
    a random diagonal, so tasks are genuinely coupled through the shared
    parameter vector. Pairs are instance-major, and the pairs of the
    first ``n_forget_instances`` instances are forgotten.
    """
    if not 1 <= n_forget_instances < n_instances:
        raise DimensionError(f"n_forget_instances {n_forget_instances} not in [1, {n_instances})")
    rng = np.random.default_rng(seed)
    task_ops = rng.standard_normal((n_tasks, out_dim, dim)) / np.sqrt(dim)
    theta_true = rng.standard_normal(dim)
    # Row i holds instance i's draws in stream order: its diagonal, then
    # each task's target noise.
    draws = rng.standard_normal((n_instances, dim + n_tasks * out_dim))
    scale = 1.0 + 0.5 * draws[:, :dim]
    features = (task_ops[None] * scale[:, None, None, :]).reshape(-1, out_dim, dim)
    noise = draws[:, dim:].reshape(-1, out_dim)
    targets = features @ theta_true + 0.1 * noise
    cut = n_forget_instances * n_tasks
    return QuadraticProblem(
        retain_features=features[cut:],
        retain_targets=targets[cut:],
        retain_instances=np.repeat(np.arange(n_forget_instances, n_instances), n_tasks),
        forget_features=features[:cut],
        forget_targets=targets[:cut],
        rho=rho,
        ridge=ridge,
    )


def _check_pair_indices(prob: QuadraticProblem, indices) -> None:
    """Raise unless every retained-pair index is in [0, n_r)."""
    n_r = len(prob.retain_features)
    for i in np.ravel(indices).tolist():
        if not 0 <= i < n_r:
            raise DimensionError(f"retained-pair index {i} not in [0, n_r = {n_r})")


def predict_interference(prob: QuadraticProblem, index: int) -> float:
    """First-order loss change rho * g_i^T H_r^{-1} grad_Lf of retained pair
    ``index`` at the retain optimum."""
    _check_pair_indices(prob, index)
    shift = solve_spd(prob.h_r, prob.g_f)
    f = prob.retain_features[index]
    g = f.T @ (f @ prob.theta_r - prob.retain_targets[index])
    return prob.rho * float(g @ shift)


def actual_interference(prob: QuadraticProblem) -> np.ndarray:
    """Exact loss change of each retained pair between the retain-only and
    combined optima."""
    e_r = prob.retain_features @ prob.theta_r - prob.retain_targets
    e_s = prob.retain_features @ prob.theta_star - prob.retain_targets
    return 0.5 * np.vecdot(e_r, e_r) - 0.5 * np.vecdot(e_s, e_s)


def aggregate_interference(prob: QuadraticProblem, indices) -> float:
    """Summed first-order interference of the retained pairs ``indices``;
    linear in the pair gradients."""
    if not len(indices):
        raise EmptySubsetError("aggregate over empty subset")
    _check_pair_indices(prob, indices)
    shift = solve_spd(prob.h_r, prob.g_f)
    f = prob.retain_features[indices]
    e = f @ prob.theta_r - prob.retain_targets[indices]
    return prob.rho * float(_pair_sum(f, e[..., None])[:, 0] @ shift)


def _actual_and_predicted(prob: QuadraticProblem):
    """Exact and first-order interference of each retained pair."""
    actual = actual_interference(prob)
    return actual, np.array([predict_interference(prob, i) for i in range(actual.size)])


def residual_order_fit(prob: QuadraticProblem, rho_list) -> dict:
    """Residual |actual - predicted| per rho, with a log-log slope fit.

    ``prob`` is rebuilt for each rho (same data, reweighted), and the
    residual is averaged over retained pairs.
    """
    rho_arr = np.asarray(sorted(rho_list), dtype=float)
    if np.any(rho_arr <= 0):
        raise ValueError("rho values must be positive")
    residuals = []
    for rho in rho_arr:
        actual, predicted = _actual_and_predicted(replace(prob, rho=rho))
        residuals.append(float(np.mean(np.abs(actual - predicted))))
    slope = float(np.polyfit(np.log(rho_arr), np.log(residuals), 1)[0])
    return {
        "rho": rho_arr.tolist(),
        "residual": residuals,
        "slope": slope,
    }


def optimal_direction(h_r, g_f, gamma: float) -> np.ndarray:
    """Retain-cost-minimizing update with a fixed first-order forgetting level.

    delta = (gamma / (g_f^T H_r^{-1} g_f)) * H_r^{-1} g_f; the raw
    gradient direction matches it only when g_f is an eigenvector of H_r.
    """
    g_f = np.asarray(g_f, dtype=float).ravel()
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    if not np.any(g_f):
        raise DimensionError("g_f must be nonzero")
    hinv_g = solve_spd(h_r, g_f)
    denom = float(g_f @ hinv_g)
    if denom <= 0:
        raise CurvatureError(
            f"optimal_direction: not positive definite along g_f: g_f^T H_r^-1 g_f = {denom:.3g}"
        )
    return (gamma / denom) * hinv_g


def quadratic_cost(h_r, delta) -> float:
    delta = np.asarray(delta, dtype=float).ravel()
    return 0.5 * float(delta @ (np.asarray(h_r) @ delta))


def constraint_plane_samples(g_f, delta_star, n_samples, seed, radius=1.0) -> np.ndarray:
    """Random feasible updates, one per row: delta_star plus perturbations orthogonal to g_f.

    The generator fills the ``(n_samples, p)`` block in C order, so row i
    is the i-th of n draws of size p. ``np.vecdot`` takes one dot product
    per row, so each row is the same to the bit as a draw-at-a-time loop.
    """
    g = np.asarray(g_f, dtype=float).ravel()
    if not np.isfinite(g).all():
        raise DimensionError("g_f contains non-finite entries")
    if not np.any(g):
        raise DimensionError("g_f must be nonzero")
    g_unit = g / np.linalg.norm(g)
    # In place: fewer (n_samples, p) temporaries keep the heap from growing.
    w = np.random.default_rng(seed).standard_normal((n_samples, g.size))
    w -= np.vecdot(w, g_unit)[:, None] * g_unit
    w *= radius
    w += delta_star
    return w


# ---------------------------------------------------------------------------
# verification suites


def check_first_order_interference(
    n_instances_checked: int = 20, rho: float = 0.01, rel_tol: float = 0.10, seed: int = 0
) -> dict:
    """First-order prediction vs exact per-pair loss change, plus the order fit.

    The per-instance error is the norm of the vector of per-pair
    prediction errors relative to the norm of the vector of exact
    changes, which stays meaningful when an individual pair's change
    happens to cancel to near zero.
    """
    worst_rel = 0.0
    slope_min = np.inf
    ratios = []
    for trial in range(n_instances_checked):
        prob = random_quadratic_problem(
            dim=10 + (trial % 4) * 10,
            n_instances=8,
            n_tasks=3,
            out_dim=2,
            n_forget_instances=2,
            rho=rho,
            seed=seed * 10_000 + 1000 + trial,
        )
        actual, predicted = _actual_and_predicted(prob)
        rel = np.linalg.norm(actual - predicted) / np.linalg.norm(actual)
        worst_rel = max(worst_rel, float(rel))
        fit = residual_order_fit(prob, [0.01, 0.02, 0.04])
        slope_min = min(slope_min, fit["slope"])
        ratios.append(fit["residual"][1] / max(fit["residual"][0], 1e-300))
    return {
        "suite": "first_order_interference",
        "worst_relative_error": worst_rel,
        "min_slope": float(slope_min),
        "doubling_ratios": ratios,
        "passed": bool(worst_rel <= rel_tol and slope_min >= 1.7),
    }


def check_aggregation_linearity(seed: int = 0, n_instances_checked: int = 10) -> dict:
    """Subset aggregation equals the pairwise sum to machine precision."""
    worst = 0.0
    for trial in range(n_instances_checked):
        prob = random_quadratic_problem(
            dim=12,
            n_instances=6,
            n_tasks=3,
            out_dim=2,
            n_forget_instances=2,
            rho=0.05,
            seed=seed + trial,
        )
        subset = np.flatnonzero(prob.retain_instances < 4)
        direct = aggregate_interference(prob, subset)
        summed = sum(predict_interference(prob, i) for i in subset)
        scale = max(1.0, abs(summed))
        worst = max(worst, abs(direct - summed) / scale)
    return {
        "suite": "aggregation_linearity",
        "worst_deviation": worst,
        "passed": bool(worst <= 1e-10),
    }


def check_optimal_direction(
    n_instances_checked: int = 20, n_samples: int = 1000, seed: int = 0
) -> dict:
    """delta_star beats random feasible updates; raw gradient is strictly worse
    except in constructed eigenvector cases."""
    rng = np.random.default_rng(seed)
    violations = 0
    eigen_gap_max = 0.0
    raw_strictly_worse = True
    for trial in range(n_instances_checked):
        p = 8 + (trial % 3) * 8
        m = rng.standard_normal((p, p))
        h = m @ m.T / p + 0.5 * np.eye(p)
        g = rng.standard_normal(p)
        gamma = 1.0 + rng.random()
        delta_star = optimal_direction(h, g, gamma)
        best = quadratic_cost(h, delta_star)
        deltas = constraint_plane_samples(g, delta_star, n_samples, seed + trial)
        costs = 0.5 * np.vecdot(deltas, deltas @ h)
        violations += int(np.count_nonzero(costs < best - 1e-9))
        # raw gradient at matched forgetting level
        raw = (gamma / float(g @ g)) * g
        if quadratic_cost(h, raw) <= best:
            raw_strictly_worse = False
        # eigenvector construction: raw direction is optimal
        evals, evecs = np.linalg.eigh(h)
        g_eig = evecs[:, trial % p]
        d_eig = optimal_direction(h, g_eig, gamma)
        raw_eig = (gamma / float(g_eig @ g_eig)) * g_eig
        eigen_gap_max = max(
            eigen_gap_max, abs(quadratic_cost(h, raw_eig) - quadratic_cost(h, d_eig))
        )
    return {
        "suite": "optimal_direction",
        "sample_violations": violations,
        "raw_strictly_worse": raw_strictly_worse,
        "eigenvector_gap_max": eigen_gap_max,
        "passed": bool(
            violations == 0 and raw_strictly_worse and eigen_gap_max <= 1e-10
        ),
    }


def check_projection_bound(n_draws: int = 1000, seed: int = 0) -> dict:
    """|<G P_t, G' P_t'>| <= spectral_alignment * |G|_F * |G'|_F on random draws.

    Each block draws its bases' seeds and its gradients one draw at a time,
    in the order a draw-at-a-time loop would, then orthonormalizes the
    whole block's bases in one call and measures it with one stacked
    ``alignment`` and one stacked ``project_task``.
    """
    rng = np.random.default_rng(seed)
    worst_excess = -np.inf
    count = 0
    for rank in (4, 16):
        for dim in (1, rank // 2):
            n_shape = n_draws // 4 + 1
            for start in range(0, n_shape, DRAW_BLOCK):
                size = min(DRAW_BLOCK, n_shape - start)
                raw = np.empty((size, 2, rank, dim))  # [u, v] of each draw, before QR
                grads = np.empty((size, 2, 5, rank))  # [g1, g2] of each draw
                for i in range(size):
                    # init_subspaces(2, rank, dim, "random", seed_i)'s draw
                    raw[i] = np.random.default_rng(rng.integers(2**31)).standard_normal(
                        (2, rank, dim)
                    )
                    grads[i] = rng.standard_normal((2, 5, rank))
                bases = orthonormalize(raw)
                _, spectral = alignment(bases[:, 0], bases[:, 1])
                proj = surgery.project_task(grads, bases)
                lhs = np.abs(frob_inner(proj[:, 0], proj[:, 1]))
                norms = frob_norm(grads)
                rhs = spectral * norms[:, 0] * norms[:, 1]
                worst_excess = max(worst_excess, float(np.max(lhs - rhs)))
                count += size
    return {
        "suite": "projection_bound",
        "draws": count,
        "worst_excess": float(worst_excess),
        "passed": bool(worst_excess <= 1e-9),
    }


def _identity_deviations(draws: list) -> tuple[float, float]:
    """Worst relative deviation (eps > 0) and worst exact alignment (eps = 0)
    of the orthogonalization identity over same-shape ``[g_f, g_r]`` draws."""
    stacked = np.stack(draws)
    g_f, g_r = stacked[:, 0], stacked[:, 1]
    base = np.abs(frob_inner(g_f, g_r))
    norm_r = frob_norm(g_r)
    scale = frob_norm(g_f) * norm_r
    worst_rel = worst_exact = 0.0
    for eps in (0.0, 1e-8, 1e-3, 1.0):
        residual = np.abs(frob_inner(surgery.orthogonalize(g_f, g_r, eps), g_r))
        if eps == 0.0:
            worst_exact = float(np.max(residual / scale))
        else:
            expected = eps / (norm_r**2 + eps) * base
            worst_rel = max(worst_rel, float(np.max(np.abs(residual - expected) / scale)))
    return worst_rel, worst_exact


def check_orthogonalization_identity(n_draws: int = 1000, seed: int = 0) -> dict:
    """Residual alignment equals eps/(|g_r|^2+eps) of the original alignment.

    Both sides of the identity are inner products bounded by
    |g_f|_F * |g_r|_F, and the left side is evaluated with
    cancellation-level rounding error, so deviations are measured
    relative to that scale.

    Draws are taken one at a time, in the order a draw-at-a-time loop
    would, and held per shape; each shape's draws are measured as one
    stack when ``DRAW_BLOCK`` of them are held, and the rest at the end.
    """
    rng = np.random.default_rng(seed)
    deviations = [(0.0, 0.0)]
    held = {}
    for _ in range(n_draws):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        block = held.setdefault(shape, [])
        block.append(rng.standard_normal((2, *shape)))
        if len(block) == DRAW_BLOCK:
            deviations.append(_identity_deviations(held.pop(shape)))
    deviations += [_identity_deviations(block) for block in held.values()]
    worst_rel, worst_exact = map(max, zip(*deviations))
    return {
        "suite": "orthogonalization_identity",
        "worst_relative_deviation": worst_rel,
        "worst_exact_alignment": worst_exact,
        "passed": bool(worst_rel <= 1e-10 and worst_exact <= 1e-12),
    }


def run_all_checks(seed: int = 0) -> dict:
    """Run every verification suite; deterministic in the seed."""
    suites = [
        check_first_order_interference(seed=seed),
        check_aggregation_linearity(seed=seed),
        check_optimal_direction(seed=seed),
        check_projection_bound(seed=seed),
        check_orthogonalization_identity(seed=seed),
    ]
    return {
        "schema_version": THEORY_SCHEMA_VERSION,
        "seed": seed,
        "suites": suites,
        "all_passed": all(s["passed"] for s in suites),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)
