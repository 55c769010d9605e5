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
from .linalg import frob_inner, frob_norm, solve_spd
from .subspace import alignment, init_subspaces

THEORY_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class QuadraticPair:
    """One (instance, task) supervision pair of a linear-in-parameters model."""

    instance_id: int
    task_id: int
    features: np.ndarray  # m x p
    target: np.ndarray  # m

    def loss(self, theta: np.ndarray) -> float:
        e = self.features @ theta - self.target
        return 0.5 * float(e @ e)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self.features.T @ (self.features @ theta - self.target)


@dataclass
class QuadraticProblem:
    """Retain/forget quadratic losses with closed-form minimizers.

    The retain loss is the mean pair loss plus a small ridge term, so its
    Hessian is positive definite; ``rho`` weights the forget loss in the
    combined objective that defines the pre-unlearning optimum.
    """

    retain_pairs: list[QuadraticPair]
    forget_pairs: list[QuadraticPair]
    rho: float
    ridge: float

    def __post_init__(self):
        if not self.retain_pairs or not self.forget_pairs:
            raise EmptySubsetError("need nonempty retain and forget pair sets")
        p = self.dim
        self.h_r = (
            sum(q.features.T @ q.features for q in self.retain_pairs)
            / len(self.retain_pairs)
            + self.ridge * np.eye(p)
        )
        self.h_f = sum(
            q.features.T @ q.features for q in self.forget_pairs
        ) / len(self.forget_pairs)
        b_r = sum(q.features.T @ q.target for q in self.retain_pairs) / len(
            self.retain_pairs
        )
        b_f = sum(q.features.T @ q.target for q in self.forget_pairs) / len(
            self.forget_pairs
        )
        self.theta_r = solve_spd(self.h_r, b_r)
        self.theta_star = solve_spd(
            self.h_r + self.rho * self.h_f, b_r + self.rho * b_f
        )

    @property
    def dim(self) -> int:
        return self.retain_pairs[0].features.shape[1]

    def grad_forget(self, theta: np.ndarray) -> np.ndarray:
        return sum(q.gradient(theta) for q in self.forget_pairs) / len(
            self.forget_pairs
        )


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
    parameter vector.
    """
    if n_forget_instances >= n_instances:
        raise DimensionError("must retain at least one instance")
    rng = np.random.default_rng(seed)
    task_ops = [
        rng.standard_normal((out_dim, dim)) / np.sqrt(dim) for _ in range(n_tasks)
    ]
    theta_true = rng.standard_normal(dim)
    retain, forget = [], []
    for i in range(n_instances):
        scale = 1.0 + 0.5 * rng.standard_normal(dim)
        for t in range(n_tasks):
            phi = task_ops[t] * scale[None, :]
            y = phi @ theta_true + 0.1 * rng.standard_normal(out_dim)
            pair = QuadraticPair(i, t, phi, y)
            (forget if i < n_forget_instances else retain).append(pair)
    return QuadraticProblem(
        retain_pairs=retain, forget_pairs=forget, rho=rho, ridge=ridge
    )


def predict_interference(prob: QuadraticProblem, pair: QuadraticPair) -> float:
    """First-order loss change rho * g_pair^T H_r^{-1} grad_Lf at the retain optimum."""
    shift = solve_spd(prob.h_r, prob.grad_forget(prob.theta_r))
    return prob.rho * float(pair.gradient(prob.theta_r) @ shift)


def actual_interference(prob: QuadraticProblem, pair: QuadraticPair) -> float:
    """Exact loss change between the retain-only and combined optima."""
    return pair.loss(prob.theta_r) - pair.loss(prob.theta_star)


def aggregate_interference(prob: QuadraticProblem, pairs) -> float:
    """Summed first-order interference; linear in the pair gradients."""
    if not pairs:
        raise EmptySubsetError("aggregate over empty subset")
    shift = solve_spd(prob.h_r, prob.grad_forget(prob.theta_r))
    total_grad = sum(p.gradient(prob.theta_r) for p in pairs)
    return prob.rho * float(total_grad @ shift)


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
        reweighted = replace(prob, rho=rho)
        res = [
            abs(actual_interference(reweighted, q) - predict_interference(reweighted, q))
            for q in reweighted.retain_pairs
        ]
        residuals.append(float(np.mean(res)))
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
        actual = np.array([actual_interference(prob, q) for q in prob.retain_pairs])
        predicted = np.array(
            [predict_interference(prob, q) for q in prob.retain_pairs]
        )
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
        task_subset = [q for q in prob.retain_pairs if q.instance_id < 4]
        direct = aggregate_interference(prob, task_subset)
        summed = sum(predict_interference(prob, q) for q in task_subset)
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
    """|<G P_t, G' P_t'>| <= spectral_alignment * |G|_F * |G'|_F on random draws."""
    rng = np.random.default_rng(seed)
    worst_excess = -np.inf
    count = 0
    for rank in (4, 16):
        for dim in (1, rank // 2):
            for _ in range(n_draws // 4 + 1):
                u, v = init_subspaces(2, rank, dim, mode="random", seed=rng.integers(2**31))
                g1 = rng.standard_normal((5, rank))
                g2 = rng.standard_normal((5, rank))
                _, spectral = alignment(u, v)
                lhs = abs(
                    frob_inner(
                        surgery.project_task(g1, u),
                        surgery.project_task(g2, v),
                    )
                )
                rhs = spectral * frob_norm(g1) * frob_norm(g2)
                worst_excess = max(worst_excess, lhs - rhs)
                count += 1
    return {
        "suite": "projection_bound",
        "draws": count,
        "worst_excess": float(worst_excess),
        "passed": bool(worst_excess <= 1e-9),
    }


def check_orthogonalization_identity(n_draws: int = 1000, seed: int = 0) -> dict:
    """Residual alignment equals eps/(|g_r|^2+eps) of the original alignment.

    Both sides of the identity are inner products bounded by
    |g_f|_F * |g_r|_F, and the left side is evaluated with
    cancellation-level rounding error, so deviations are measured
    relative to that scale.
    """
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    worst_exact = 0.0
    for _ in range(n_draws):
        shape = (rng.integers(1, 6), rng.integers(1, 6))
        g_f = rng.standard_normal(shape)
        g_r = rng.standard_normal(shape)
        base = abs(frob_inner(g_f, g_r))
        norm_r = frob_norm(g_r)
        scale = frob_norm(g_f) * norm_r
        for eps in (0.0, 1e-8, 1e-3, 1.0):
            out = surgery.orthogonalize(g_f, g_r, eps)
            residual = abs(frob_inner(out, g_r))
            expected = eps / (norm_r**2 + eps) * base
            if eps == 0.0:
                worst_exact = max(worst_exact, residual / scale)
            else:
                worst_rel = max(worst_rel, abs(residual - expected) / scale)
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
