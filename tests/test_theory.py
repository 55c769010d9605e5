import numpy as np
import pytest

from mtunlearn import theory
from mtunlearn.errors import CurvatureError, DimensionError, EmptySubsetError
from mtunlearn.theory import (
    QuadraticPair,
    QuadraticProblem,
    actual_interference,
    aggregate_interference,
    constraint_plane_samples,
    optimal_direction,
    predict_interference,
    quadratic_cost,
    random_quadratic_problem,
    residual_order_fit,
    run_all_checks,
)


def small_quadratic(rho=0.01, seed=0):
    return random_quadratic_problem(
        dim=10,
        n_instances=6,
        n_tasks=2,
        out_dim=2,
        n_forget_instances=2,
        rho=rho,
        seed=seed,
    )


def grad_retain(prob, theta):
    """Gradient of the ridge-regularized retain-mean loss."""
    g = sum(q.gradient(theta) for q in prob.retain_pairs) / len(prob.retain_pairs)
    return g + prob.ridge * theta


def test_minimizers_satisfy_stationarity():
    prob = small_quadratic()
    assert np.linalg.norm(grad_retain(prob, prob.theta_r)) <= 1e-9
    combined = grad_retain(prob, prob.theta_star) + prob.rho * prob.grad_forget(
        prob.theta_star
    )
    assert np.linalg.norm(combined) <= 1e-9


def test_empty_pair_sets_rejected():
    prob = small_quadratic()
    with pytest.raises(EmptySubsetError):
        QuadraticProblem(retain_pairs=[], forget_pairs=prob.forget_pairs, rho=0.1, ridge=1e-2)
    with pytest.raises(EmptySubsetError):
        aggregate_interference(prob, [])
    with pytest.raises(DimensionError):
        random_quadratic_problem(
            dim=4, n_instances=2, n_tasks=2, out_dim=1,
            n_forget_instances=2, rho=0.1, seed=0,
        )


def test_prediction_close_at_small_rho():
    prob = random_quadratic_problem(
        dim=10,
        n_instances=8,
        n_tasks=3,
        out_dim=2,
        n_forget_instances=2,
        rho=0.01,
        seed=1000,
    )
    actual = np.array([actual_interference(prob, q) for q in prob.retain_pairs])
    predicted = np.array([predict_interference(prob, q) for q in prob.retain_pairs])
    assert np.linalg.norm(actual - predicted) <= 0.10 * np.linalg.norm(actual)


def test_aggregation_is_exactly_linear():
    prob = small_quadratic()
    subset = prob.retain_pairs[:5]
    direct = aggregate_interference(prob, subset)
    summed = sum(predict_interference(prob, q) for q in subset)
    assert direct == pytest.approx(summed, abs=1e-12)


def test_residual_is_second_order_in_rho():
    # The fit reweights prob's data, so prob's own rho does not enter it.
    prob = small_quadratic(rho=0.5, seed=3)
    fit = residual_order_fit(prob, [0.04, 0.01, 0.02])
    assert fit["rho"] == [0.01, 0.02, 0.04]
    for rho, residual in zip(fit["rho"], fit["residual"], strict=True):
        ref = small_quadratic(rho=rho, seed=3)
        errors = [
            abs(actual_interference(ref, q) - predict_interference(ref, q))
            for q in ref.retain_pairs
        ]
        assert residual == float(np.mean(errors))
    assert fit["slope"] >= 1.7
    # halving rho roughly quarters the residual
    ratio = fit["residual"][1] / fit["residual"][0]
    assert 3.0 <= ratio <= 5.0
    with pytest.raises(ValueError):
        residual_order_fit(prob, [0.0, 0.01])


def test_optimal_direction_satisfies_constraint_and_beats_samples():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 8))
    h = m @ m.T / 8 + 0.5 * np.eye(8)
    g = rng.standard_normal(8)
    gamma = 1.3
    delta = optimal_direction(h, g, gamma)
    assert float(g @ delta) == pytest.approx(gamma, rel=1e-10)
    best = quadratic_cost(h, delta)
    for sample in constraint_plane_samples(g, delta, 200, seed=1):
        assert float(g @ sample) == pytest.approx(gamma, rel=1e-8)
        assert quadratic_cost(h, sample) >= best - 1e-9


def test_optimal_direction_eigenvector_case_matches_raw_gradient():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((6, 6))
    h = m @ m.T / 6 + 0.5 * np.eye(6)
    _, evecs = np.linalg.eigh(h)
    g = evecs[:, 2]
    delta = optimal_direction(h, g, gamma=0.7)
    raw = (0.7 / float(g @ g)) * g
    assert quadratic_cost(h, raw) == pytest.approx(quadratic_cost(h, delta), abs=1e-12)


def test_optimal_direction_input_validation():
    h = np.eye(3)
    with pytest.raises(ValueError):
        optimal_direction(h, np.ones(3), gamma=0.0)
    with pytest.raises(DimensionError):
        optimal_direction(h, np.zeros(3), gamma=1.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: optimal_direction(np.eye(3), np.ones(3), np.nan), ValueError, "gamma"),
        (lambda: optimal_direction(np.eye(3), np.ones(3), np.inf), ValueError, "gamma"),
        (lambda: constraint_plane_samples(np.zeros(3), np.ones(3), 5, 0), DimensionError, "g_f"),
        pytest.param(
            lambda: constraint_plane_samples(np.array([1.0, np.inf]), np.ones(2), 5, 0),
            DimensionError,
            "^g_f contains non-finite entries$",
            id="g_f-inf",
        ),
        pytest.param(
            lambda: constraint_plane_samples(np.array([np.nan, 1.0]), np.ones(2), 5, 0),
            DimensionError,
            "^g_f contains non-finite entries$",
            id="g_f-nan",
        ),
    ],
)
def test_non_finite_or_zero_arguments_are_named(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_constraint_plane_samples_equal_a_draw_at_a_time_loop():
    def loop_reference(g_f, delta_star, n_samples, seed, radius=1.0):
        rng = np.random.default_rng(seed)
        g = np.asarray(g_f, dtype=float).ravel()
        g_unit = g / np.linalg.norm(g)
        out = []
        for _ in range(n_samples):
            z = rng.standard_normal(g.size)
            w = z - (g_unit @ z) * g_unit
            out.append(delta_star + radius * w)
        return out

    rng = np.random.default_rng(9)
    for p in (1, 2, 8, 16, 24, 33):
        g, delta = rng.standard_normal(p), rng.standard_normal(p)
        for radius in (1.0, 0.3):
            block = constraint_plane_samples(g, delta, 300, seed=p, radius=radius)
            assert block.shape == (300, p)
            assert np.array_equal(block, np.array(loop_reference(g, delta, 300, p, radius)))


def test_optimal_direction_names_a_nonpositive_denominator():
    # g_f^T H^-1 g_f underflows to zero although g_f itself is nonzero.
    with pytest.raises(CurvatureError, match=r"g_f\^T H_r\^-1 g_f = 0$"):
        optimal_direction(np.eye(2), np.array([1e-200, 0.0]), gamma=1.0)


def test_all_suites_pass_and_are_deterministic():
    r1 = run_all_checks(seed=0)
    assert r1["all_passed"], [s for s in r1["suites"] if not s["passed"]]
    assert len(r1["suites"]) == 5
    r2 = run_all_checks(seed=0)
    assert theory.report_to_json(r1) == theory.report_to_json(r2)


def test_report_json_is_loadable():
    import json

    report = run_all_checks(seed=1)
    doc = json.loads(theory.report_to_json(report))
    assert doc["schema_version"] == theory.THEORY_SCHEMA_VERSION
    assert {s["suite"] for s in doc["suites"]} == {
        "first_order_interference",
        "aggregation_linearity",
        "optimal_direction",
        "projection_bound",
        "orthogonalization_identity",
    }
