import dataclasses
import re
import warnings

import numpy as np
import pytest

from mtunlearn import surgery, theory
from mtunlearn.errors import CurvatureError, DimensionError, EmptySubsetError
from mtunlearn.linalg import frob_inner, frob_norm, orthonormalize, solve_spd
from mtunlearn.subspace import alignment
from mtunlearn.theory import (
    actual_interference,
    aggregate_interference,
    check_aggregation_linearity,
    check_first_order_interference,
    check_optimal_direction,
    check_orthogonalization_identity,
    check_projection_bound,
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
    e = prob.retain_features @ theta - prob.retain_targets
    g = np.einsum("imp,im->p", prob.retain_features, e) / len(e)
    return g + prob.ridge * theta


def predicted_interference(prob):
    return np.array([predict_interference(prob, i) for i in range(len(prob.retain_targets))])


def per_pair_reference(dim, n_instances, n_tasks, out_dim, n_forget_instances, rho, seed,
                       subset, ridge=1e-2):
    """The problem built one (instance, features, target) tuple per pair and
    summed over pairs in Python, with its interference and the aggregate
    over the retained pairs ``subset``."""
    rng = np.random.default_rng(seed)
    task_ops = [rng.standard_normal((out_dim, dim)) / np.sqrt(dim) for _ in range(n_tasks)]
    theta_true = rng.standard_normal(dim)
    retain, forget = [], []
    for i in range(n_instances):
        scale = 1.0 + 0.5 * rng.standard_normal(dim)
        for t in range(n_tasks):
            phi = task_ops[t] * scale[None, :]
            y = phi @ theta_true + 0.1 * rng.standard_normal(out_dim)
            (forget if i < n_forget_instances else retain).append((i, phi, y))

    def loss(f, y, theta):
        e = f @ theta - y
        return 0.5 * float(e @ e)

    def gradient(f, y, theta):
        return f.T @ (f @ theta - y)

    h_r = sum(f.T @ f for _, f, _ in retain) / len(retain) + ridge * np.eye(dim)
    h_f = sum(f.T @ f for _, f, _ in forget) / len(forget)
    b_r = sum(f.T @ y for _, f, y in retain) / len(retain)
    b_f = sum(f.T @ y for _, f, y in forget) / len(forget)
    theta_r = solve_spd(h_r, b_r)
    theta_star = solve_spd(h_r + rho * h_f, b_r + rho * b_f)
    grad_forget = sum(gradient(f, y, theta_r) for _, f, y in forget) / len(forget)
    shift = solve_spd(h_r, grad_forget)
    total = sum(gradient(*retain[k][1:], theta_r) for k in subset)
    return {
        "retain_instances": np.array([i for i, _, _ in retain]),
        "h_r": h_r,
        "h_f": h_f,
        "theta_r": theta_r,
        "theta_star": theta_star,
        "grad_forget": grad_forget,
        "actual": np.array([loss(f, y, theta_r) - loss(f, y, theta_star) for _, f, y in retain]),
        "predicted": np.array(
            [rho * float(gradient(f, y, theta_r) @ shift) for _, f, y in retain]
        ),
        "aggregate": rho * float(total @ shift),
    }


@pytest.mark.parametrize(
    "shape",
    [
        # (dim, n_instances, n_tasks, out_dim, n_forget_instances): the two
        # suites' shapes, then odd ones.
        (10, 8, 3, 2, 2),
        (40, 8, 3, 2, 2),
        (12, 6, 3, 2, 2),
        (10, 6, 2, 2, 2),
        (5, 4, 1, 3, 1),
        (7, 5, 4, 1, 3),
    ],
)
def test_stacked_problem_equals_per_pair_reference_to_the_bit(shape):
    dim, n_instances, n_tasks, out_dim, n_forget = shape
    subset = list(range(0, (n_instances - n_forget) * n_tasks, 2))
    for seed in (0, 1017):
        args = (dim, n_instances, n_tasks, out_dim, n_forget, 0.03, seed)
        prob = random_quadratic_problem(*args)
        ref = per_pair_reference(*args, subset=subset)
        got = {
            "retain_instances": prob.retain_instances,
            "h_r": prob.h_r,
            "h_f": prob.h_f,
            "theta_r": prob.theta_r,
            "theta_star": prob.theta_star,
            "grad_forget": prob.grad_forget(prob.theta_r),
            "actual": actual_interference(prob),
            "predicted": predicted_interference(prob),
        }
        for name, value in got.items():
            assert np.array_equal(value, ref[name]), name
        assert aggregate_interference(prob, subset) == ref["aggregate"]


@pytest.mark.parametrize(
    "indices",
    [[-1], [8], [0, 3, -2, 5]],
    ids=["negative", "n_r", "one-bad-in-list"],
)
def test_pair_indices_out_of_range_are_named(indices, monkeypatch):
    prob = random_quadratic_problem(10, 6, 2, 2, 2, 0.01, 0)
    n_r = len(prob.retain_targets)
    assert n_r == 8
    bad = next(i for i in indices if not 0 <= i < n_r)
    monkeypatch.setattr(theory, "solve_spd", lambda *a: pytest.fail("solved before the check"))
    message = rf"^retained-pair index {bad} not in \[0, n_r = {n_r}\)$"
    with pytest.raises(DimensionError, match=message):
        aggregate_interference(prob, indices)
    if len(indices) == 1:
        with pytest.raises(DimensionError, match=message):
            predict_interference(prob, indices[0])


@pytest.mark.parametrize(
    "index, message",
    [
        (3.0, "retained-pair index 3.0 is not an integer"),
        (True, "retained-pair index True is not an integer"),
        (np.array([1, 2]), r"retained-pair index \[1 2\] is not an integer"),
        (np.int64(8), r"retained-pair index 8 not in \[0, n_r = 8\)"),
    ],
    ids=["float", "bool", "array", "numpy-int-out-of-range"],
)
def test_a_bad_pair_index_is_named(index, message, monkeypatch):
    prob = random_quadratic_problem(10, 6, 2, 2, 2, 0.01, 0)
    monkeypatch.setattr(theory, "solve_spd", lambda *a: pytest.fail("solved before the check"))
    with pytest.raises(DimensionError, match=f"^{message}$"):
        predict_interference(prob, index)


@pytest.mark.parametrize(
    "indices, message",
    [
        ([True, False], "retained-pair index True is not an integer"),
        ([0, 3.0], "retained-pair index 3.0 is not an integer"),
        (np.array([0.0, 1.0]), "retained-pair index 0.0 is not an integer"),
        (3.0, "retained-pair indices must be 1-D, got 3.0"),
        ([[0, 1]], r"retained-pair indices must be 1-D, got \[\[0, 1\]\]"),
    ],
    ids=["bools", "one-float", "float-array", "scalar", "2-D"],
)
def test_bad_aggregate_indices_are_named(indices, message, monkeypatch):
    prob = random_quadratic_problem(10, 6, 2, 2, 2, 0.01, 0)
    monkeypatch.setattr(theory, "solve_spd", lambda *a: pytest.fail("solved before the check"))
    with pytest.raises(DimensionError, match=f"^{message}$"):
        aggregate_interference(prob, indices)


def test_numpy_integer_pair_indices_are_accepted():
    prob = random_quadratic_problem(10, 6, 2, 2, 2, 0.01, 0)
    assert predict_interference(prob, np.int32(3)) == predict_interference(prob, 3)
    assert aggregate_interference(prob, np.array([1, 4], dtype=np.uint8)) == (
        aggregate_interference(prob, [1, 4])
    )


def projection_bound_reference(n_draws, seed):
    """``check_projection_bound`` one draw at a time through the 2-D library
    calls. Each block draws its bases, then its gradients, as the suite does."""
    rng = np.random.default_rng(seed)
    n_shape = n_draws // 4 + 1
    worst_excess = -np.inf
    count = 0
    for rank in (4, 16):
        for dim in (1, rank // 2):
            for start in range(0, n_shape, theory.DRAW_BLOCK):
                size = min(theory.DRAW_BLOCK, n_shape - start)
                raw = rng.standard_normal((size, 2, rank, dim))
                grads = rng.standard_normal((size, 2, 5, rank))
                for (raw_u, raw_v), (g1, g2) in zip(raw, grads):
                    u, v = orthonormalize(raw_u), orthonormalize(raw_v)
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


def orthogonalization_identity_reference(n_draws, seed):
    """``check_orthogonalization_identity`` one draw at a time through the 2-D
    library calls: the per-shape counts, then each shape's draws in turn."""
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_draws, [1 / 25] * 25)
    worst_rel = 0.0
    worst_exact = 0.0
    for i, count in enumerate(counts):
        shape = (i // 5 + 1, i % 5 + 1)
        for _ in range(count):
            g_f, g_r = rng.standard_normal((2, *shape))
            base = abs(frob_inner(g_f, g_r))
            norm_r = frob_norm(g_r)
            scale = frob_norm(g_f) * norm_r
            for eps in (0.0, 1e-8, 1e-3, 1.0):
                out = surgery.orthogonalize(g_f, g_r, eps)
                residual = abs(frob_inner(out, g_r))
                # Not norm_r**2: a scalar power goes through pow, which can
                # differ in the last bit from the suite's array square.
                expected = eps / (norm_r * norm_r + eps) * base
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


# 1 and 5 draws leave every block partial, 33 fills one block and starts
# the next, and 1000 is the suites' default, which `verify` runs.
@pytest.mark.parametrize("n_draws", [1, 5, 33, 1000])
@pytest.mark.parametrize("seed", range(4))
def test_stacked_suites_equal_per_draw_reference(n_draws, seed):
    # Reports are compared as the JSON text `verify` writes, so every float
    # must match to the bit.
    for suite, reference in [
        (check_projection_bound, projection_bound_reference),
        (check_orthogonalization_identity, orthogonalization_identity_reference),
    ]:
        got = theory.report_to_json(suite(n_draws=n_draws, seed=seed))
        assert got == theory.report_to_json(reference(n_draws, seed))


@pytest.mark.parametrize("seed", range(12))
def test_stacked_suites_pass_at_their_defaults(seed):
    # Both check theorems, so no seed may fail them.
    assert check_projection_bound(seed=seed)["passed"]
    assert check_orthogonalization_identity(seed=seed)["passed"]


def test_suite_blocks_are_bounded_and_cover_every_shape(monkeypatch):
    # At the default 1000 draws: the stacks that the suites orthonormalize and
    # measure hold at most DRAW_BLOCK draws and add up to every draw, and the
    # orthogonalization suite measures all 25 shapes up to 5x5.
    stacks = {"orthonormalize": [], "_identity_deviations": []}
    for name, shapes in stacks.items():
        call = getattr(theory, name)
        monkeypatch.setattr(
            theory, name, lambda a, call=call, shapes=shapes: shapes.append(a.shape) or call(a)
        )
    report = check_projection_bound()
    check_orthogonalization_identity()
    bases, pairs = stacks["orthonormalize"], stacks["_identity_deviations"]
    assert sum(shape[0] for shape in bases) == report["draws"] == 4 * 251
    assert sum(shape[0] for shape in pairs) == 1000
    assert max(shape[0] for shape in bases + pairs) <= theory.DRAW_BLOCK
    assert {shape[2:] for shape in pairs} == {(r, c) for r in range(1, 6) for c in range(1, 6)}


@pytest.mark.parametrize(
    "name, suite",
    [
        ("project_task", check_projection_bound),
        ("orthogonalize", check_orthogonalization_identity),
    ],
)
def test_suites_reject_a_non_finite_library_result(name, suite, monkeypatch):
    monkeypatch.setattr(surgery, name, lambda g, *args: np.full_like(g, np.nan))
    with pytest.raises(DimensionError, match="^a contains non-finite entries$"):
        suite(n_draws=5)


def test_minimizers_satisfy_stationarity():
    prob = small_quadratic()
    assert np.linalg.norm(grad_retain(prob, prob.theta_r)) <= 1e-9
    combined = grad_retain(prob, prob.theta_star) + prob.rho * prob.grad_forget(
        prob.theta_star
    )
    assert np.linalg.norm(combined) <= 1e-9


def test_empty_pair_sets_rejected():
    prob = small_quadratic()
    for side in ("retain", "forget"):
        empty = {
            name: getattr(prob, name)[:0]
            for name in (f"{side}_features", f"{side}_targets")
        }
        with pytest.raises(EmptySubsetError):
            dataclasses.replace(prob, **empty)
    with pytest.raises(EmptySubsetError):
        aggregate_interference(prob, [])
    for n_forget in (0, -1, 2):
        with pytest.raises(DimensionError, match="n_forget_instances"):
            random_quadratic_problem(
                dim=4, n_instances=2, n_tasks=2, out_dim=1,
                n_forget_instances=n_forget, rho=0.1, seed=0,
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
    actual = actual_interference(prob)
    predicted = predicted_interference(prob)
    assert np.linalg.norm(actual - predicted) <= 0.10 * np.linalg.norm(actual)


def test_aggregation_is_exactly_linear():
    prob = small_quadratic()
    subset = range(5)
    direct = aggregate_interference(prob, subset)
    summed = sum(predict_interference(prob, i) for i in subset)
    assert direct == pytest.approx(summed, abs=1e-12)


def test_residual_is_second_order_in_rho():
    # The fit reweights prob's data, so prob's own rho does not enter it.
    prob = small_quadratic(rho=0.5, seed=3)
    fit = residual_order_fit(prob, [0.04, 0.01, 0.02])
    assert fit["rho"] == [0.01, 0.02, 0.04]
    for rho, residual in zip(fit["rho"], fit["residual"], strict=True):
        ref = small_quadratic(rho=rho, seed=3)
        errors = np.abs(actual_interference(ref) - predicted_interference(ref))
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


def problem_arrays(prob):
    return {
        name: getattr(prob, name)
        for name in ("h_r", "h_f", "b_r", "b_f", "theta_r", "theta_star", "g_f")
    } | {"actual": actual_interference(prob), "predicted": predicted_interference(prob)}


@pytest.mark.parametrize("seed", [0, 5, 1017])
def test_a_rho_variant_equals_the_rebuilt_problem_to_the_bit(seed):
    prob = random_quadratic_problem(20, 8, 3, 2, 2, 0.01, seed)
    base = problem_arrays(prob)
    for rho in (0.01, 0.02, np.float64(0.04), 0.5):
        variant = prob.with_rho(rho)
        assert variant.rho == rho and variant.h_r_factor is prob.h_r_factor
        rebuilt = problem_arrays(dataclasses.replace(prob, rho=rho))
        for name, value in problem_arrays(variant).items():
            assert value.tobytes() == rebuilt[name].tobytes(), (rho, name)
    # The base problem is left as it was.
    assert prob.rho == 0.01
    for name, value in problem_arrays(prob).items():
        assert value.tobytes() == base[name].tobytes(), name


@pytest.mark.parametrize("seed", range(3))
def test_reports_equal_a_run_that_refactors_for_every_solve(seed, monkeypatch):
    factored = theory.report_to_json(run_all_checks(seed=seed))
    # With the factor left a matrix, every solve against h_r validates and
    # factors it again.
    monkeypatch.setattr(theory, "spd_factor", lambda h: h)
    prob = small_quadratic()
    assert prob.h_r_factor is prob.h_r
    assert theory.report_to_json(run_all_checks(seed=seed)) == factored


@pytest.mark.parametrize(
    "rho_list, message",
    [
        ([0.01], "needs at least two distinct values, got [0.01]"),
        ([0.01, 0.01], "needs at least two distinct values, got [0.01, 0.01]"),
        ([], "needs at least two distinct values, got []"),
        ([np.nan, 0.01], "must hold finite values > 0"),
        ([0.01, np.inf], "must hold finite values > 0, got [0.01, inf]"),
        ([-0.01, 0.01], "must hold finite values > 0, got [-0.01, 0.01]"),
    ],
    ids=["one", "repeated", "empty", "nan", "inf", "negative"],
)
def test_residual_order_fit_needs_two_distinct_finite_positive_rho(rho_list, message):
    prob = small_quadratic()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # polyfit's RankWarning would escape pytest.raises
        with pytest.raises(ValueError, match="^rho_list " + re.escape(message)):
            residual_order_fit(prob, rho_list)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_first_order_interference(n_instances_checked=0), "n_instances_checked"),
        (lambda: check_aggregation_linearity(n_instances_checked=0), "n_instances_checked"),
        (lambda: check_optimal_direction(n_instances_checked=0), "n_instances_checked"),
        (lambda: check_optimal_direction(n_instances_checked=1, n_samples=0), "n_samples"),
        (lambda: check_projection_bound(n_draws=0), "n_draws"),
        (lambda: check_orthogonalization_identity(n_draws=-1), "n_draws"),
        (lambda: constraint_plane_samples(np.ones(2), np.ones(2), 0, 0), "n_samples"),
    ],
    ids=["first-order", "aggregation", "optimal-trials", "optimal-samples", "projection",
         "orthogonalization", "samples"],
)
def test_a_suite_that_would_measure_nothing_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message} must be at least 1, got -?[01]$"):
        call()


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, -0.5])
def test_constraint_plane_samples_refuse_a_bad_radius(radius):
    with pytest.raises(ValueError, match=f"^radius must be finite and >= 0, got {radius}$"):
        constraint_plane_samples(np.ones(2), np.ones(2), 5, 0, radius=radius)
    # A zero radius is the constrained point itself.
    assert np.array_equal(
        constraint_plane_samples(np.ones(2), np.ones(2), 3, 0, radius=0.0), np.ones((3, 2))
    )


@pytest.mark.parametrize(
    "delta_star",
    [np.nan, 5.0, np.ones(3), np.ones((1, 3)), np.array([1.0, np.nan]), np.array([np.inf, 0.0])],
    ids=["nan", "scalar", "too-long", "2-d", "nan-entry", "inf-entry"],
)
def test_constraint_plane_samples_refuse_a_bad_delta_star(delta_star):
    with pytest.raises(DimensionError, match="^delta_star "):
        constraint_plane_samples(np.ones(2), delta_star, 2, 0)


def test_optimal_direction_checks_g_f_against_h_r():
    with pytest.raises(DimensionError, match=r"^g_f has 2 entries, but h_r is 3 x 3$"):
        optimal_direction(np.eye(3), np.ones(2), 1.0)
    # A matching g_f of any shape is flattened, as before.
    assert optimal_direction(np.eye(2), np.ones((2, 1)), 2.0).tolist() == [1.0, 1.0]
