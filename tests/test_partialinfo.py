import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

import mvreins as mv
from conftest import cone_feedback, make_model
from mvreins.config import load_config
from mvreins.frontier import (DegenerateFrontierError, FrontierUnderflowError,
                              InfeasibleTargetError, dual_value,
                              efficient_frontier)
from mvreins.partialinfo import partial_feedback_strategy, solve_partial
from mvreins.validation import _dual_argmax_check

BENCH_PARTIAL_CFG = Path(__file__).resolve().parents[1] / "bench" / "configs" / "partial.cfg"


@pytest.fixture(scope="module")
def exact_solution(partial_exact_model):
    return solve_partial(partial_exact_model)


def test_modes_labeled(partial_exact_model, partial_filter_model):
    assert solve_partial(partial_exact_model).approximation_mode == "exact"
    assert solve_partial(partial_filter_model).approximation_mode == \
        "projected_drift"


def test_gamma_star_at_vertex_is_riskless_wealth(exact_solution,
                                                 partial_exact_model):
    d0 = exact_solution.d0
    model_at_vertex = dataclasses.replace(
        partial_exact_model,
        objective=dataclasses.replace(partial_exact_model.objective, d=d0))
    sol = solve_partial(model_at_vertex)
    assert sol.gamma_star == 0.0
    assert sol.target_level == pytest.approx(d0, rel=1e-12)


def test_gamma_star_rejects_infeasible_target(partial_exact_model):
    model = dataclasses.replace(
        partial_exact_model,
        objective=dataclasses.replace(partial_exact_model.objective, d=100.0))
    with pytest.raises(InfeasibleTargetError, match="below frontier vertex"):
        solve_partial(model)


def test_gamma_star_degenerate_reduction(exact_solution, partial_exact_model):
    """With degenerate drift and cheap reinsurance the observation filtration
    carries full information, so the two solvers' multipliers must agree."""
    full_model = dataclasses.replace(partial_exact_model, info_mode="full")
    gamma_full = mv.compute_solution(full_model).gamma_star
    assert abs(exact_solution.gamma_star - gamma_full) / abs(gamma_full) <= 1e-9


def test_gamma_star_matches_dual_maximizer(exact_solution, partial_exact_model):
    gamma_closed = exact_solution.gamma_star
    span = 5 * abs(gamma_closed)
    res = optimize.minimize_scalar(
        lambda g: -dual_value(exact_solution, g),
        bounds=(gamma_closed - span, gamma_closed + span), method="bounded",
        options={"xatol": 1e-6})
    assert abs(res.x - gamma_closed) <= 1e-4 * max(1.0, abs(gamma_closed))


def test_dual_value_branches(exact_solution, partial_exact_model):
    # P- branch left of the kink gamma = d - d0, P+ branch right of it
    kink = exact_solution.d - exact_solution.d0
    low = dual_value(exact_solution, kink + 1.0)
    high = dual_value(exact_solution, kink - 1.0)
    assert np.isfinite(low) and np.isfinite(high)
    # the dual is increasing toward gamma* < kink on this instance
    assert exact_solution.gamma_star < kink
    assert high >= low


def test_frontier_vertex_and_quadratic_scaling(exact_solution):
    d0 = exact_solution.d0
    curve = efficient_frontier(exact_solution, [d0, d0 + 1.0, d0 + 2.0, d0 + 4.0])
    assert curve.variance[0] == 0.0
    v1, v2, v4 = curve.variance[1:]
    assert v2 / v1 == pytest.approx(4.0, rel=1e-9)
    assert v4 / v1 == pytest.approx(16.0, rel=1e-9)
    assert np.all(np.diff(curve.variance) > 0)


def test_frontier_rejects_infeasible(exact_solution):
    with pytest.raises(InfeasibleTargetError, match="below frontier vertex"):
        efficient_frontier(exact_solution, [exact_solution.d0 - 1.0])


@pytest.mark.parametrize("kw", [
    {},
    {"T": 5.0, "d": 1.2 * 50.0 * np.exp(0.2)},
    {"a": 1e-9, "m0": 0.040000001},
    {"r": 1e-10, "d": 200.0},
    {"T": 0.01, "d": 60.0},
    {"a": 10.0, "T": 177.0, "d": 1e7},
], ids=["paper44", "scaled-cheap", "tiny-premium", "tiny-r", "short-horizon",
        "exponent-708.07"])
def test_frontier_degenerate_reduction(kw):
    # A full model with theta = eta and its partial twin: the same vertex, the
    # same frontier coefficient and the same gamma*.
    partial_sol = solve_partial(make_model(theta=0.2, eta=0.2, info_mode="partial",
                                           **kw))
    full_sol = mv.compute_solution(make_model(theta=0.2, eta=0.2, **kw))
    assert partial_sol.vertex == full_sol.vertex
    assert partial_sol.frontier_coefficient == pytest.approx(
        full_sol.frontier_coefficient, rel=1e-12)
    assert partial_sol.gamma_star == pytest.approx(full_sol.gamma_star, rel=1e-12)
    grid = partial_sol.vertex + np.array([0.0, 10.0, 500.0, 7000.0])
    partial = efficient_frontier(partial_sol, grid)
    full = efficient_frontier(full_sol, grid)
    np.testing.assert_allclose(partial.variance, full.variance, rtol=1e-9)


def _level(sol, model, t):
    return mv.riskless_level(model, t, sol.target_level)


def test_feedback_zero_on_boundary(exact_solution, partial_exact_model):
    strategy = partial_feedback_strategy(exact_solution, partial_exact_model)
    level = _level(exact_solution, partial_exact_model, 30.0)
    q, pi = strategy(30.0, np.array([level]), np.array([0.06]))
    assert (q[0], pi[0]) == (0.0, 0.0)


def test_feedback_zero_above_boundary_with_positive_drift(exact_solution,
                                                          partial_exact_model):
    strategy = partial_feedback_strategy(exact_solution, partial_exact_model)
    level = _level(exact_solution, partial_exact_model, 30.0)
    q, pi = strategy(30.0, np.array([level + 500.0]), np.array([0.06]))
    assert (q[0], pi[0]) == (0.0, 0.0)


def test_feedback_below_boundary_closed_form(exact_solution,
                                             partial_exact_model):
    strategy = partial_feedback_strategy(exact_solution, partial_exact_model)
    gap = 25.0
    level = _level(exact_solution, partial_exact_model, 30.0)
    q, pi = strategy(30.0, np.array([level - gap]), np.array([0.06]))
    assert q[0] == pytest.approx(1.0 * 0.2 / 1.0 * gap, rel=1e-12)
    assert pi[0] == pytest.approx((0.06 - 0.04) / 1.0 * gap, rel=1e-12)


def test_feedback_negative_filtered_excess_return(exact_solution,
                                                  partial_exact_model):
    # below the boundary with m < r the risky position stays at zero
    strategy = partial_feedback_strategy(exact_solution, partial_exact_model)
    level = _level(exact_solution, partial_exact_model, 30.0)
    q, pi = strategy(30.0, np.array([level - 25.0]), np.array([0.01]))
    assert pi[0] == 0.0
    assert q[0] > 0.0


def test_feedback_cone_constraint_random(exact_solution, partial_exact_model):
    strategy = partial_feedback_strategy(exact_solution, partial_exact_model)
    rng = np.random.default_rng(11)
    for t in rng.uniform(0.0, 100.0, 20):
        q, pi = strategy(t, rng.uniform(-5000.0, 20000.0, 50),
                         rng.uniform(-0.2, 0.3, 50))
        assert np.all(q >= 0.0) and np.all(pi >= 0.0)


def assert_matches_cone_minimizer(sol, model, seed):
    """The strategy against xi_minimizer(sign, coeffs) |X - S(t)| at random
    points of both signs of the gap and of the excess return."""
    strategy = partial_feedback_strategy(sol, model)
    rng = np.random.default_rng(seed)
    for t in rng.uniform(0.0, model.objective.T, 8):
        level = _level(sol, model, t)
        xs = level + level * rng.uniform(-1.0, 1.0, size=64)
        ms = rng.uniform(-0.1, 0.2, size=64)
        qs, pis = strategy(t, xs, ms)
        for x, m, q, pi in zip(xs, ms, qs, pis):
            q_ref, pi_ref = cone_feedback(model, t, x - level, m)
            assert q == pytest.approx(q_ref, rel=1e-12, abs=1e-12)
            assert pi == pytest.approx(pi_ref, rel=1e-12, abs=1e-12)


def test_vectorized_strategy_matches_scalar(exact_solution,
                                            partial_exact_model):
    assert_matches_cone_minimizer(exact_solution, partial_exact_model, seed=3)


def test_strategy_with_premium_surplus_matches_cone_minimizer(
        partial_premium_model):
    # theta != eta and r, sigma jumping inside T: the gap is X - S(t)
    model = partial_premium_model
    assert_matches_cone_minimizer(solve_partial(model), model, seed=5)


@pytest.fixture(scope="module")
def bench_partial():
    """Bench ``partial.cfg``: r jumps at t = 4, sigma at t = 6, h < 0."""
    model, _ = load_config(BENCH_PARTIAL_CFG)
    return solve_partial(model), model


def four_term_strategy(sol, model):
    """The feedback as max(excess, 0) gap^- + max(-excess, 0) gap^+, every
    scalar formed on each call: the reference for the two-pass form."""
    c, mk = model.claim, model.market
    coef_q_minus = c.a * c.eta / c.b ** 2

    def strategy(t, x, m):
        gap = x - mv.riskless_level(model, t, sol.target_level)
        pos, neg = np.maximum(gap, 0.0), np.maximum(-gap, 0.0)
        excess = (m - mk.r(t)) / mk.sigma(t) ** 2
        q = coef_q_minus * neg
        pi = np.maximum(excess, 0.0) * neg + np.maximum(-excess, 0.0) * pos
        return q, pi

    return strategy


def strategy_inputs(t, sol, model, rng):
    """x and m around the switching level and r(t): gap and excess each take
    both signs, and gap = 0 and m = r(t) exactly."""
    level = mv.riskless_level(model, t, sol.target_level)
    r = model.market.r(t)
    dx = np.concatenate([[0.0], rng.uniform(-30.0, 30.0, 7), [-1e-9, 1e-9]])
    dm = np.concatenate([[0.0], rng.uniform(-0.2, 0.2, 7), [-1e-12, 1e-12]])
    x, m = np.meshgrid(level + dx, r + dm)
    return x.ravel(), m.ravel()


def assert_bitwise(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_two_pass_feedback_matches_four_term_form_bitwise(bench_partial):
    sol, model = bench_partial
    strategy = partial_feedback_strategy(sol, model)
    reference = four_term_strategy(sol, model)
    rng = np.random.default_rng(13)
    times = 0.025 * np.arange(400)
    assert 4.0 in times and 6.0 in times
    signs = set()
    for t in times.tolist():
        x, m = strategy_inputs(t, sol, model, rng)
        q, pi = strategy(t, x, m)
        q_ref, pi_ref = reference(t, x, m)
        assert_bitwise(q, q_ref)
        assert_bitwise(pi, pi_ref)
        signs |= set(zip(np.sign(x - mv.riskless_level(model, t, sol.target_level)),
                         np.sign(m - model.market.r(t))))
    assert signs == {(g, e) for g in (-1, 0, 1) for e in (-1, 0, 1)}


def test_strategy_reused_across_grids_matches_fresh_ones(bench_partial):
    """The per-t table serves each grid its own times, and every call returns
    fresh arrays that share no memory with the inputs or with each other."""
    sol, model = bench_partial
    reused = partial_feedback_strategy(sol, model)
    rng = np.random.default_rng(29)
    for dt, n_steps in ((0.1, 100), (0.025, 400)):
        fresh = partial_feedback_strategy(sol, model)
        for k in range(n_steps):
            t = k * dt
            x, m = strategy_inputs(t, sol, model, rng)
            q, pi = reused(t, x, m)
            q_fresh, pi_fresh = fresh(t, x, m)
            assert_bitwise(q, q_fresh)
            assert_bitwise(pi, pi_fresh)
            q_again, pi_again = reused(t, x, m)
            for a in (q, pi):
                for b in (q_again, pi_again, x, m):
                    assert not np.shares_memory(a, b)
            assert not np.shares_memory(q, pi)
            assert_bitwise(q, q_fresh)
            assert_bitwise(pi, pi_fresh)


def test_strategy_called_from_threads_matches_serial(bench_partial):
    """Worker threads call one strategy at once, as the engine's do: more
    threads than cores and a short switch interval must still give every
    call the serial result."""
    sol, model = bench_partial
    rng = np.random.default_rng(31)
    times = (0.025 * np.arange(400)).tolist()
    inputs = [strategy_inputs(t, sol, model, rng) for t in times]
    serial = partial_feedback_strategy(sol, model)
    expected = [serial(t, x, m) for t, (x, m) in zip(times, inputs)]
    shared = partial_feedback_strategy(sol, model)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(shared, t, x, m)
                       for _ in range(4) for t, (x, m) in zip(times, inputs)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (q, pi), (q_ref, pi_ref) in zip(got, expected * 4):
        assert_bitwise(q, q_ref)
        assert_bitwise(pi, pi_ref)


def test_degenerate_denominator_raises(exact_solution):
    # P-(0) = 2 exp(2 int r), past the envelope bound: k- = -log 2 trips the guard.
    bad = dataclasses.replace(exact_solution, kappa_minus=-np.log(2.0))
    with pytest.raises(DegenerateFrontierError, match="frontier denominator"):
        bad.frontier_coefficient


def test_underflowed_frontier_coefficient_is_refused(exact_solution, paper44_model):
    # An exponent of 800 would underflow e^{-k} to a flat frontier: the
    # record of either mode refuses it.
    partial = dataclasses.replace(exact_solution, kappa_minus=800.0)
    full = dataclasses.replace(mv.compute_solution(paper44_model), kappa_minus=800.0)
    for sol in (partial, full):
        with pytest.raises(FrontierUnderflowError, match="frontier exponent 800"):
            sol.frontier_coefficient
        with pytest.raises(FrontierUnderflowError):
            efficient_frontier(sol, [sol.vertex, sol.vertex + 1.0])
    # A coefficient that reached 0.0 another way would still draw no frontier.
    flat = SimpleNamespace(frontier_coefficient=0.0, vertex=1.0)
    with pytest.raises(ValueError, match="frontier coefficient must be positive"):
        efficient_frontier(flat, [1.0, 2.0])


def test_closed_forms_read_only_the_solution(exact_solution, partial_exact_model):
    # Replaced k+/-, d0 and the vertex move every closed form as their formulas say; the
    # model supplies only the target d.
    k_plus, k_minus, d0 = 0.3, 1.2, 40.0
    sol = dataclasses.replace(exact_solution, kappa_plus=k_plus,
                              kappa_minus=k_minus, d0=d0, vertex=d0)
    d = partial_exact_model.objective.d
    coef = 1.0 / np.expm1(k_minus)
    assert sol.frontier_coefficient == pytest.approx(coef, rel=1e-14)
    curve = efficient_frontier(sol, [d0, d0 + 2.0])
    np.testing.assert_allclose(curve.variance, [0.0, 4.0 * coef], rtol=1e-14)
    for gamma, k in ((d - d0 + 1.0, k_plus), (d - d0 - 1.0, k_minus)):
        expected = np.exp(-k) * (gamma + d0 - d) ** 2 - gamma ** 2
        assert dual_value(sol, gamma) == pytest.approx(expected, rel=1e-14)


def test_solve_partial_requires_partial_mode(paper44_model):
    with pytest.raises(ValueError):
        solve_partial(paper44_model)


def test_projected_mode_coefficient_positive(partial_filter_model):
    sol = solve_partial(partial_filter_model)
    assert sol.frontier_coefficient > 0


def test_tiny_claim_rate_keeps_frontier_denominator():
    # The filterdemo model with a = 1e-9 and m0 < r: int kappa- = (a eta / b)^2 T
    # = 4e-19, and 1 - P-(0) e^{-2 int r} must not be formed by subtraction.
    model = make_model(a=1e-9, theta=0.2, eta=0.2, l=3.0, z=2.0, m0=0.01,
                       T=10.0, d=80.0, info_mode="partial")
    sol = solve_partial(model)
    assert sol.kappa_minus == pytest.approx(4e-19, rel=1e-12)
    assert sol.frontier_coefficient == pytest.approx(
        1.0 / np.expm1(4e-19), rel=1e-6)
    assert _dual_argmax_check(
        lambda g: dual_value(sol, g), sol.gamma_star).passed


def test_drift_next_to_rate_keeps_kappa_integral():
    # m0 - r = 1e-9 with h = 0: int (m - r)^2 must not be formed as
    # m^2 T - 2 r m T + r^2 T, which cancels to a 10% error here.  The
    # degenerate partial model equals its full-information twin.
    kw = dict(a=1e-9, theta=0.2, eta=0.2, m0=0.04 + 1e-9)
    sol = solve_partial(make_model(info_mode="partial", **kw))
    full = make_model(**kw)
    minus_two_a1_t = -2.0 * mv.fullinfo._a1(full) * full.objective.T
    assert sol.kappa_minus == pytest.approx(minus_two_a1_t, rel=1e-12)
    assert sol.frontier_coefficient == pytest.approx(
        1.0 / np.expm1(minus_two_a1_t), rel=1e-12)
