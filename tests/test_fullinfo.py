import numpy as np
import pytest
from scipy import optimize

import mvreins as mv
from mvreins.frontier import InfeasibleTargetError
from mvreins.fullinfo import (NearCurveError, Region, compute_solution,
                              dual_value_full, feedback_full, frontier_full,
                              full_feedback_strategy, gamma_star_full,
                              hjb_residual, solve_pqr, value_function,
                              vertex_constant, viscosity_check)

from conftest import make_model


@pytest.fixture(scope="module")
def paper44_solution(paper44_model):
    return compute_solution(paper44_model)


@pytest.fixture(scope="module")
def scaled_solution(scaled_noncheap_model):
    return compute_solution(scaled_noncheap_model)


def test_a1_value(paper44_solution):
    assert paper44_solution.a1 == pytest.approx(-0.0202, abs=1e-15)


def test_g1_vanishes_at_horizon(paper44_model):
    for gamma in (-500.0, 0.0, 800.0):
        sol = compute_solution(paper44_model, d=10000.0, gamma=gamma)
        assert sol.g1(100.0) == 0.0


def test_g1_identically_zero_cheap_at_target(scaled_cheap_model):
    # eta = theta and gamma = d make the affine drift term vanish
    sol = compute_solution(scaled_cheap_model, d=70.0, gamma=70.0)
    ts = np.linspace(0.0, 5.0, 7)
    assert np.all(sol.g1(ts) == 0.0)


def test_terminal_value_is_half_square(paper44_solution):
    for x in (-3.0, 0.0, 4.0):
        assert value_function(100.0, x, paper44_solution) == 0.5 * x * x


def test_value_zero_on_switching_curve(paper44_solution):
    for t in np.linspace(0.0, 99.0, 8):
        xc = float(paper44_solution.switching_x(t))
        assert abs(value_function(t, xc, paper44_solution)) <= 1e-10


def test_value_region1_exponential_anchor(scaled_cheap_model):
    # g1 = 0 branch: V(0, 1) = e^{2 r T} / 2 at long horizon T = 100
    model = make_model(theta=0.2, eta=0.2, T=100.0, d=10000.0)
    sol = compute_solution(model, d=10000.0, gamma=10000.0)
    assert value_function(0.0, 1.0, sol) == pytest.approx(0.5 * np.exp(8.0),
                                                          rel=1e-12)


def test_value_nonnegative(paper44_solution):
    rng = np.random.default_rng(0)
    for _ in range(300):
        t = rng.uniform(0.0, 100.0)
        x = rng.uniform(-30000.0, 30000.0)
        assert value_function(t, x, paper44_solution) >= 0.0


def test_region_classification(paper44_solution):
    sol = paper44_solution
    t = 40.0
    xc = float(sol.switching_x(t))
    assert sol.region(t, xc) is Region.ON_CURVE
    assert sol.region(t, xc + 1.0) is Region.ABOVE_CURVE
    assert sol.region(t, xc - 1.0) is Region.BELOW_CURVE


def test_feedback_zero_above_curve(paper44_solution, paper44_model):
    sol = paper44_solution
    x = float(sol.switching_x(20.0)) + 50.0
    assert feedback_full(20.0, x, sol, paper44_model) == mv.ControlPair(0.0, 0.0)


def test_feedback_zero_on_curve(paper44_solution, paper44_model):
    sol = paper44_solution
    xc = float(sol.switching_x(20.0))
    assert feedback_full(20.0, xc, sol, paper44_model) == mv.ControlPair(0.0, 0.0)


def test_feedback_below_curve_coefficients(paper44_solution, paper44_model):
    # distance 10 below the curve: q = 0.2*10, pi = 0.02*10
    sol = paper44_solution
    t = 20.0
    x = float(sol.switching_x(t)) - 10.0
    u = feedback_full(t, x, sol, paper44_model)
    assert u.q == pytest.approx(2.0, rel=1e-9)
    assert u.pi == pytest.approx(0.2, rel=1e-9)


def test_feedback_cone_everywhere(paper44_solution, paper44_model):
    rng = np.random.default_rng(8)
    for _ in range(300):
        t = rng.uniform(0.0, 100.0)
        x = rng.uniform(-40000.0, 40000.0)
        u = feedback_full(t, x, paper44_solution, paper44_model)
        assert u.q >= 0.0 and u.pi >= 0.0


def test_gamma_star_zero_at_vertex(paper44_model):
    k = vertex_constant(paper44_model)
    assert gamma_star_full(paper44_model, k) == 0.0


def test_gamma_star_compat_anchor(paper44_model):
    gamma = gamma_star_full(paper44_model, 10000.0, compat=True)
    assert gamma == pytest.approx(-130.2, abs=0.5)


def test_gamma_star_matches_dual_maximizer(paper44_model):
    for compat in (False, True):
        gamma_closed = gamma_star_full(paper44_model, 10000.0, compat)
        res = optimize.minimize_scalar(
            lambda g: -dual_value_full(paper44_model, 10000.0, g, compat),
            bounds=(gamma_closed - 5000.0, gamma_closed + 5000.0),
            method="bounded", options={"xatol": 1e-8})
        assert abs(res.x - gamma_closed) <= 1e-6 * max(1.0, abs(gamma_closed))


def test_gamma_star_infeasible_below_vertex(paper44_model):
    with pytest.raises(InfeasibleTargetError):
        gamma_star_full(paper44_model, 2000.0)


def test_dual_argmax_invariant_under_positive_scaling(paper44_model):
    gammas = np.linspace(-1000.0, 1000.0, 4001)
    values = np.array([dual_value_full(paper44_model, 10000.0, g)
                       for g in gammas])
    assert np.argmax(values) == np.argmax(7.3 * values)


def test_frontier_vertex_anchor(paper44_model):
    curve = frontier_full(paper44_model, [2863.9028767400723])
    assert curve.variance[0] <= 1e-12
    assert abs(2863.9 - vertex_constant(paper44_model)) <= 0.05


def test_frontier_coefficient_positive_and_monotone(paper44_model):
    k = vertex_constant(paper44_model)
    curve = frontier_full(paper44_model, np.linspace(k, 3 * k, 25))
    assert curve.variance[0] == 0.0
    assert np.all(np.diff(curve.variance) > 0)


def test_frontier_infeasible_target(paper44_model):
    with pytest.raises(InfeasibleTargetError):
        frontier_full(paper44_model, [1000.0])


def test_pqr_ode_matches_closed_forms(paper44_solution, paper44_model):
    sol = paper44_solution
    closed = [sol.p1, sol.q1, sol.r1, sol.p2, sol.q2, sol.r2]
    curves = solve_pqr(paper44_model, sol.d, sol.gamma_star)
    for curve, fn in zip(curves, closed):
        ref = fn(curve.grid)
        err = np.max(np.abs(curve.values - ref) / np.maximum(1.0, np.abs(ref)))
        assert err <= 1e-6


def test_completion_of_square_identity(paper44_solution):
    sol = paper44_solution
    rng = np.random.default_rng(21)
    xs = rng.uniform(-3e4, 3e4, size=100)
    lhs = 0.5 * sol.p2(0.0) * xs ** 2 + sol.q2(0.0) * xs + sol.r2(0.0)
    rhs = 0.5 * np.exp(2 * sol.a1 * sol.T) * \
        (np.exp(sol.r * sol.T) * xs + sol.g1(0.0)) ** 2
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


def test_hjb_residual_interior(scaled_solution, scaled_noncheap_model):
    sol = scaled_solution
    rng = np.random.default_rng(4)
    for _ in range(50):
        t = rng.uniform(0.2, 4.8)
        xc = float(sol.switching_x(t))
        offset = rng.uniform(1.0, 60.0) * rng.choice([-1.0, 1.0])
        res = hjb_residual(t, xc + offset, sol, scaled_noncheap_model)
        assert abs(res) <= 1e-4


def test_hjb_residual_near_curve_rejected(scaled_solution,
                                          scaled_noncheap_model):
    sol = scaled_solution
    t = 2.0
    xc = float(sol.switching_x(t))
    with pytest.raises(NearCurveError):
        hjb_residual(t, xc + 1e-6, sol, scaled_noncheap_model)
    with pytest.raises(NearCurveError):
        hjb_residual(1e-9, xc + 30.0, sol, scaled_noncheap_model)


def test_viscosity_checks_scaled(scaled_solution, scaled_noncheap_model):
    report = viscosity_check(scaled_solution, scaled_noncheap_model,
                             curve_samples=100)
    assert report.passed, report.failures
    assert report.max_branch_gap <= 1e-10
    assert report.max_x_gradient <= 1e-6
    assert report.max_p2_minus_p1 <= 0.0
    assert report.max_abs_cone_infimum == 0.0


def test_viscosity_checks_long_horizon(paper44_solution, paper44_model):
    report = viscosity_check(paper44_solution, paper44_model, curve_samples=100)
    assert report.passed, report.failures


def test_p2_below_p1(paper44_solution):
    ts = np.linspace(0.0, 100.0, 101)
    assert np.all(paper44_solution.p2(ts) <= paper44_solution.p1(ts) + 1e-12)


def test_vectorized_strategy_matches_feedback(scaled_solution,
                                              scaled_noncheap_model):
    sol = scaled_solution
    strategy = full_feedback_strategy(sol, scaled_noncheap_model)
    shift = sol.target_level
    rng = np.random.default_rng(17)
    t = 2.5
    wealth = rng.uniform(-50.0, 400.0, size=64)
    qs, pis = strategy(t, wealth, np.full(64, 0.06))
    for w, q, pi in zip(wealth, qs, pis):
        u = feedback_full(t, w - shift, sol, scaled_noncheap_model)
        assert q == pytest.approx(u.q, rel=1e-9, abs=1e-12)
        assert pi == pytest.approx(u.pi, rel=1e-9, abs=1e-12)


def test_compat_flag_stored(paper44_model):
    sol = compute_solution(paper44_model, compat=True)
    assert sol.compat_paper_formulas
    assert vertex_constant(paper44_model, compat=True) == pytest.approx(
        50.0 * np.exp(4.0) + 0.1 / 0.04, rel=1e-12)


def test_compute_solution_requires_full_mode(partial_exact_model):
    with pytest.raises(ValueError):
        compute_solution(partial_exact_model)
