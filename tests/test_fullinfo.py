import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import optimize

import mvreins as mv
from mvreins import conelq, fullinfo
from mvreins.conelq import p_pair
from mvreins.config import load_config
from mvreins.frontier import (MAX_EXPONENT, InfeasibleTargetError, dual_value,
                              efficient_frontier)
from mvreins.fullinfo import (NearCurveError, Region, compute_solution,
                              full_feedback_strategy, hjb_residual, region,
                              solve_pqr, switching_x, value_function,
                              viscosity_check)
from mvreins.odekernel import integrate_backward
from mvreins.validation import _dual_argmax_check, format_table, run_checks

from conftest import cone_feedback, make_model
from test_cli import PAPER44_CFG, SCALED_CFG
from test_conelq import BENCH_PARTIAL_CFG


def with_d(model, d):
    return dataclasses.replace(
        model, objective=dataclasses.replace(model.objective, d=d))


def at_gamma(sol, gamma):
    """``sol`` with the multiplier ``gamma`` in place of gamma*."""
    return dataclasses.replace(sol, gamma_star=gamma)


@pytest.fixture(scope="module")
def paper44_solution(paper44_model):
    return compute_solution(paper44_model)


@pytest.fixture(scope="module")
def scaled_solution(scaled_noncheap_model):
    return compute_solution(scaled_noncheap_model)


def test_a1_value(paper44_model, paper44_solution):
    # the paper's A1, and the record's k+ = 0 and k- = -2 A1 T, bit for bit
    a1 = fullinfo._a1(paper44_model)
    assert a1 == pytest.approx(-0.0202, abs=1e-15)
    assert paper44_solution.kappa_plus == 0.0
    assert paper44_solution.kappa_minus == -2.0 * a1 * paper44_model.objective.T


def test_switching_curve_vanishes_at_horizon(paper44_model, paper44_solution):
    for gamma in (-500.0, 0.0, 800.0):
        sol = at_gamma(paper44_solution, gamma)
        assert switching_x(100.0, sol, paper44_model) == 0.0


def test_switching_curve_identically_zero_cheap_at_target(scaled_cheap_model):
    # eta = theta and gamma = d make the affine drift term vanish
    model = with_d(scaled_cheap_model, 70.0)
    sol = at_gamma(compute_solution(model), 70.0)
    ts = np.linspace(0.0, 5.0, 7)
    assert np.all(switching_x(ts, sol, model) == 0.0)


def test_terminal_value_is_half_square(paper44_model, paper44_solution):
    for x in (-3.0, 0.0, 4.0):
        value = value_function(100.0, x, paper44_solution, paper44_model)
        assert value == 0.5 * x * x


def test_value_zero_on_switching_curve(paper44_model, paper44_solution):
    for t in np.linspace(0.0, 99.0, 8):
        xc = float(switching_x(t, paper44_solution, paper44_model))
        assert value_function(t, xc, paper44_solution, paper44_model) == 0.0


def test_value_region1_exponential_anchor():
    # x_c = 0 branch: V(0, 1) = e^{2 r T} / 2 at long horizon T = 100
    model = make_model(theta=0.2, eta=0.2, T=100.0, d=10000.0)
    sol = at_gamma(compute_solution(model), 10000.0)
    assert value_function(0.0, 1.0, sol, model) == pytest.approx(
        0.5 * np.exp(8.0), rel=1e-12)


def test_value_nonnegative(paper44_model, paper44_solution):
    rng = np.random.default_rng(0)
    for _ in range(300):
        t = rng.uniform(0.0, 100.0)
        x = rng.uniform(-30000.0, 30000.0)
        assert value_function(t, x, paper44_solution, paper44_model) >= 0.0


def test_region_classification(paper44_model, paper44_solution):
    sol, model = paper44_solution, paper44_model
    t = 40.0
    xc = float(switching_x(t, sol, model))
    assert region(t, xc, sol, model) is Region.ON_CURVE
    assert region(t, xc + 1.0, sol, model) is Region.ABOVE_CURVE
    assert region(t, xc - 1.0, sol, model) is Region.BELOW_CURVE


@pytest.mark.parametrize("t", [0.0, 40.0, 99.5, 100.0])
def test_value_and_region_broadcast_over_x(paper44_model, paper44_solution, t):
    sol, model = paper44_solution, paper44_model
    xc = float(switching_x(t, sol, model))
    xs = np.concatenate([np.linspace(-30000.0, 30000.0, 1001),
                         [xc, xc + 1e-9, xc - 1.0, xc + 1.0]])
    # per point: t broadcast to one time per x
    ts = np.full_like(xs, t)
    values = value_function(t, xs, sol, model)
    per_point = value_function(ts, xs, sol, model)
    assert values.shape == xs.shape
    assert np.all(np.abs(values - per_point) <= np.spacing(per_point))
    regions = region(t, xs, sol, model)
    assert regions.shape == xs.shape
    assert all(got is want for got, want in zip(regions, region(ts, xs, sol, model)))
    assert regions[-4] is Region.ON_CURVE
    assert type(value_function(t, xc - 1.0, sol, model)) is float


@pytest.mark.parametrize("compat", [False, True])
@pytest.mark.parametrize("kw", [{}, dict(a=1e-9, m0=0.040000001)],
                         ids=["paper44", "tiny-premium"])
def test_dual_value_broadcasts_bitwise(compat, kw):
    model = make_model(**kw)
    d = model.objective.d
    sol = compute_solution(model, compat=compat)
    k = sol.d0
    # the branch flips where k - (d - gamma) turns nonnegative
    gammas = np.concatenate([
        np.linspace(2.0 * sol.gamma_star, 2.0 * d, 1001),
        [d - k, np.nextafter(d - k, -np.inf)]])
    values = dual_value(sol, gammas)
    per_point = np.array([dual_value(sol, float(g)) for g in gammas])
    assert values.tobytes() == per_point.tobytes()
    below = k - (d - gammas) < 0
    assert below.any() and not below.all()
    assert type(dual_value(sol, 1.0)) is float


def test_feedback_zero_above_curve(paper44_solution, paper44_model):
    sol = paper44_solution
    curve = float(switching_x(20.0, sol, paper44_model)) + sol.target_level
    x = curve + np.array([50.0, 5e3])
    q, pi = full_feedback_strategy(sol, paper44_model)(20.0, x, 0.06)
    assert np.all(q == 0.0) and np.all(pi == 0.0)


def test_feedback_zero_on_curve(paper44_solution, paper44_model):
    # The curve in actual wealth is the riskless level S(t) that the
    # feedback reads; x_c + (d - gamma*) meets it only to rounding.
    sol = paper44_solution
    x = np.array([mv.riskless_level(paper44_model, 20.0, sol.target_level)])
    q, pi = full_feedback_strategy(sol, paper44_model)(20.0, x, 0.06)
    assert (q[0], pi[0]) == (0.0, 0.0)


def test_feedback_below_curve_coefficients(paper44_solution, paper44_model):
    # distance 10 below the curve: q = 0.2*10, pi = 0.02*10
    sol = paper44_solution
    t = 20.0
    x = float(switching_x(t, sol, paper44_model)) + sol.target_level - 10.0
    q, pi = full_feedback_strategy(sol, paper44_model)(t, np.array([x]), 0.06)
    assert q[0] == pytest.approx(2.0, rel=1e-9)
    assert pi[0] == pytest.approx(0.2, rel=1e-9)


def test_feedback_cone_everywhere(paper44_solution, paper44_model):
    rng = np.random.default_rng(8)
    strategy = full_feedback_strategy(paper44_solution, paper44_model)
    for t in rng.uniform(0.0, 100.0, 30):
        q, pi = strategy(t, rng.uniform(-40000.0, 40000.0, 100), 0.06)
        assert np.all(q >= 0.0) and np.all(pi >= 0.0)


@pytest.mark.parametrize("model_name", ["paper44_model", "scaled_noncheap_model"])
def test_switching_curve_is_the_riskless_level(request, model_name):
    # The curve in shifted wealth, read in actual wealth, is the riskless
    # level S(t) of the target d - gamma*.
    model = request.getfixturevalue(model_name)
    sol = compute_solution(model)
    target = sol.target_level
    for t in np.linspace(0.0, model.objective.T, 50):
        level = mv.riskless_level(model, t, target)
        assert float(switching_x(t, sol, model)) + target == pytest.approx(
            level, rel=1e-12)


def test_gamma_star_zero_at_vertex(paper44_model, paper44_solution):
    k = paper44_solution.vertex
    assert compute_solution(with_d(paper44_model, k)).gamma_star == 0.0


def test_gamma_star_compat_anchor(paper44_model):
    gamma = compute_solution(paper44_model, compat=True).gamma_star
    assert gamma == pytest.approx(-130.2, abs=0.5)


def test_gamma_star_matches_dual_maximizer(paper44_model):
    for compat in (False, True):
        sol = compute_solution(paper44_model, compat=compat)
        gamma_closed = sol.gamma_star
        res = optimize.minimize_scalar(
            lambda g: -dual_value(sol, g),
            bounds=(gamma_closed - 5000.0, gamma_closed + 5000.0),
            method="bounded", options={"xatol": 1e-8})
        assert abs(res.x - gamma_closed) <= 1e-6 * max(1.0, abs(gamma_closed))


def test_gamma_star_infeasible_below_vertex(paper44_model):
    with pytest.raises(InfeasibleTargetError, match="below frontier vertex"):
        compute_solution(with_d(paper44_model, 2000.0))


def test_dual_argmax_invariant_under_positive_scaling(paper44_solution):
    gammas = np.linspace(-1000.0, 1000.0, 4001)
    values = np.array([dual_value(paper44_solution, g) for g in gammas])
    assert np.argmax(values) == np.argmax(7.3 * values)


def test_frontier_vertex_anchor(paper44_solution):
    curve = efficient_frontier(paper44_solution, [2863.9028767400723])
    assert curve.variance[0] <= 1e-12
    assert abs(2863.9 - paper44_solution.vertex) <= 0.05


def test_frontier_coefficient_positive_and_monotone(paper44_solution):
    k = paper44_solution.vertex
    curve = efficient_frontier(paper44_solution, np.linspace(k, 3 * k, 25))
    assert curve.variance[0] == 0.0
    assert np.all(np.diff(curve.variance) > 0)


def test_frontier_with_tiny_premium_is_cancellation_free():
    # a = 1e-9 and m0 - r = 1e-9 give -2 A1 T = 1.04e-16, below half an ulp
    # of 1: exp(-2 A1 T) - 1 rounds to 0, expm1 keeps every digit.
    model = make_model(a=1e-9, m0=0.040000001)
    sol = compute_solution(model)
    growth = np.expm1(sol.kappa_minus)
    assert 0.0 < growth < 2e-16
    k = sol.vertex
    curve = efficient_frontier(sol, [k, 2.0 * k])
    assert curve.variance[1] / (k * k) == pytest.approx(1.0 / growth, rel=1e-12)
    check = _dual_argmax_check(lambda g: dual_value(sol, g), sol.gamma_star)
    assert check.passed, check.detail
    # V is of order 1e42 here: the on-curve checks scale with the branches.
    report = viscosity_check(model)
    assert report.passed, report.failures


def test_full_closed_forms_read_only_the_solution(paper44_solution):
    # The frontier and the dual value read vertex, d0, k- and d from the
    # solution: replacing one moves them as their formulas say, and the
    # field they do not read (gamma*) moves nothing.
    sol = paper44_solution
    d = sol.d

    def frontier(s, ds):
        return (np.asarray(ds) - s.vertex) ** 2 / np.expm1(s.kappa_minus)

    def dual(s, g):
        gap, e = s.vertex - d, np.exp(-s.kappa_minus)
        below = np.expm1(-s.kappa_minus) * g * g + 2.0 * e * gap * g + e * gap * gap
        return np.where(s.d0 - (d - g) < 0, below, gap * gap + 2.0 * gap * g)

    gammas = np.linspace(-3000.0, 8000.0, 111)
    switch = d - sol.d0
    between = np.linspace(switch + 10.0, switch + 490.0, 25)
    for change in ({}, {"vertex": sol.vertex + 100.0}, {"d0": sol.d0 - 500.0},
                   {"kappa_minus": 2.0 * sol.kappa_minus}, {"gamma_star": 5.0}):
        moved = dataclasses.replace(sol, **change)
        ds = moved.vertex + np.array([0.0, 10.0, 1000.0, 7000.0])
        np.testing.assert_allclose(efficient_frontier(moved, ds).variance,
                                   frontier(moved, ds), rtol=1e-12, atol=0.0)
        for g in (gammas, between):
            np.testing.assert_allclose(dual_value(moved, g), dual(moved, g),
                                       rtol=1e-12, atol=1e-12 * d * d)
    # d0 alone sets the branch: between the old and the new switch the dual
    # takes the below branch, the frontier does not move.
    lowered = dataclasses.replace(sol, d0=sol.d0 - 500.0)
    assert np.all(dual_value(lowered, between) != dual_value(sol, between))
    assert np.all(dual_value(lowered, gammas[gammas > switch + 500.0])
                  == dual_value(sol, gammas[gammas > switch + 500.0]))
    ds = sol.vertex + np.array([0.0, 1000.0])
    assert np.all(efficient_frontier(lowered, ds).variance
                  == efficient_frontier(sol, ds).variance)


def test_frontier_infeasible_target(paper44_solution):
    with pytest.raises(InfeasibleTargetError, match="below frontier vertex"):
        efficient_frontier(paper44_solution, [1000.0])


def gap_form_pqr(t, sol, model):
    """(P, Q, R) of both branches from the gap form: each branch
    1/2 P x^2 + Q x + R is 1/2 P+/-(x - x_c)^2."""
    xc = switching_x(t, sol, model)
    return [part for p in p_pair(model, t)
            for part in (p, -p * xc, 0.5 * p * xc * xc)]


def test_pqr_ode_matches_closed_forms(paper44_solution, paper44_model):
    # each RK4 branch is a perfect square that vanishes on the curve
    sol = paper44_solution
    curves = solve_pqr(paper44_model, sol.d, sol.gamma_star)
    for curve, ref in zip(curves, gap_form_pqr(curves[0].grid, sol, paper44_model)):
        err = np.max(np.abs(curve.values - ref) / np.maximum(1.0, np.abs(ref)))
        assert err <= 1e-6


def _pqr_by_general_march(model, d, gamma, steps):
    """The P, Q, R equations as right-hand sides of the general RK4 march."""
    r, a1 = model.market.r.constant_value(), fullinfo._a1(model)
    f = fullinfo._f(model, d, gamma)

    def rhs1(t, y):
        P, Q, _R = y
        return np.array([-2.0 * r * P, -r * Q - f * P, -f * Q])

    def rhs2(t, y):
        P, Q, _R = y
        return np.array([-(2.0 * r + 2.0 * a1) * P, -(r + 2.0 * a1) * Q - f * P,
                         -a1 * Q * Q / P - f * Q])

    curves = []
    for rhs in (rhs1, rhs2):
        curve = integrate_backward(rhs, np.array([1.0, 0.0, 0.0]),
                                   model.objective.T, steps)
        curves += [curve.component(k) for k in range(3)]
    return curves


@pytest.mark.parametrize("config", [PAPER44_CFG, SCALED_CFG],
                         ids=["paper44", "scaled"])
def test_pqr_linear_march_matches_general_march(config):
    model = load_config(config)[0]
    sol = compute_solution(model)
    for steps in (2000, 4000):
        curves = solve_pqr(model, sol.d, sol.gamma_star, steps)
        refs = _pqr_by_general_march(model, sol.d, sol.gamma_star, steps)
        for curve, ref in zip(curves, refs):
            assert np.array_equal(curve.grid, ref.grid)
            np.testing.assert_allclose(curve.values, ref.values, rtol=1e-12, atol=0)


def test_pqr_curves_share_one_ascending_grid(paper44_solution, paper44_model):
    sol = paper44_solution
    curves = solve_pqr(paper44_model, sol.d, sol.gamma_star, 3000)
    assert len(curves) == 6
    grid = curves[0].grid
    assert grid[0] == 0.0 and grid[-1] == 100.0 and len(grid) == 3001
    assert np.all(np.diff(grid) > 0)
    for curve in curves:
        assert np.array_equal(curve.grid, grid)
        assert curve.values.shape == grid.shape
    # the terminal condition (1, 0, 0) at T, for both systems
    assert [float(c.values[-1]) for c in curves] == [1.0, 0.0, 0.0] * 2


def test_completion_of_square_identity(paper44_solution, paper44_model):
    # below the curve the gap form at t = 0 is the paper's completed square
    # 1/2 e^{2 A1 T} (e^{rT} x + g1(0))^2
    sol, model = paper44_solution, paper44_model
    rng = np.random.default_rng(21)
    xs = switching_x(0.0, sol, model) - rng.uniform(0.0, 3e4, size=100)
    a1, r, T = fullinfo._a1(model), 0.04, 100.0
    g1 = fullinfo._f(model, sol.d, sol.gamma_star) * np.expm1(r * T) / r
    paper = 0.5 * np.exp(2.0 * a1 * T) * (np.exp(r * T) * xs + g1) ** 2
    np.testing.assert_allclose(value_function(0.0, xs, sol, model), paper, rtol=1e-9)


def test_hjb_residual_interior(scaled_solution, scaled_noncheap_model):
    sol = scaled_solution
    rng = np.random.default_rng(4)
    for _ in range(50):
        t = rng.uniform(0.2, 4.8)
        xc = float(switching_x(t, sol, scaled_noncheap_model))
        offset = rng.uniform(1.0, 60.0) * rng.choice([-1.0, 1.0])
        res = hjb_residual(t, xc + offset, sol, scaled_noncheap_model)[0]
        assert abs(res) <= 1e-4


def test_hjb_residual_near_curve_rejected(scaled_solution,
                                          scaled_noncheap_model):
    sol = scaled_solution
    t = 2.0
    xc = float(switching_x(t, sol, scaled_noncheap_model))
    with pytest.raises(NearCurveError):
        hjb_residual(t, xc + 1e-6, sol, scaled_noncheap_model)
    with pytest.raises(NearCurveError):
        hjb_residual(1e-9, xc + 30.0, sol, scaled_noncheap_model)


def _known_drift(m0, h):
    """bench partial.cfg's piecewise r and sigma under a known drift m0 e^{ht},
    theta = 0.3 and d = 100."""
    model = load_config(BENCH_PARTIAL_CFG)[0]
    return dataclasses.replace(
        model, info_mode="full",
        claim=dataclasses.replace(model.claim, theta=0.3),
        drift=mv.DriftParams(h=h, l=0.0, z=0.0, m0=m0, n0=0.0),
        objective=dataclasses.replace(model.objective, d=100.0))


@pytest.mark.parametrize("m0, h", [(0.06, -0.3), (0.02, 0.0), (-0.5, 0.1), (0.3, 0.0)],
                         ids=["m-crosses-r", "m-below-r", "m-negative", "m-above-r"])
def test_known_drift_models_pass_every_check(m0, h):
    # r and sigma jump at t = 4 and 6; at (0.06, -0.3) m falls through r near
    # t = 1.35.  None is in the paper's setting, so the HJB residual is the
    # check that reaches the value function there.
    results = run_checks(_known_drift(m0, h))
    assert "hjb-interior-residual" in [r.name for r in results]
    assert all(r.passed for r in results), format_table(results)


def test_hjb_time_stencil_must_stay_in_its_piece():
    # V_t jumps where r or sigma do: a time stencil across t = 4 is refused.
    model = _known_drift(0.06, -0.3)
    sol = compute_solution(model)
    x = float(switching_x(4.0, sol, model)) + 50.0
    assert not fullinfo.stencil_fits(4.0 + 1e-4, model)
    with pytest.raises(NearCurveError, match="leaves its piece"):
        hjb_residual(4.0 + 1e-4, x, sol, model)
    res, magnitude, _ = hjb_residual(4.5, x, sol, model)
    assert abs(res) <= 1e-6 * magnitude


def test_viscosity_premise_needs_the_paper_setting():
    # m0 = -0.5 keeps m below r, so k+ = 7.12 exceeds k- = 0.40: P- > P+ on
    # a valid model, which is why only the paper's setting runs the check.
    model = _known_drift(-0.5, 0.1)
    sol = compute_solution(model)
    assert sol.kappa_plus > sol.kappa_minus
    assert not viscosity_check(model).passed
    assert not fullinfo.in_paper_setting(model)


def test_viscosity_checks_scaled(scaled_solution, scaled_noncheap_model):
    report = viscosity_check(scaled_noncheap_model, curve_samples=100)
    assert report.passed, report.failures
    assert report.max_p2_minus_p1 <= 0.0


def test_viscosity_checks_long_horizon(paper44_solution, paper44_model):
    report = viscosity_check(paper44_model, curve_samples=100)
    assert report.passed, report.failures


def test_viscosity_check_catches_inverted_curvature(monkeypatch, paper44_model):
    # int_t^T kappa- below int_t^T kappa+ = 0 puts P- above P+: the
    # curvature would rise across the curve, on a moderate and on a huge
    # value function.  The check reads P+/- through conelq.riccati_pair.
    tiny = make_model(a=1e-9, m0=0.040000001)
    models = (paper44_model, tiny)
    assert all(viscosity_check(model).passed for model in models)
    exact = conelq.riccati_pair
    monkeypatch.setattr(conelq, "riccati_pair", lambda model, t: (
        exact(model, t)[0], -1e-9 * (1.0 - np.asarray(t) / model.objective.T)))
    for model in models:
        report = viscosity_check(model)
        assert not report.passed and report.max_p2_minus_p1 > 0.0


def test_p2_below_p1(paper44_model, paper44_solution):
    p_plus, p_minus = p_pair(paper44_model, np.linspace(0.0, 100.0, 101))
    assert np.all(p_minus <= p_plus + 1e-12)


def test_vectorized_strategy_matches_feedback(scaled_solution,
                                             scaled_noncheap_model):
    # The strategy against xi_minimizer(sign, coeffs) |gap|, with the gap
    # measured from the closed-form switching curve.
    sol, model = scaled_solution, scaled_noncheap_model
    strategy = full_feedback_strategy(sol, model)
    rng = np.random.default_rng(17)
    for t in (0.0, 2.5, 4.99):
        wealth = rng.uniform(-50.0, 400.0, size=64)
        qs, pis = strategy(t, wealth, 0.06)
        curve = float(switching_x(t, sol, model)) + sol.target_level
        for w, q, pi in zip(wealth, qs, pis):
            q_ref, pi_ref = cone_feedback(model, t, w - curve, 0.06)
            assert q == pytest.approx(q_ref, rel=1e-9, abs=1e-12)
            assert pi == pytest.approx(pi_ref, rel=1e-9, abs=1e-12)


def test_compat_flag_stored(paper44_model):
    sol = compute_solution(paper44_model, compat=True)
    assert sol.vertex == pytest.approx(50.0 * np.exp(4.0) + 0.1 / 0.04, rel=1e-12)
    assert sol.d0 == mv.riskless_terminal_wealth(paper44_model)


def test_compute_solution_requires_full_mode(partial_exact_model):
    with pytest.raises(ValueError):
        compute_solution(partial_exact_model)


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def full_models(draw):
    """Valid full models: a known drift, theta != eta allowed, d above the
    frontier vertex.  Half are in the paper's setting (constant r and sigma,
    h = 0, m0 > r); the others give r and sigma one breakpoint each, draw h
    from [-0.5, 0.5] and m0 - r of either sign.  Models with an exponent
    k+/- past the frontier exponent limit are skipped."""
    r = draw(_log_uniform(1e-10, 0.2))
    sigma = draw(st.floats(0.05, 5.0))
    T = draw(_log_uniform(1e-3, 100.0))
    excess = draw(_log_uniform(1e-9, 10.0))
    params = dict(r=r, sigma=sigma, m0=r + excess, a=draw(_log_uniform(1e-9, 10.0)),
                  T=T, b=draw(st.floats(0.05, 5.0)), theta=draw(st.floats(0.01, 2.0)),
                  eta=draw(st.floats(0.01, 2.0)), x0=draw(_log_uniform(1e-3, 1e3)))
    if not draw(st.booleans()):
        r_cut, sigma_cut = (draw(st.floats(0.05, 0.95)) * T for _ in range(2))
        params.update(
            r=[(0.0, r), (r_cut, draw(_log_uniform(1e-10, 0.2)))],
            sigma=[(0.0, sigma), (sigma_cut, draw(st.floats(0.05, 5.0)))],
            h=draw(st.floats(-0.5, 0.5)),
            m0=r + draw(st.sampled_from([-1.0, 1.0])) * excess)
    model = make_model(**params)
    assume(max(mv.riccati_pair(model, 0.0)) < 0.999 * MAX_EXPONENT)
    d0 = mv.riskless_terminal_wealth(model)
    return with_d(model, d0 + draw(st.floats(1e-3, 10.0)) * max(1.0, abs(d0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(model=full_models(), t_frac=st.floats(0.0, 1.0),
       offsets=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8))
def test_gap_form_is_the_paper_solution(model, t_frac, offsets):
    sol = compute_solution(model)
    # the partial twin draws the same gamma* and frontier
    twin = mv.solve_partial(dataclasses.replace(model, info_mode="partial"))
    assert twin.gamma_star == sol.gamma_star
    assert twin.frontier_coefficient == sol.frontier_coefficient
    if not fullinfo.in_paper_setting(model):
        return

    c, ob = model.claim, model.objective
    r, sigma = model.market.r.constant_value(), model.market.sigma.constant_value()
    T = ob.T

    # k+ = 0 and k- = -2 A1 T, the paper's A1
    a1 = -((model.drift.m0 - r) / sigma) ** 2 / 2.0 - (c.a * c.eta / c.b) ** 2 / 2.0
    assert sol.kappa_plus == 0.0
    assert sol.kappa_minus == pytest.approx(-2.0 * a1 * T, rel=1e-12, abs=0.0)

    # V against the paper's two branches, to 1e-10 of 1/2 P+/- (|x| + |x_c|)^2
    t = t_frac * T
    tau = T - t
    xc = float(switching_x(t, sol, model))
    x = xc + np.array(offsets) * max(1.0, abs(xc))
    f = c.a * (c.theta - c.eta) + (sol.d - sol.gamma_star) * r
    g1 = f * np.expm1(r * tau) / r
    above = x >= xc
    paper = 0.5 * np.where(above, np.exp(r * tau) * x + g1,
                           np.exp((a1 + r) * tau) * x + np.exp(a1 * tau) * g1) ** 2
    p_plus, p_minus = p_pair(model, t)
    scale = 0.5 * np.where(above, p_plus, p_minus) * (np.abs(x) + abs(xc)) ** 2
    assert np.all(np.abs(value_function(t, x, sol, model) - paper) <= 1e-10 * scale)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=full_models())
def test_generated_full_models_pass_every_check(model):
    # Every check passes, or an MvreinsError says why the model cannot be
    # solved or checked; a FAIL or any other exception is a defect.
    try:
        results = run_checks(model)
    except mv.MvreinsError:
        return
    assert all(r.passed for r in results), format_table(results)
