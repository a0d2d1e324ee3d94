import numpy as np
import pytest

import mvreins as mv
from mvreins.filtering import (filter_coefficients, projected_mean_curve,
                               run_filter, solve_variance)

STEADY_STATE = -3.0 + np.sqrt(13.0)  # positive root of n^2 + 6n - 4 = 0


def test_variance_degenerate_drift_identically_zero():
    drift = mv.DriftParams(h=0.5, l=0.0, z=0.0, m0=0.06, n0=0.0)
    curve = solve_variance(drift, 1.0, 10.0, steps=2000)
    assert np.all(curve.values == 0.0)


def test_variance_steady_state(filter_demo_drift):
    curve = solve_variance(filter_demo_drift, 1.0, 10.0)
    assert abs(curve(10.0) - 0.60555) <= 1e-3
    assert curve(10.0) == pytest.approx(STEADY_STATE, abs=1e-6)


def test_variance_monotone_in_mean_reversion():
    curves = {}
    for h in (-0.5, 0.0, 0.5):
        drift = mv.DriftParams(h=h, l=3.0, z=2.0, m0=0.06, n0=0.0)
        curves[h] = solve_variance(drift, 1.0, 10.0, steps=4000)
    grid = curves[0.0].grid
    lo, mid, hi = (curves[h](grid) for h in (-0.5, 0.0, 0.5))
    assert np.all(lo[1:] <= mid[1:] + 1e-12)
    assert np.all(mid[1:] <= hi[1:] + 1e-12)
    assert lo[-1] < mid[-1] < hi[-1]


def test_variance_nonnegative_assorted():
    for h, l, z, n0 in [(-1.0, 0.5, 0.2, 0.3), (0.3, 0.0, 1.0, 0.0),
                        (0.0, 2.0, 0.0, 1.5)]:
        drift = mv.DriftParams(h=h, l=l, z=z, m0=0.0, n0=n0)
        curve = solve_variance(drift, 0.8, 6.0, steps=3000)
        assert curve.values.min() >= -1e-12


def test_variance_too_coarse_for_stiff_prior_is_an_mvreins_error():
    # n0 = 170 makes the Riccati decay stiff: 1000 RK4 steps undershoot
    # below zero, which is a failed solve, not a crash.
    drift = mv.DriftParams(h=0.0, l=3.0, z=2.0, m0=0.06, n0=170.0)
    with pytest.raises(mv.MvreinsError, match="variance went negative"):
        solve_variance(drift, 1.0, 10.0, steps=1000)


def test_step_zero_gain_ignores_observation():
    drift = mv.DriftParams(h=0.2, l=0.0, z=0.0, m0=0.1, n0=0.0)
    out1 = run_filter([0.5], drift, 1.0, 0.01)
    out2 = run_filter([-0.3], drift, 1.0, 0.01)
    assert out1.means[1] == out2.means[1] == pytest.approx(0.1 * (1 + 0.2 * 0.01),
                                                           rel=1e-15)


def test_step_zero_innovation_keeps_mean():
    drift = mv.DriftParams(h=0.0, l=1.0, z=0.5, m0=0.06, n0=0.2)
    out = run_filter([0.06 * 0.01], drift, 1.0, 0.01)
    assert out.means[1] == pytest.approx(0.06, rel=1e-14)


def test_step_hand_computed_update():
    # gain (l + n/sigma)/sigma = 3; innovation 0.001 - 0.0006
    drift = mv.DriftParams(h=0.0, l=3.0, z=2.0, m0=0.06, n0=0.0)
    out = run_filter([0.001], drift, 1.0, 0.01)
    assert out.means[1] == pytest.approx(0.0612, rel=1e-12)


def test_step_requires_positive_dt():
    drift = mv.DriftParams(h=0.0, l=1.0, z=1.0, m0=0.0, n0=0.0)
    with pytest.raises(ValueError):
        run_filter([0.0], drift, 1.0, 0.0)


@pytest.mark.parametrize("obs, dt", [([0.01, 0.02], 0.0), ([0.01, 0.02], -0.1),
                                     (np.zeros((3, 0)), 0.1)],
                         ids=["zero-dt", "negative-dt", "no-steps"])
def test_run_filter_rejects_bad_input(obs, dt):
    drift = mv.DriftParams(h=0.0, l=1.0, z=1.0, m0=0.0, n0=0.1)
    with pytest.raises(ValueError, match="dt must be positive|at least one step"):
        run_filter(obs, drift, 1.0, dt)


def test_run_filter_zero_gain_is_euler_growth():
    drift = mv.DriftParams(h=0.3, l=0.0, z=0.0, m0=0.05, n0=0.0)
    dt = 0.01
    obs = np.zeros(100)
    path = run_filter(obs, drift, 1.0, dt)
    expected = 0.05 * (1 + 0.3 * dt) ** np.arange(101)
    np.testing.assert_allclose(path.means, expected, rtol=1e-13)
    # Euler growth approximates exp(h t) at O(dt)
    assert path.means[-1] == pytest.approx(0.05 * np.exp(0.3), rel=2e-3)


def test_advance_with_scratch_is_the_plain_euler_step():
    """The array step through a scratch array is bitwise m (1 + h dt) + vol
    dWbar, and leaves the innovation alone; a float m still gives a float."""
    drift = mv.DriftParams(h=[(0.0, -0.3), (0.5, 0.2)], l=3.0, z=2.0,
                           m0=0.06, n0=0.1)
    dt, n_steps = 0.01, 100
    coef = filter_coefficients(drift, 1.0, solve_variance(drift, 1.0, 1.0),
                               n_steps, dt)
    np.testing.assert_array_equal(coef.growth, 1.0 + coef.h * dt)
    rng = np.random.default_rng(5)
    m = rng.normal(0.06, 0.1, size=257)
    scratch = np.empty_like(m)
    for k in range(n_steps):
        innovation = rng.normal(0.0, np.sqrt(dt), size=m.size)
        kept = innovation.copy()
        expected = m * (1.0 + coef.h[k] * dt) + coef.vol[k] * innovation
        assert coef.advance(k, m, innovation, scratch) is m
        assert np.array_equal(m, expected)
        assert np.array_equal(innovation, kept)
    m_float = coef.advance(3, 0.06, 0.01)
    assert isinstance(m_float, float)
    assert m_float == 0.06 * (1.0 + coef.h[3] * dt) + coef.vol[3] * 0.01


def test_run_filter_means_match_the_two_term_update():
    """The one multiplicative mean update is m + h m dt + vol dWbar up to
    rounding: run_filter's means stay within 1e-12 of that form, relative to
    each path's largest |m| (the means cross zero, where an elementwise
    relative error says nothing), steps of h and sigma inside the horizon
    included."""
    drift = mv.DriftParams(h=[(0.0, -0.3), (0.5, 0.2)], l=3.0, z=2.0,
                           m0=0.06, n0=0.1)
    sigma = [(0.0, 1.0), (0.7, 1.2)]
    dt, n_steps = 0.005, 200
    rng = np.random.default_rng(8)
    obs = rng.normal(0.06 * dt, np.sqrt(dt), size=(64, n_steps))
    path = run_filter(obs, drift, sigma, dt)
    coef = filter_coefficients(
        drift, sigma, solve_variance(drift, sigma, n_steps * dt,
                                     steps=max(1000, n_steps)), n_steps, dt)
    means = np.empty_like(path.means)
    means[:, 0] = m = np.full(64, drift.m0)
    for k in range(n_steps):
        innovation = (obs[:, k] - m * dt) / coef.sigma[k]
        means[:, k + 1] = m = m + coef.h[k] * m * dt + coef.vol[k] * innovation
    scale = np.abs(means).max(axis=1, keepdims=True)
    assert np.all(np.abs(path.means - means) <= 1e-12 * scale)


def test_run_filter_steps_on_exact_grid_across_breakpoint():
    # A clock advanced by repeated t + dt reads 5.99999999999992 after 600
    # steps and would apply the pre-breakpoint h for one extra step.
    drift = mv.DriftParams(h=[(0.0, 0.3), (6.0, -0.3)], l=0.0, z=0.0,
                           m0=0.05, n0=0.0)
    dt, n_steps = 0.01, 1000
    path = run_filter(np.zeros(n_steps), drift, 1.0, dt)
    growth = 1.0 + drift.h(dt * np.arange(n_steps)) * dt
    expected = 0.05 * np.concatenate(([1.0], np.cumprod(growth)))
    np.testing.assert_allclose(path.means, expected, rtol=1e-12)


def test_run_filter_records_innovations():
    drift = mv.DriftParams(h=0.0, l=1.0, z=0.0, m0=0.02, n0=0.0)
    dt = 0.5
    obs = np.array([0.07, -0.01])
    path = run_filter(obs, drift, 2.0, dt)
    assert path.innovations[0] == pytest.approx((0.07 - 0.02 * dt) / 2.0)
    m1 = path.means[1]
    assert path.innovations[1] == pytest.approx((-0.01 - m1 * dt) / 2.0)


def test_run_filter_block_rows_match_single_paths(filter_demo_drift):
    obs = np.random.default_rng(3).normal(0.0, 0.1, size=(4, 50))
    block = run_filter(obs, filter_demo_drift, 1.0, 0.01)
    for row, means, innovations in zip(obs, block.means, block.innovations):
        one = run_filter(row, filter_demo_drift, 1.0, 0.01)
        assert np.array_equal(one.means, means)
        assert np.array_equal(one.innovations, innovations)
    assert np.array_equal(one.variances, block.variances)


def test_innovation_increments_are_brownian(filter_demo_drift):
    """Recorded innovations behave like Brownian increments: pooled over
    3000 simulated paths x 120 steps, the sample mean is ~0 and the sample
    variance ~dt within 3 standard errors."""
    drift = filter_demo_drift
    sigma = 1.0
    dt, n_steps, n_paths = 0.005, 120, 3000

    rng = np.random.default_rng(77)
    obs = np.empty((n_paths, n_steps))
    for p in range(n_paths):
        dW1 = np.sqrt(dt) * rng.standard_normal(n_steps)
        dW2 = np.sqrt(dt) * rng.standard_normal(n_steps)
        # hidden drift and observed returns on the same grid (h = 0)
        mu = 0.06 + np.concatenate(([0.0], np.cumsum(3.0 * dW1 + 2.0 * dW2)[:-1]))
        obs[p] = mu * dt + sigma * dW1
    path = run_filter(obs, drift, sigma, dt)
    assert path.means.shape == (n_paths, n_steps + 1)
    incr = path.innovations.ravel()

    se_mean = incr.std(ddof=1) / np.sqrt(incr.size)
    assert abs(incr.mean()) <= 3 * se_mean
    var = incr.var(ddof=1)
    se_var = np.sqrt(2.0 / incr.size) * var
    assert abs(var - dt) <= 3 * se_var


def test_projected_mean_constant_reversion():
    drift = mv.DriftParams(h=0.25, l=1.0, z=1.0, m0=0.06, n0=0.1)
    curve = projected_mean_curve(drift)
    assert curve(0.0) == pytest.approx(0.06)
    assert curve(4.0) == pytest.approx(0.06 * np.exp(1.0), rel=1e-12)


def test_projected_mean_piecewise_h():
    drift = mv.DriftParams(h=[(0.0, 0.1), (1.0, -0.2)], l=1.0, z=1.0,
                           m0=1.0, n0=0.0)
    curve = projected_mean_curve(drift)
    assert curve(3.0) == pytest.approx(np.exp(0.1 * 1.0 - 0.2 * 2.0), rel=1e-12)


def test_projected_mean_curve_matches_per_point_integrals():
    drift = mv.DriftParams(h=[(0.0, 0.1), (1.3, -0.4)], l=1.0, z=1.0,
                           m0=0.06, n0=0.0)
    curve = projected_mean_curve(drift)
    # the grid the oracle's sampled curve used to hold, with the kink at 1.3
    grid = np.unique(np.concatenate([np.linspace(0.0, 5.0, 10001), [1.3]]))
    assert 1.3 in grid
    per_point = np.array([drift.m0 * np.exp(drift.h.integral(0.0, t))
                          for t in grid])
    assert np.max(np.abs(curve(grid) - per_point)) <= 1e-14
