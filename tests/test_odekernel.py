import numpy as np
import pytest

from mvreins.curves import as_curve
from mvreins.odekernel import (IntegrationDivergedError, RngStream,
                               gaussian_increments, integrate_backward,
                               integrate_forward)


def test_backward_exponential_long_horizon():
    # p' = -2 r p, p(T) = 1, r = 0.04, T = 100  =>  p(0) = e^8
    curve = integrate_backward(lambda t, p: -2 * 0.04 * p, 1.0, 100.0, 10000)
    assert curve(0.0) == pytest.approx(np.exp(8.0), rel=1e-8)
    assert curve(100.0) == 1.0


def test_backward_zero_rhs_constant():
    curve = integrate_backward(lambda t, p: 0.0, 1.0, 3.0, 50)
    assert np.all(curve.values == 1.0)


def test_backward_unit_decay():
    curve = integrate_backward(lambda t, p: -p, 1.0, 1.0, 1000)
    assert curve(0.0) == pytest.approx(np.e, rel=1e-10)


def test_fourth_order_convergence():
    exact = np.e
    errs = []
    for steps in (50, 100, 200):
        curve = integrate_backward(lambda t, p: -p, 1.0, 1.0, steps)
        errs.append(abs(curve(0.0) - exact))
    # Halving the step should shrink the error ~16x.
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


def test_forward_matches_backward_on_linear_problem():
    fwd = integrate_forward(lambda t, y: 0.5 * y, 2.0, 2.0, 2000)
    assert fwd(2.0) == pytest.approx(2.0 * np.e, rel=1e-10)


def test_vector_state():
    # y1' = y2, y2' = -y1 backward from (sin T, cos T) recovers (0, 1) at t=0
    T = 1.5
    curve = integrate_backward(lambda t, y: np.array([y[1], -y[0]]),
                               np.array([np.sin(T), np.cos(T)]), T, 2000)
    np.testing.assert_allclose(curve(0.0), [0.0, 1.0], atol=1e-10)


def test_breakpoint_alignment_exactness():
    # piecewise-constant rate: closed form chains exp factors per segment
    from mvreins.curves import as_curve
    r = as_curve([(0.0, 0.03), (1.0, 0.08)])
    r_at = r.scalar_evaluator()
    curve = integrate_forward(lambda t, y: r_at(t) * y, 1.0, 2.0, 1000,
                              breakpoints=r.breakpoints_within(0.0, 2.0))
    assert curve(2.0) == pytest.approx(np.exp(0.03) * np.exp(0.08), rel=1e-12)
    assert np.any(curve.grid == 1.0)  # grid aligned to the jump


def test_divergence_raises():
    with pytest.raises(IntegrationDivergedError):
        integrate_forward(lambda t, y: y * y, 10.0, 5.0, 100)


def test_gaussian_increments_deterministic():
    s = RngStream(123456789, 7)
    a = gaussian_increments(s, 1000, 0.5)
    b = gaussian_increments(RngStream(123456789, 7), 1000, 0.5)
    assert np.array_equal(a, b)


def test_gaussian_increments_moments():
    draws = gaussian_increments(RngStream(42, 0), 10 ** 6, 1.0)
    assert abs(draws.mean()) <= 4.0 / np.sqrt(10 ** 6)
    assert abs(draws.var() - 1.0) <= 0.01


def test_substreams_uncorrelated():
    n = 10 ** 6
    a = gaussian_increments(RngStream(42, 0), n, 1.0)
    b = gaussian_increments(RngStream(42, 1), n, 1.0)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) <= 4.0 / np.sqrt(n)
    assert not np.array_equal(a, b)


def test_gaussian_increments_scale():
    draws = gaussian_increments(RngStream(7, 3), 200_000, 0.25)
    assert draws.var() == pytest.approx(0.25, rel=0.02)


def test_invalid_dt():
    with pytest.raises(ValueError):
        gaussian_increments(RngStream(1), 10, 0.0)


@pytest.mark.parametrize("direction, steps", [
    ("backward", 2000), ("backward", 4000), ("backward", 10000),
    ("forward", 2000), ("forward", 4000), ("forward", 10000),
], ids=["2000", "4000", "10000", "forward-2000", "forward-4000", "forward-10000"])
def test_backward_last_stage_stays_in_its_segment(direction, steps):
    # y' = -r y backward, y' = r y forward, across a rate breakpoint: a stage
    # that rounds past a segment's edge (the last k4, or the first k1 marching
    # backward) must not read the rate of the neighbouring segment.
    r = as_curve([(0.0, 0.04), (4.0, 0.05)])
    rate = r.scalar_evaluator()
    if direction == "backward":
        curve = integrate_backward(lambda t, y: -rate(t) * y, 1.0, 10.0, steps,
                                   breakpoints=[4.0])
        exact = np.exp(r.antiderivative(10.0) - r.antiderivative(curve.grid))
    else:
        curve = integrate_forward(lambda t, y: rate(t) * y, 1.0, 10.0, steps,
                                  breakpoints=[4.0])
        exact = np.exp(r.antiderivative(curve.grid))
    assert np.max(np.abs(curve.values / exact - 1.0)) <= 1e-12


@pytest.mark.parametrize("integrate", [integrate_forward, integrate_backward])
@pytest.mark.parametrize("start", [1.0, np.array([1.0, 2.0])],
                         ids=["scalar", "vector"])
def test_divergence_raises_before_rhs_sees_it(integrate, start):
    # The rhs turns infinite only at the k4 stage time of the step that ends
    # at t = 0.5, so every stage state stays finite and that step's update is
    # the first non-finite state; no later rhs call may receive it.
    seen = []

    def rhs(t, y):
        seen.append(y)
        return y * np.inf if abs(t - 0.5) < 1e-9 else -y

    with pytest.raises(IntegrationDivergedError):
        integrate(rhs, start, 1.0, 10)
    assert len(seen) == 4 * 5
    assert all(np.all(np.isfinite(y)) for y in seen)
