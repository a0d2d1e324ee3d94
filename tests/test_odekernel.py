import numpy as np
import pytest

from mvreins.curves import as_curve
from mvreins.odekernel import (IntegrationDivergedError, RngStream,
                               gaussian_increments, integrate_backward,
                               integrate_forward, integrate_linear_backward)


def _constant_rate(c):
    """A linear-march rate that is c at every stage time."""
    return lambda stage_times: np.full(stage_times.shape, c)


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


# y1' = -y1, y2' = y1 - y2, z' = y2^2 from (1, 0, 0) at T = 1: with
# s = 1 - t, y = (e^s, -s e^s) and z(0) = -int_0^1 s^2 e^{2s} ds.
_TRIANGULAR = np.array([[-1.0, 0.0], [1.0, -1.0]])


def _matrix_rate(c):
    """A linear-march rate that is the matrix c at every stage time."""
    return lambda stage_times: np.broadcast_to(c, stage_times.shape + c.shape)


@pytest.mark.parametrize("solve, exact", [
    (lambda steps: integrate_backward(lambda t, p: -p, 1.0, 1.0, steps), np.e),
    (lambda steps: integrate_linear_backward(_constant_rate(-1.0), 1.0, 1.0, steps),
     np.e),
    (lambda steps: integrate_linear_backward(
        _matrix_rate(_TRIANGULAR), (1.0, 0.0, 0.0), 1.0, steps,
        quadrature=lambda t, y: y[..., 1] ** 2),
     np.array([np.e, -np.e, -(np.e ** 2 - 1.0) / 4.0])),
], ids=["general", "linear", "linear-vector"])
def test_fourth_order_convergence(solve, exact):
    errs = []
    for steps in (50, 100, 200):
        curve = solve(steps)
        errs.append(np.abs(curve(0.0) - exact))
    # Halving the step should shrink the error ~16x, in every component.
    assert np.all((12.0 < errs[0] / errs[1]) & (errs[0] / errs[1] < 20.0))
    assert np.all((12.0 < errs[1] / errs[2]) & (errs[1] / errs[2] < 20.0))


def test_linear_march_needs_lower_triangular_rate():
    rate = _matrix_rate(np.array([[-1.0, 1.0], [0.0, -1.0]]))
    with pytest.raises(ValueError, match="lower-triangular"):
        integrate_linear_backward(rate, (1.0, 0.0), 1.0, 10)


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
    r = as_curve([(0.0, 0.03), (1.0, 0.08)])
    curve = integrate_forward(lambda t, y, rate: rate * y, 1.0, 2.0, 1000,
                              curves=(r,))
    assert curve(2.0) == pytest.approx(np.exp(0.03) * np.exp(0.08), rel=1e-12)
    assert np.any(curve.grid == 1.0)  # grid aligned to the jump


@pytest.mark.parametrize("solve", [
    lambda: integrate_forward(lambda t, y: y * y, 10.0, 5.0, 100),
    # y = e^{1000 (5 - t)} overflows some 60 steps back from t = 5
    lambda: integrate_linear_backward(_constant_rate(-1e3), 1.0, 5.0, 100),
], ids=["general", "linear"])
def test_divergence_raises(solve):
    with pytest.raises(IntegrationDivergedError, match="non-finite state at t="):
        solve()


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


@pytest.mark.parametrize("seed, k", [(0, 0), (42, 1), (123456789, 7)])
def test_substream_is_sfc64_on_spawned_seed_sequence(seed, k):
    child = np.random.SeedSequence(seed).spawn(k + 1)[k]
    expected = np.random.Generator(np.random.SFC64(child))
    drawn = RngStream(seed, k).generator()
    assert np.array_equal(drawn.bit_generator.random_raw(16),
                          expected.bit_generator.random_raw(16))
    assert np.array_equal(drawn.standard_normal((2, 500)),
                          expected.standard_normal((2, 500)))


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
    # backward) must still see a time inside its segment, so the curve there
    # agrees with the segment's rate that the rhs receives.
    r = as_curve([(0.0, 0.04), (4.0, 0.05)])

    def rate_at(t, r_piece):
        assert r(t) == r_piece, (t, r_piece)
        return r_piece

    if direction == "backward":
        curve = integrate_backward(lambda t, y, rate: -rate_at(t, rate) * y,
                                   1.0, 10.0, steps, curves=(r,))
        exact = np.exp(r.antiderivative(10.0) - r.antiderivative(curve.grid))
    else:
        curve = integrate_forward(lambda t, y, rate: rate_at(t, rate) * y,
                                  1.0, 10.0, steps, curves=(r,))
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
