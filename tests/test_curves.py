import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvreins.curves import (CurveRangeError, PiecewiseConstantCurve,
                            SampledCurve, as_curve, segments)


def test_as_curve_scalar():
    c = as_curve(0.04)
    assert c.is_constant
    assert c(0.0) == 0.04
    assert c(123.0) == 0.04


def test_as_curve_pairs():
    c = as_curve([(0.0, 0.04), (50.0, 0.05)])
    assert not c.is_constant
    assert c(0.0) == 0.04
    assert c(49.999) == 0.04
    assert c(50.0) == 0.05  # right-continuous
    assert c(80.0) == 0.05


def test_piecewise_integral_exact():
    c = as_curve([(0.0, 0.04), (50.0, 0.05)])
    assert c.integral(0.0, 100.0) == pytest.approx(0.04 * 50 + 0.05 * 50, rel=1e-15)
    assert c.integral(40.0, 60.0) == pytest.approx(0.04 * 10 + 0.05 * 10, rel=1e-15)
    assert c.integral(60.0, 40.0) == pytest.approx(-(0.04 * 10 + 0.05 * 10), rel=1e-15)


def test_float_time_paths_match_the_array_paths_bitwise():
    # A float t takes the list lookup and a one-piece integral skips
    # segments(); both give the bits of the array route, at and between the
    # breakpoints, at t0 = t1 and in the slack below 0.
    c = as_curve([(0.0, 0.04), (2.0, -0.05), (3.0, 1e-10)])
    rng = np.random.default_rng(2)
    times = np.concatenate([[-1e-10, 0.0, 2.0, 3.0, 5.0, 0.1 + 0.2],
                            rng.uniform(0.0, 5.0, 40)]).tolist()
    for t0 in times:
        assert c(t0) == float(c(np.array([t0]))[0])
        for t1 in times:
            if t0 <= t1:
                edges, (values,) = segments(t0, t1, c)
                ref = float(np.sum(values * np.diff(edges)))
                got = c.integral(t0, t1)
                assert got == ref and np.signbit(got) == np.signbit(ref)
    with pytest.raises(CurveRangeError):
        c(-0.5)


def test_piecewise_must_start_at_zero():
    with pytest.raises(ValueError):
        PiecewiseConstantCurve(np.array([1.0]), np.array([2.0]))


def test_sampled_exact_at_nodes():
    grid = np.array([0.0, 1.0, 2.5, 4.0])
    vals = np.array([1.0, -2.0, 7.0, 3.0])
    c = SampledCurve(grid, vals)
    for g, v in zip(grid, vals):
        assert c(g) == v


def test_sampled_midpoint_interpolation():
    c = SampledCurve(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    assert c(0.5) == 1.0


def test_sampled_out_of_range():
    c = SampledCurve(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    with pytest.raises(CurveRangeError):
        c(2.0)
    with pytest.raises(CurveRangeError):
        c(-0.5)


def test_sampled_vector_valued():
    grid = np.array([0.0, 1.0])
    vals = np.array([[1.0, 10.0], [3.0, 30.0]])
    c = SampledCurve(grid, vals)
    np.testing.assert_allclose(c(0.5), [2.0, 20.0])
    assert c.component(1)(1.0) == 30.0


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2,
                max_size=30))
def test_sampled_monotone_consistent(values):
    values = sorted(values)
    grid = np.arange(len(values), dtype=float)
    if len(set(values)) < 2:
        values = [v + i * 1e-9 for i, v in enumerate(values)]
    c = SampledCurve(grid, np.array(values))
    ts = np.linspace(0.0, len(values) - 1.0, 101)
    out = c(ts)
    lo = np.floor(ts).astype(int)
    hi = np.minimum(lo + 1, len(values) - 1)
    vals = np.asarray(values)
    assert np.all(out >= np.minimum(vals[lo], vals[hi]) - 1e-12)
    assert np.all(out <= np.maximum(vals[lo], vals[hi]) + 1e-12)


def test_antiderivative_matches_integral_from_zero():
    c = as_curve([(0.0, 0.04), (1.5, -0.3), (4.0, 0.05)])
    ts = np.concatenate((np.linspace(0.0, 10.0, 97), [1.5, 4.0]))
    old = np.array([c.integral(0.0, t) for t in ts])
    assert np.max(np.abs(c.antiderivative(ts) - old)) <= 1e-14
    assert c.antiderivative(0.0) == 0.0


def test_segments_cut_at_the_union_of_breakpoints():
    r = as_curve([(0.0, 0.04), (2.0, 0.05), (5.0, 0.06)])
    sigma = as_curve([(0.0, 1.0), (2.0, 1.5), (3.0, 1.2)])
    # Overlapping breakpoints (2.0 in both) appear once.
    edges, (rv, sv) = segments(0.0, 10.0, r, sigma)
    assert edges.tolist() == [0.0, 2.0, 3.0, 5.0, 10.0]
    assert rv.tolist() == [0.04, 0.05, 0.05, 0.06]
    assert sv.tolist() == [1.0, 1.5, 1.2, 1.2]
    # t0 > 0 and both ends on breakpoints: only interior breakpoints cut, and
    # the first piece takes the value that starts at t0.
    edges, (rv, sv) = segments(2.0, 5.0, r, sigma)
    assert edges.tolist() == [2.0, 3.0, 5.0]
    assert rv.tolist() == [0.05, 0.05]
    assert sv.tolist() == [1.5, 1.2]
    edges, (rv,) = segments(2.5, 2.75, r)
    assert edges.tolist() == [2.5, 2.75] and rv.tolist() == [0.05]
    # No curves: the interval itself, and no values.
    edges, values = segments(1.0, 4.0)
    assert edges.tolist() == [1.0, 4.0] and values == ()


_knots = st.lists(st.floats(min_value=0.01, max_value=20.0), min_size=0,
                  max_size=6, unique=True)
_levels = st.floats(min_value=-5.0, max_value=5.0)
_times = st.floats(min_value=0.0, max_value=25.0)


@given(_knots, st.data(), _times, _times)
def test_integral_matches_antiderivative(knots, data, t0, t1):
    times = [0.0] + sorted(knots)
    values = data.draw(st.lists(_levels, min_size=len(times), max_size=len(times)))
    c = PiecewiseConstantCurve(np.array(times), np.array(values))
    expected = c.antiderivative(t1) - c.antiderivative(t0)
    assert abs(c.integral(t0, t1) - expected) <= 1e-14 * max(1.0, abs(expected))


_many_knots = st.lists(st.floats(min_value=1e-3, max_value=20.0), min_size=0,
                       max_size=12, unique=True)
# levels across many magnitudes, so that the order of a sum shows in its bits
_wide_levels = st.builds(lambda v, e: v * 10.0 ** e, _levels,
                         st.integers(min_value=-8, max_value=8))


@settings(max_examples=400)
@given(_many_knots, st.data())
def test_float_integral_matches_array_sum_bitwise(knots, data):
    """Over any number of pieces, breakpoints as endpoints included, the float
    path gives the bits of the array path's np.sum, signed zeros too."""
    times = [0.0] + sorted(knots)
    values = data.draw(st.lists(_wide_levels, min_size=len(times),
                                max_size=len(times)))
    c = PiecewiseConstantCurve(np.array(times), np.array(values))
    # the whole span, breakpoints and points between them as endpoints
    ends = st.one_of(st.sampled_from([0.0, 25.0]), st.sampled_from(times),
                     _times)
    t0, t1 = sorted((data.draw(ends), data.draw(ends)))
    edges, (pieces,) = segments(t0, t1, c)
    ref = float(np.sum(pieces * np.diff(edges)))
    got = c.integral(t0, t1)
    assert got == ref and np.signbit(got) == np.signbit(ref)
