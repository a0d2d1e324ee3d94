"""Time-indexed curves: piecewise-constant coefficient inputs and sampled ODE outputs.

:func:`segments` is the one place that cuts an interval at the breakpoints of
piecewise-constant curves.  Every exact integral and every RK4 solve over
these coefficients works piece by piece on its cuts, reading each curve's
constant value there: an integrator step that straddled a jump would lose its
order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


class CurveRangeError(ValueError):
    """Evaluation time falls outside the curve's domain."""


# Relative slack at domain edges; absorbs roundoff from accumulated time grids.
_EDGE_TOL = 1e-9


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True, eq=False)
class PiecewiseConstantCurve:
    """Right-continuous step function of time, defined from t = 0 onward.

    ``times`` are the breakpoints (times[0] == 0, strictly increasing) and
    ``values[i]`` holds on [times[i], times[i+1]).  The last value extends to
    infinity, so the curve never needs to know the model horizon.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _as_float_array(self.times)
        values = _as_float_array(self.values)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if times.size == 0:
            raise ValueError("curve needs at least one breakpoint")
        if times[0] != 0.0:
            raise ValueError("first breakpoint must be t=0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        # list copies for the float-time path of __call__
        object.__setattr__(self, "_times", times.tolist())
        object.__setattr__(self, "_values", values.tolist())

    def __call__(self, t):
        if isinstance(t, float):  # the same piece and value as the array path
            if t < -_EDGE_TOL:
                raise CurveRangeError(f"curve evaluated at t={t} < 0")
            return self._values[max(bisect_right(self._times, t) - 1, 0)]
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < -_EDGE_TOL):
            raise CurveRangeError(f"curve evaluated at t={t} < 0")
        idx = np.searchsorted(self.times, t_arr, side="right") - 1
        idx = np.clip(idx, 0, self.values.size - 1)
        out = self.values[idx]
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    @property
    def is_constant(self) -> bool:
        return self.values.size == 1 or bool(np.all(self.values == self.values[0]))

    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("curve is not constant")
        return float(self.values[0])

    def integral(self, t0: float, t1: float) -> float:
        """Exact integral of the step function over [t0, t1]."""
        if t1 < t0:
            return -self.integral(t1, t0)
        edges, (values,) = segments(t0, t1, self)
        return float(np.sum(values * np.diff(edges)))

    def antiderivative(self, t) -> np.ndarray:
        """Exact integral of the step function over [0, t], vectorized over t >= 0."""
        t_arr = np.asarray(t, dtype=float)
        at_breaks = np.concatenate(
            ([0.0], np.cumsum(self.values[:-1] * np.diff(self.times))))
        idx = np.clip(np.searchsorted(self.times, t_arr, side="right") - 1, 0,
                      self.values.size - 1)
        return at_breaks[idx] + self.values[idx] * (t_arr - self.times[idx])


def segments(t0: float, t1: float, *curves: PiecewiseConstantCurve):
    """Cut [t0, t1] (t0 <= t1) into the pieces where every curve is constant.

    Returns ``(edges, values)``: ``edges`` is the ascending union of t0, t1
    and each curve's breakpoints strictly inside (t0, t1), and ``values[i]``
    holds curve i at the left edge of each piece, which is its value on the
    whole piece.
    """
    inner = [c.times[(c.times > t0) & (c.times < t1)] for c in curves]
    edges = np.unique(np.concatenate([[t0, t1], *inner]))
    return edges, tuple(c(edges[:-1]) for c in curves)


def as_curve(spec) -> PiecewiseConstantCurve:
    """Coerce a scalar, a (times, values) breakpoint list, or a curve to a curve."""
    if isinstance(spec, PiecewiseConstantCurve):
        return spec
    if np.isscalar(spec):
        return PiecewiseConstantCurve(np.array([0.0]), np.array([float(spec)]))
    pairs = list(spec)
    times = np.array([p[0] for p in pairs], dtype=float)
    values = np.array([p[1] for p in pairs], dtype=float)
    return PiecewiseConstantCurve(times, values)


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Function sampled on a strictly increasing time grid, linearly interpolated.

    Exact at the grid nodes; evaluation outside [grid[0], grid[-1]] (beyond a
    small relative slack) raises :class:`CurveRangeError`.  ``values`` may be
    2-D with one row per node for vector-valued curves.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = _as_float_array(self.grid)
        values = _as_float_array(self.values)
        if grid.ndim != 1:
            raise ValueError("grid must be 1-D")
        if values.shape[0] != grid.size:
            raise ValueError("values must have one entry per grid node")
        if grid.size < 2:
            raise ValueError("grid needs at least two nodes")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def t_start(self) -> float:
        return float(self.grid[0])

    @property
    def t_end(self) -> float:
        return float(self.grid[-1])

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        slack = _EDGE_TOL * max(1.0, abs(self.t_end))
        if np.any(t_arr < self.t_start - slack) or np.any(t_arr > self.t_end + slack):
            raise CurveRangeError(
                f"t={t} outside curve domain [{self.t_start}, {self.t_end}]"
            )
        t_arr = np.clip(t_arr, self.t_start, self.t_end)
        if self.values.ndim == 1:
            out = np.interp(t_arr, self.grid, self.values)
            return float(out) if t_arr.ndim == 0 else out
        # Vector-valued: manual linear interpolation between bracketing nodes.
        idx = np.clip(np.searchsorted(self.grid, t_arr, side="right") - 1, 0,
                      self.grid.size - 2)
        t0, t1 = self.grid[idx], self.grid[idx + 1]
        w = (t_arr - t0) / (t1 - t0)
        if t_arr.ndim == 0:
            return (1.0 - w) * self.values[idx] + w * self.values[idx + 1]
        return ((1.0 - w)[:, None] * self.values[idx]
                + w[:, None] * self.values[idx + 1])

    def component(self, k: int) -> "SampledCurve":
        if self.values.ndim == 1:
            raise ValueError("curve is scalar-valued")
        return SampledCurve(self.grid, self.values[:, k])
