"""Shared deterministic numerics: fixed-step RK4 integration and seeded Gaussian streams.

All terminal-value problems in this package are smooth and non-stiff, so the
classical 4th-order Runge-Kutta scheme with a fixed step is used throughout.
When coefficient curves are piecewise constant the integration is aligned to
their breakpoints (each segment is smooth, preserving 4th-order accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .curves import SampledCurve
from .errors import MvreinsError


class IntegrationDivergedError(MvreinsError):
    """ODE state became non-finite during integration."""


def _march(rhs: Callable, y0: np.ndarray, t0: float, t1: float, steps: int):
    """RK4 march from t0 to t1 (either direction); returns (times, states)."""
    h = (t1 - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    times[-1] = t1
    states = np.empty((steps + 1,) + y0.shape)
    y = y0.copy()
    states[0] = y
    for k in range(steps):
        t = times[k]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationDivergedError(
                f"non-finite state at t={times[k + 1]:.6g}"
            )
        states[k + 1] = y
    return times, states


def _segments(t_start: float, t_end: float, steps: int,
              breakpoints: Sequence[float]):
    """Split [t_start, t_end] at interior breakpoints; allot steps by length."""
    inner = sorted({float(b) for b in breakpoints if t_start < b < t_end})
    edges = [t_start] + inner + [t_end]
    total = t_end - t_start
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(1, int(round(steps * (b - a) / total)))
        out.append((a, b, n))
    return out


def _wrap_rhs(rhs: Callable, scalar: bool) -> Callable:
    if scalar:
        return lambda t, y: np.asarray([rhs(t, float(y[0]))], dtype=float)
    return lambda t, y: np.asarray(rhs(t, y), dtype=float)


def _segment_rhs(f: Callable, a: float, b: float) -> Callable:
    """Restrict stage evaluations to [a, b): coefficient curves are
    right-continuous, so at the segment's right edge the left limit applies.
    Both edges are clamped: a stage time that rounds just past either edge
    (the last step's t + h, marching either way) must not read a neighbouring
    segment's coefficients."""
    b_inside = np.nextafter(b, a)
    return lambda t, y: f(a if t < a else (t if t < b_inside else b_inside), y)


def integrate_backward(rhs: Callable, terminal, T: float, steps: int = 10000, *,
                       t_start: float = 0.0,
                       breakpoints: Sequence[float] = ()) -> SampledCurve:
    """Solve y' = rhs(t, y) with y(T) = terminal, marching back to t_start.

    Returns the solution forward-indexed (ascending grid).  ``terminal`` may be
    a scalar or a vector; the returned curve matches its shape.  Raises
    :class:`IntegrationDivergedError` if the state becomes non-finite.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    scalar = np.ndim(terminal) == 0
    y_T = np.atleast_1d(np.asarray(terminal, dtype=float))
    f = _wrap_rhs(rhs, scalar)

    grids, blocks = [], []
    y = y_T
    for a, b, n in reversed(_segments(t_start, T, steps, breakpoints)):
        times, states = _march(_segment_rhs(f, a, b), y, b, a, n)
        y = states[-1]
        grids.append(times[::-1])
        blocks.append(states[::-1])
    # Segments were integrated from T downward; stitch them in forward order,
    # dropping duplicated shared endpoints.
    grid = np.concatenate([g if i == 0 else g[1:]
                           for i, g in enumerate(reversed(grids))])
    vals = np.concatenate([v if i == 0 else v[1:]
                           for i, v in enumerate(reversed(blocks))])
    if scalar:
        vals = vals[:, 0]
    return SampledCurve(grid, vals)


def integrate_forward(rhs: Callable, initial, T: float, steps: int = 10000, *,
                      t_start: float = 0.0,
                      breakpoints: Sequence[float] = ()) -> SampledCurve:
    """Solve y' = rhs(t, y) with y(t_start) = initial, marching to T."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    scalar = np.ndim(initial) == 0
    y0 = np.atleast_1d(np.asarray(initial, dtype=float))
    f = _wrap_rhs(rhs, scalar)

    grids, blocks = [], []
    y = y0
    for a, b, n in _segments(t_start, T, steps, breakpoints):
        times, states = _march(_segment_rhs(f, a, b), y, a, b, n)
        y = states[-1]
        grids.append(times)
        blocks.append(states)
    grid = np.concatenate([g if i == 0 else g[1:] for i, g in enumerate(grids)])
    vals = np.concatenate([v if i == 0 else v[1:] for i, v in enumerate(blocks)])
    if scalar:
        vals = vals[:, 0]
    return SampledCurve(grid, vals)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (master_seed, substream_id) pins the sequence.

    Substreams are carved out of the Philox counter space (each substream owns
    a disjoint 2**192-long counter block), so distinct ids give statistically
    independent streams and any parallel schedule reproduces the same draws.
    """

    master_seed: int
    substream_id: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.substream_id < 0:
            raise ValueError("seed and substream id must be nonnegative")

    def substream(self, k: int) -> "RngStream":
        return RngStream(self.master_seed, k)

    def generator(self) -> np.random.Generator:
        bits = np.random.Philox(key=self.master_seed,
                                counter=[0, 0, 0, self.substream_id])
        return np.random.Generator(bits)


def gaussian_increments(stream: RngStream, count: int, dt: float) -> np.ndarray:
    """Reproducible N(0, dt) increments: same (seed, substream, count, dt) -> same bits."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return np.sqrt(dt) * stream.generator().standard_normal(count)
