"""Shared deterministic numerics: fixed-step RK4 integration and seeded Gaussian streams.

One RK4 march serves both directions: :func:`integrate_forward` and
:func:`integrate_backward` are the same segment loop run from 0 to T or from T
to 0.  Production code solves nothing with it but the conditional variance
(:func:`~mvreins.filtering.solve_variance`); every other caller is an oracle
that checks a closed form (the Riccati pair, the full-information P, Q, R
coefficients, the riskless wealth).  The problems are smooth and non-stiff,
so the step is fixed; when coefficient curves are piecewise constant the march
is cut at their breakpoints (each segment is smooth, preserving 4th-order
accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .curves import SampledCurve
from .errors import MvreinsError


class IntegrationDivergedError(MvreinsError):
    """ODE state became non-finite during integration."""


def _march(rhs: Callable, y, t0: float, t1: float, steps: int):
    """RK4 march of y from t0 to t1 (either way) in one segment; returns the
    times after t0, the states there and the final state.

    Curves are right-continuous, so stage times are clamped to [lo,
    nextafter(hi, lo)]: a stage that rounds past either edge reads this
    segment's coefficients.  A non-finite state raises before any rhs sees it.
    """
    h = (t1 - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    times[-1] = t1
    lo, hi = min(t0, t1), max(t0, t1)
    stage_times = np.clip(times[:-1, None] + np.array([0.0, 0.5 * h, h]),
                          lo, np.nextafter(hi, lo))
    states = np.empty((steps,) + np.shape(y))
    for k, row in enumerate(stage_times):
        t, t_mid, t_end = row.tolist()
        k1 = rhs(t, y)
        k2 = rhs(t_mid, y + 0.5 * h * k1)
        k3 = rhs(t_mid, y + 0.5 * h * k2)
        k4 = rhs(t_end, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise IntegrationDivergedError(
                f"non-finite state at t={times[k + 1]:.6g}"
            )
        states[k] = y
    return times[1:], states, y


def _integrate(rhs: Callable, y_start, t_from: float, t_to: float, steps: int,
               breakpoints: Sequence[float]) -> SampledCurve:
    """RK4 solve of y' = rhs(t, y), y(t_from) = y_start, marched to t_to either way.

    Each breakpoint segment gets max(1, round(steps * len / total)) steps; the
    curve is returned on an ascending grid.  A scalar state marches as a float
    and ``rhs`` returns a float; a vector state's ``rhs`` returns an array.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    lo, hi = min(t_from, t_to), max(t_from, t_to)
    inner = sorted({float(b) for b in breakpoints if lo < b < hi},
                   reverse=t_to < t_from)
    edges = [t_from] + inner + [t_to]
    y = float(y_start) if np.ndim(y_start) == 0 else np.array(y_start, dtype=float)
    grids, blocks = [np.array([t_from], dtype=float)], [np.array([y])]
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(1, round(steps * (b - a) / (t_to - t_from)))
        times, states, y = _march(rhs, y, a, b, n)
        grids.append(times)
        blocks.append(states)
    grid, values = np.concatenate(grids), np.concatenate(blocks)
    if t_to < t_from:
        grid, values = grid[::-1], values[::-1]
    return SampledCurve(grid, values)


def integrate_backward(rhs: Callable, terminal, T: float, steps: int = 10000, *,
                       breakpoints: Sequence[float] = ()) -> SampledCurve:
    """Solve y' = rhs(t, y) with y(T) = terminal, marching back to 0.

    Returns the solution forward-indexed (ascending grid).  ``terminal`` may be
    a scalar or a vector; the returned curve matches its shape.  Raises
    :class:`IntegrationDivergedError` if the state becomes non-finite.
    """
    return _integrate(rhs, terminal, T, 0.0, steps, breakpoints)


def integrate_forward(rhs: Callable, initial, T: float, steps: int = 10000, *,
                      breakpoints: Sequence[float] = ()) -> SampledCurve:
    """Solve y' = rhs(t, y) with y(0) = initial, marching to T."""
    return _integrate(rhs, initial, 0.0, T, steps, breakpoints)


@dataclass(frozen=True)
class RngStream:
    """Seeded random stream: (master_seed, substream_id) pins the sequence.

    Substream k is the SFC64 generator seeded by the k-th child of
    ``SeedSequence(master_seed)`` (spawn key ``(k,)``), so distinct ids give
    statistically independent streams and any parallel schedule reproduces
    the same draws.
    """

    master_seed: int
    substream_id: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.substream_id < 0:
            raise ValueError("seed and substream id must be nonnegative")

    def substream(self, k: int) -> "RngStream":
        return RngStream(self.master_seed, k)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed,
                                     spawn_key=(self.substream_id,))
        return np.random.Generator(np.random.SFC64(seq))


def gaussian_increments(stream: RngStream, count: int, dt: float) -> np.ndarray:
    """Reproducible N(0, dt) increments: same (seed, substream, count, dt) -> same bits."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return np.sqrt(dt) * stream.generator().standard_normal(count)
