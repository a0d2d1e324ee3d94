"""Shared deterministic numerics: fixed-step RK4 integration and seeded Gaussian streams.

Two RK4 marches share one segment loop.  The general march serves
:func:`integrate_forward` and :func:`integrate_backward`, the same loop run
from 0 to T or from T to 0; it calls the right-hand side at every stage.  It
is left with two callers: the conditional variance
(:func:`~mvreins.filtering.solve_variance`), the only equation production
code solves with it, and the riskless-wealth oracle
(:func:`~mvreins.model.riskless_terminal_wealth_ode`).  The linear march,
:func:`integrate_linear_backward`, solves y' = C(t) y backward from y(T),
for a scalar y or a vector with C lower triangular, plus quadrature
components z' = g(t, y) that feed back into nothing.  It evaluates C at
every stage time of a segment in one array call, forms its RK4 steps as
per-step factors in one array pass and runs only the steps themselves as
float loops.  It serves the oracles of the two linear systems: the Riccati
pair (:func:`~mvreins.conelq.solve_riccati_pair`, scalar) and the
full-information P, Q, R (:func:`~mvreins.fullinfo.solve_pqr`, (P, Q) with R
as quadrature).  A call takes a fixed number of steps; the validation suite
doubles the oracles' steps until a step halving no longer moves them.  Both
marches are cut where the piecewise-constant coefficient curves they are
given jump (:func:`~mvreins.curves.segments`), so every segment is
smooth and keeps 4th-order accuracy, and the right-hand side receives each
segment's coefficient values as arguments instead of looking the curves up
at every stage.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .curves import PiecewiseConstantCurve, SampledCurve, segments
from .errors import MvreinsError


class IntegrationDivergedError(MvreinsError):
    """ODE state became non-finite, or left the range its equation keeps it
    in (a negative conditional variance): the step is too coarse."""


def _stage_times(t0: float, t1: float, steps: int):
    """Step h, the step end times (times[0] = t0, times[-1] = t1) and the
    (steps, 3) RK4 stage times of one segment marched from t0 to t1.

    Stage times are clamped to [lo, nextafter(hi, lo)], so a stage that
    rounds past either edge still sees a time inside this segment.
    """
    h = (t1 - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    times[-1] = t1
    lo, hi = min(t0, t1), max(t0, t1)
    stage_times = np.clip(times[:-1, None] + np.array([0.0, 0.5 * h, h]),
                          lo, np.nextafter(hi, lo))
    return h, times, stage_times


def _march(rhs: Callable, y, t0: float, t1: float, steps: int, coeffs: Sequence):
    """RK4 march of y from t0 to t1 (either way) in one segment; returns the
    times after t0, the states there and the final state.

    ``rhs`` is called as ``rhs(t, y, *coeffs)`` at the stage times of
    :func:`_stage_times`.  A non-finite state raises before any rhs sees it.
    """
    h, times, stage_times = _stage_times(t0, t1, steps)
    states = np.empty((steps,) + np.shape(y))
    finite = math.isfinite if np.ndim(y) == 0 else (lambda v: np.isfinite(v).all())
    # row by row: one tolist() of every row would hold 3 floats per step at once
    for k, row in enumerate(stage_times):
        t, t_mid, t_end = row.tolist()
        k1 = rhs(t, y, *coeffs)
        k2 = rhs(t_mid, y + 0.5 * h * k1, *coeffs)
        k3 = rhs(t_mid, y + 0.5 * h * k2, *coeffs)
        k4 = rhs(t_end, y + h * k3, *coeffs)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not finite(y):
            raise IntegrationDivergedError(
                f"non-finite state at t={times[k + 1]:.6g}"
            )
        states[k] = y
    return times[1:], states, y


def _accumulate_lower(delta: np.ndarray, y: list[float]) -> np.ndarray:
    """The states y, (1 + delta_0) y, ... of the steps y <- y + delta y, for a
    stack of lower-triangular (d, d) factors ``delta``.

    Component i runs as a float loop, y_i <- y_i + (s_i + delta_ii y_i),
    where s_i = sum_{j<i} delta_ij y_j comes in one array pass from the
    components already marched; the first component takes y_0 + y_0 delta_00.
    """
    nodes = np.empty((len(delta) + 1, len(y)))
    for i, y_i in enumerate(y):
        diag = delta[:, i, i].tolist()
        if i == 0:
            column = accumulate(diag, lambda v, g: v + v * g, initial=y_i)
        else:
            s = delta[:, i, 0] * nodes[:-1, 0]
            for j in range(1, i):
                s = s + delta[:, i, j] * nodes[:-1, j]
            column = accumulate(zip(diag, s.tolist()),
                                lambda v, gs: v + (gs[1] + gs[0] * v), initial=y_i)
        nodes[:, i] = list(column)
    return nodes


def _march_linear(rate: Callable, y, t0: float, t1: float, steps: int,
                  coeffs: Sequence, quadrature: Callable | None = None):
    """RK4 march of y' = C(t) y from t0 to t1 in one segment; returns as
    :func:`_march` does.

    ``rate(stage_times, *coeffs)`` returns C at all the segment's stage
    times at once: an (n, 3) array for a scalar y, an (n, 3, d, d) array of
    lower-triangular matrices for a vector.  With c_i = h C(stage i), the
    RK4 step of this equation is y <- y + delta y,
    delta = (c_1 + 2 k_2 + 2 k_3 + k_4)/6, with k_2 = c_2 (1 + c_1/2),
    k_3 = c_2 (1 + k_2/2), k_4 = c_4 (1 + k_3) (matrix products, 1 the
    identity, for a vector).  The steps run as float loops
    (:func:`_accumulate_lower`): a product of the factors 1 + delta in numpy
    would round each alike and let the error grow with the step count.

    A vector y may end in components z past the d that C acts on, with
    z' = g(t, y) feeding back into nothing.  RK4 gives z the h/6-weighted
    sum (1, 2, 2, 1) of g at the stage states y, (1 + c_1/2) y,
    (1 + k_2/2) y and (1 + k_3) y, so ``quadrature(t, stage_y, *coeffs)``
    is called once, on a (4, n) array of stage times and the (4, n, d)
    stage states, and returns g there, shaped (4, n) or (4, n, m).
    """
    h, times, stage_times = _stage_times(t0, t1, steps)
    c = h * rate(stage_times, *coeffs)
    scalar = np.ndim(y) == 0
    d = 1 if scalar else c.shape[-1]
    if not scalar and np.triu(c, 1).any():
        raise ValueError("the linear march needs a lower-triangular C")
    one, mul = (1.0, np.multiply) if scalar else (np.eye(d), np.matmul)
    c1, c2, c4 = np.moveaxis(c, 1, 0)
    m2 = one + 0.5 * c1
    k2 = mul(c2, m2)
    m3 = one + 0.5 * k2
    k3 = mul(c2, m3)
    m4 = one + k3
    k4 = mul(c4, m4)
    delta = (c1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    nodes = _accumulate_lower(delta.reshape(steps, d, d),
                              np.atleast_1d(y)[:d].tolist())
    states = nodes[1:, 0] if scalar else nodes[1:]
    if quadrature is not None:
        start, factors = nodes[:-1], np.stack([m2, m3, m4])
        stage_y = np.concatenate([start[None], sum(factors[..., j] * start[:, j, None]
                                                   for j in range(d))])
        g = quadrature(stage_times[:, [0, 1, 1, 2]].T, stage_y, *coeffs)
        g = np.reshape(g, (4, steps, -1))
        dz = (h / 6.0) * (g[0] + 2.0 * g[1] + 2.0 * g[2] + g[3])
        z = np.cumsum(np.concatenate([y[None, d:], dz]), axis=0)[1:]
        states = np.concatenate([states, z], axis=1)
    bad = ~np.isfinite(states.reshape(steps, -1)).all(axis=1)
    if bad.any():
        raise IntegrationDivergedError(
            f"non-finite state at t={times[np.argmax(bad) + 1]:.6g}")
    return times[1:], states, float(states[-1]) if scalar else states[-1]


def _integrate(march: Callable, rhs: Callable, y_start, t_from: float, t_to: float,
               steps: int, curves: Sequence[PiecewiseConstantCurve]) -> SampledCurve:
    """RK4 solve of y' = rhs(t, y, *c), y(t_from) = y_start, marched to t_to either way.

    ``march`` is :func:`_march` or :func:`_march_linear` (with its
    quadrature bound), which gives ``rhs`` its meaning.  The march is cut at
    the breakpoints of ``curves``; on each segment ``c`` holds their values
    there, as Python floats.  Each segment gets
    max(1, round(steps * len / total)) steps; the curve is returned on an
    ascending grid.  A scalar state marches as a float and ``rhs``
    returns a float; a vector state's ``rhs`` returns an array.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    edges, levels = segments(min(t_from, t_to), max(t_from, t_to), *curves)
    pieces = list(zip(edges[:-1].tolist(), edges[1:].tolist(),
                      *(v.tolist() for v in levels)))
    if t_to < t_from:
        pieces = [(b, a, *c) for a, b, *c in reversed(pieces)]
    y = float(y_start) if np.ndim(y_start) == 0 else np.array(y_start, dtype=float)
    grids, blocks = [np.array([t_from], dtype=float)], [np.array([y])]
    for a, b, *coeffs in pieces:
        n = max(1, round(steps * (b - a) / (t_to - t_from)))
        times, states, y = march(rhs, y, a, b, n, tuple(coeffs))
        grids.append(times)
        blocks.append(states)
    grid, values = np.concatenate(grids), np.concatenate(blocks)
    if t_to < t_from:
        grid, values = grid[::-1], values[::-1]
    return SampledCurve(grid, values)


def integrate_backward(rhs: Callable, terminal, T: float, steps: int = 10000, *,
                       curves: Sequence[PiecewiseConstantCurve] = ()) -> SampledCurve:
    """Solve y' = rhs(t, y, *c) with y(T) = terminal, marching back to 0.

    ``c`` holds the values of ``curves`` on the current segment (nothing
    when no curves are given, so the call is ``rhs(t, y)``).  Returns the
    solution forward-indexed (ascending grid).  ``terminal`` may be a scalar
    or a vector; the returned curve matches its shape.  Raises
    :class:`IntegrationDivergedError` if the state becomes non-finite.
    """
    return _integrate(_march, rhs, terminal, T, 0.0, steps, curves)


def integrate_forward(rhs: Callable, initial, T: float, steps: int = 10000, *,
                      curves: Sequence[PiecewiseConstantCurve] = ()) -> SampledCurve:
    """Solve y' = rhs(t, y, *c) with y(0) = initial, marching to T; ``c`` as
    in :func:`integrate_backward`."""
    return _integrate(_march, rhs, initial, 0.0, T, steps, curves)


def integrate_linear_backward(rate: Callable, terminal, T: float, steps: int, *,
                              curves: Sequence[PiecewiseConstantCurve] = (),
                              quadrature: Callable | None = None) -> SampledCurve:
    """Solve y' = C(t) y with y(T) = terminal, marching back to 0 by RK4.

    ``rate(stage_times, *c)`` receives an (n, 3) array of one segment's RK4
    stage times and ``c``, the values of ``curves`` there, and returns C at
    those times: shaped (n, 3) for a scalar ``terminal``, (n, 3, d, d) for a
    vector.  A vector ``terminal`` longer than d ends in components z with
    z' = ``quadrature(t, y, *c)``, which reads the first d components only
    (see :func:`_march_linear`).  Segments and step counts are those of
    :func:`integrate_backward`.  Returns the solution on an ascending grid;
    raises :class:`IntegrationDivergedError` if it becomes non-finite.
    """
    return _integrate(partial(_march_linear, quadrature=quadrature), rate,
                      terminal, T, 0.0, steps, curves)


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
