"""Kalman-Bucy filtering of the hidden expected return from observed price returns.

Conditional on the observation filtration the hidden drift stays Gaussian with
mean m(t) and variance n(t).  The variance solves a deterministic Riccati ODE

    n' = 2 h n + l^2 + z^2 - (l + n/sigma)^2

shared by every path and marched piece by piece between the jumps of h, l, z
and sigma (:func:`~mvreins.curves.segments`), with their constant values on
each piece as its coefficients.  The mean is driven by the innovation
increment dWbar = (dS/S - m dt)/sigma, a Brownian increment under the
observation filtration:

    dm = h m dt + (l + n/sigma) dWbar.

:func:`filter_coefficients` gives every Euler filter in the package its
left-endpoint coefficients on t_k = k dt, never on a clock of repeated
t + dt additions, so a step that starts on a breakpoint uses the new
segment's values, and :meth:`FilterCoefficients.advance` is the one Euler
step of the mean, m (1 + h dt) + (l + n/sigma) dWbar with 1 + h dt taken
from a per-step table.  :func:`run_filter` forms the innovations from observed
returns for a whole block of paths at once, one row per path; the Monte
Carlo engine forms them inside its path loop (physical dynamics) or draws
them (innovation dynamics), and the CLI's ``filter`` draws one path.
:func:`projected_mean_curve` gives the filter mean's expectation
m0 exp(int h) as an exact function of t for the Riccati oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import SampledCurve, as_curve
from .model import DriftParams
from .odekernel import IntegrationDivergedError, integrate_forward


@dataclass(frozen=True, eq=False)
class FilterPath:
    """The filter on a uniform grid, one row per path, with recorded innovations.

    ``innovations`` has the shape of the observed returns and ``means`` one
    column more (the start m0); ``variances`` is shared by all rows.
    """

    times: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    innovations: np.ndarray  # one increment per step and path


def solve_variance(drift: DriftParams, sigma, T: float,
                   steps: int = 10000) -> SampledCurve:
    """Forward RK4 solution of the conditional-variance Riccati ODE from n0.

    The variance is deterministic, so it is solved once and shared by all
    Monte Carlo paths.  The march is cut where h, l, z or sigma jump and its
    right-hand side reads their values on each piece.  A non-finite or
    negative state raises :class:`~mvreins.odekernel.IntegrationDivergedError`;
    a stiff prior (large n0) needs more steps.
    """
    def rhs(t, n, h, l, z, sig):
        gain_num = l + n / sig
        return 2.0 * h * n + l * l + z ** 2 - gain_num * gain_num

    curve = integrate_forward(rhs, drift.n0, T, steps,
                              curves=(drift.h, drift.l, drift.z, as_curve(sigma)))
    if curve.values.min() < -1e-12:
        raise IntegrationDivergedError(
            f"conditional variance went negative: min {curve.values.min():.3e}"
        )
    return curve


@dataclass(frozen=True, eq=False)
class FilterCoefficients:
    """Left-endpoint coefficients of the Euler filter on t_k = k dt, k < n_steps.

    ``vol = l + n/sigma`` is the volatility of the filter mean under the
    innovation dynamics, and ``growth = 1 + h dt`` the factor by which one
    Euler step scales a mean (the filter's m, or the hidden drift) before its
    noise is added.
    """

    t: np.ndarray
    h: np.ndarray
    l: np.ndarray
    z: np.ndarray
    sigma: np.ndarray
    vol: np.ndarray
    growth: np.ndarray

    def advance(self, k: int, m, innovation, scratch=None):
        """Euler step k of the filter mean, m (1 + h dt) + vol dWbar, given the
        innovation increment dWbar: in place for an array m, and returned so
        that a float m works too.  An array m takes a ``scratch`` array of its
        shape for the noise term, so the step allocates nothing."""
        if scratch is None:
            m *= self.growth[k]
            m += self.vol[k] * innovation
            return m
        np.multiply(innovation, self.vol[k], out=scratch)
        m *= self.growth[k]
        m += scratch
        return m


def filter_coefficients(drift: DriftParams, sigma, variance: SampledCurve,
                        n_steps: int, dt: float) -> FilterCoefficients:
    """Per-step filter coefficients from a given conditional-variance curve."""
    t = dt * np.arange(n_steps)
    sig, l, h = as_curve(sigma)(t), drift.l(t), drift.h(t)
    return FilterCoefficients(t=t, h=h, l=l, z=drift.z(t), sigma=sig,
                              vol=l + variance(t) / sig, growth=1.0 + h * dt)


def run_filter(observed_returns, drift: DriftParams, sigma,
               dt: float) -> FilterPath:
    """Run the Euler filter on a uniform dt grid, one row of observed returns per path.

    ``observed_returns[..., k]`` is the price relative dS/S accumulated over
    [t_k, t_k + dt]; a 1-D array is one path.  Every path starts from the
    drift's m0 and n0.  Each step forms and records the innovation increment
    (obs - m dt)/sigma, whose empirical mean/variance should match Brownian
    increments, and advances the mean with it.  Euler stepping matches the
    simulation grid; higher-order in the mean would be wasted because the
    driving term is stochastic.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    obs = np.asarray(observed_returns, dtype=float)
    if obs.ndim == 0 or obs.size == 0:
        raise ValueError("observed returns need one row per path and at least one step")
    n_steps = obs.shape[-1]
    variance = solve_variance(drift, sigma, n_steps * dt, steps=max(1000, n_steps))
    coef = filter_coefficients(drift, sigma, variance, n_steps, dt)

    times = dt * np.arange(n_steps + 1)
    means = np.empty(obs.shape[:-1] + (n_steps + 1,))
    innovations = np.empty(obs.shape)
    means[..., 0] = m = np.full(obs.shape[:-1], drift.m0)
    scratch = np.empty_like(m)
    for k in range(n_steps):
        innovations[..., k] = (obs[..., k] - m * dt) / coef.sigma[k]
        means[..., k + 1] = coef.advance(k, m, innovations[..., k], scratch)
    return FilterPath(times, means, variance(times), innovations)


def projected_mean_curve(drift: DriftParams):
    """Mean of the filter process as the function t -> m0 * exp(int_0^t h).

    The deterministic stand-in for the filtered drift that the Riccati
    oracle (:func:`~mvreins.conelq.solve_riccati_pair`) reads at its RK4
    stage times; exact when the drift is degenerate.  The exact
    antiderivative of the step function h makes it exact at every t >= 0,
    kinks included.  Broadcasts over t.
    """
    def mean(t):
        return drift.m0 * np.exp(drift.h.antiderivative(t))

    return mean
