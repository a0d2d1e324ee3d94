"""Model parameters for the reinsurance/investment problem and their standing assumptions.

Parameter groups mirror the economic structure: the insurance book (claim flow
and safety loadings), the financial market (risk-free rate, risky volatility),
the dynamics of the hidden expected return, and the mean-variance objective.
All value objects are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import PiecewiseConstantCurve, as_curve, segments
from .odekernel import integrate_forward

import numpy as np

INFO_FULL = "full"
INFO_PARTIAL = "partial"


@dataclass(frozen=True)
class ClaimParams:
    """Insurance book: claim flow dC = a dt - b dW0, premium rate (1+theta) a.

    ``eta`` is the reinsurer's safety loading; retention q(t) cedes a fraction
    1-q(t) of each claim against a premium stream (1+eta) a (1-q(t)).
    """

    a: float
    b: float
    theta: float
    eta: float


@dataclass(frozen=True)
class MarketParams:
    """Risk-free rate and risky-asset volatility, constant or piecewise-constant.

    Both are :class:`~mvreins.curves.PiecewiseConstantCurve`; discounting to
    the horizon is :meth:`ModelParams.discount_to_horizon`.
    """

    r: PiecewiseConstantCurve
    sigma: PiecewiseConstantCurve

    def __init__(self, r, sigma):
        object.__setattr__(self, "r", as_curve(r))
        object.__setattr__(self, "sigma", as_curve(sigma))


@dataclass(frozen=True)
class DriftParams:
    """Hidden expected-return dynamics: d(mu) = h mu dt + l dW1 + z dW2.

    ``m0`` and ``n0`` are the mean and variance of the Gaussian prior on mu(0);
    the observer's estimate starts there.
    """

    h: PiecewiseConstantCurve
    l: PiecewiseConstantCurve
    z: PiecewiseConstantCurve
    m0: float
    n0: float

    def __init__(self, h, l, z, m0, n0):
        object.__setattr__(self, "h", as_curve(h))
        object.__setattr__(self, "l", as_curve(l))
        object.__setattr__(self, "z", as_curve(z))
        object.__setattr__(self, "m0", float(m0))
        object.__setattr__(self, "n0", float(n0))

    def is_degenerate(self) -> bool:
        """True when the drift carries no uncertainty (l = z = 0, n0 = 0)."""
        return not (self.l.values.any() or self.z.values.any() or self.n0)


@dataclass(frozen=True)
class Objective:
    """Mean-variance target: minimize Var[X(T)] subject to E[X(T)] = d."""

    x0: float
    T: float
    d: float


@dataclass(frozen=True)
class ModelParams:
    claim: ClaimParams
    market: MarketParams
    drift: DriftParams
    objective: Objective
    info_mode: str = INFO_FULL

    def discount_to_horizon(self, t: float) -> float:
        """exp(-int_t^T r)."""
        return float(np.exp(-self.market.r.integral(t, self.objective.T)))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(self.violations)


def validate(params: ModelParams) -> ValidationReport:
    """Check the standing assumptions; deterministic and side-effect free.

    Returns a report rather than raising, so callers can surface every
    violation at once (the CLI maps a failed report to exit code 1).
    """
    v: list[str] = []
    c, mk, dr, ob = params.claim, params.market, params.drift, params.objective

    if not c.a > 0:
        v.append("claim.a > 0 required")
    if not c.b > 0:
        v.append("claim.b > 0 required")
    if not c.theta > 0:
        v.append("claim.theta > 0 required")
    if not c.eta > 0:
        v.append("claim.eta > 0 required")

    if mk.r.values.min() <= 0:
        v.append("market.r: r(t) > 0 required")
    if mk.sigma.values.min() <= 0:
        v.append("market.sigma: sigma_min > 0 required")

    if dr.n0 < 0:
        v.append("drift.n0 >= 0 required")

    if not ob.x0 > 0:
        v.append("objective.x0 > 0 required")
    if not ob.T > 0:
        v.append("objective.T > 0 required")

    if params.info_mode not in (INFO_FULL, INFO_PARTIAL):
        v.append(f"info_mode must be 'full' or 'partial', got {params.info_mode!r}")
    elif params.info_mode == INFO_FULL:
        # Closed forms in full mode assume a constant, known expected return
        # above the risk-free rate, and constant market coefficients.
        if not dr.is_degenerate():
            v.append("full mode requires degenerate drift (l = z = 0, n0 = 0)")
        if not (dr.h.is_constant and dr.h.constant_value() == 0.0):
            v.append("full mode requires h = 0 (constant expected return)")
        if not (mk.r.is_constant and mk.sigma.is_constant):
            v.append("full mode requires constant r and sigma")
        if mk.r.is_constant and not dr.m0 > mk.r.constant_value():
            v.append("full mode requires m0 > r (positive excess return)")

    return ValidationReport(ok=not v, violations=tuple(v))


def riskless_terminal_wealth(params: ModelParams) -> float:
    """Terminal wealth under the zero strategy (everything reinsured, all in the bond).

    Solves dX = [a(theta - eta) + r X] dt from x0 exactly, chaining the affine
    closed form across the rate curve's segments: over a segment of length
    u, x <- x + x expm1(r u) + a(theta - eta) expm1(r u)/r, so a tiny r does
    not cancel in e^{r u} - 1.  This is the smallest attainable expected
    terminal wealth (the frontier vertex), alias d_min.
    """
    c, mk, T = params.claim, params.market, params.objective.T
    drift = c.a * (c.theta - c.eta)
    edges, (rates,) = segments(0.0, T, mk.r)
    x = params.objective.x0
    for t0, t1, rate in zip(edges[:-1], edges[1:], rates.tolist()):
        grow = np.expm1(rate * (t1 - t0))
        x = x + x * grow + drift * grow / rate
    return float(x)


def riskless_level(params: ModelParams, t: float, target: float) -> float:
    """S(t): the wealth at t from which the zero strategy ends at ``target`` at T.

        S(t) = target e^{-int_t^T r} - a(theta - eta) int_t^T e^{-int_t^s r} ds,

    the riskless wealth ODE of :func:`riskless_terminal_wealth` run back from
    T.  The premium integral I is chained over the rate curve's pieces from T
    back to t: over a piece of length u, I <- I + I expm1(-r u) - expm1(-r u)/r.
    The premium term is added only when a(theta - eta) is non-zero, so at
    theta = eta S(t) is target e^{-int_t^T r} bit for bit.
    """
    c = params.claim
    level = target * params.discount_to_horizon(t)
    premium = c.a * (c.theta - c.eta)
    if premium == 0.0:
        return level
    edges, (rates,) = segments(t, params.objective.T, params.market.r)
    tail = 0.0
    for rate, width in zip(rates[::-1].tolist(), np.diff(edges)[::-1].tolist()):
        shrink = np.expm1(-rate * width)
        tail = tail + tail * shrink - shrink / rate
    return float(level - premium * tail)


def riskless_terminal_wealth_ode(params: ModelParams) -> float:
    """Same quantity by 10 000 forward RK4 steps of the riskless wealth ODE (oracle)."""
    c, mk, T = params.claim, params.market, params.objective.T
    drift = c.a * (c.theta - c.eta)
    curve = integrate_forward(lambda t, x, r: drift + r * x,
                              params.objective.x0, T, 10000, curves=(mk.r,))
    return float(curve(T))
