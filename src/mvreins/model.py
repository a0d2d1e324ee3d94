"""Model parameters for the reinsurance/investment problem and their assumptions.

Parameter groups mirror the economic structure: the insurance book (claim flow
and safety loadings), the financial market (risk-free rate, risky volatility),
the dynamics of the hidden expected return, and the mean-variance objective.
All value objects are immutable after construction and safe to share.
Full information needs only a known drift (l = z = 0, n0 = 0): r, sigma
and h may be piecewise and m0 - r of either sign, as in partial information.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import PiecewiseConstantCurve, as_curve
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
    the horizon is :func:`riskless_integrals`.
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
    elif params.info_mode == INFO_FULL and not dr.is_degenerate():
        # Full information observes the expected return: a known drift.
        v.append("full mode requires degenerate drift (l = z = 0, n0 = 0)")

    return ValidationReport(ok=not v, violations=tuple(v))


def riskless_terminal_wealth(params: ModelParams) -> float:
    """Terminal wealth under the zero strategy (everything reinsured, all in the bond).

    Solves dX = [a(theta - eta) + r X] dt from x0 exactly:
    X(T) = e^{int_0^T r} (x0 + a(theta - eta) I(0)), with int r and I from
    :func:`riskless_integrals`, whose expm1 chain keeps a tiny r from
    cancelling.  This is the smallest attainable expected terminal wealth
    (the frontier vertex), alias d_min.
    """
    c = params.claim
    exponent, tail = riskless_integrals(params, 0.0)
    x0 = params.objective.x0
    return float(np.exp(exponent) * (x0 + c.a * (c.theta - c.eta) * tail))


def riskless_integrals(params: ModelParams, t):
    """(int_t^T r, I(t) = int_t^T e^{-int_t^s r} ds) over the rate curve's
    pieces of [0, T], each cut at t (width 0 before t's piece), broadcast
    over t: int r adds r u left to right, and I is chained from T back,
    I <- I + I expm1(-r u) - expm1(-r u)/r, so a tiny r does not cancel.
    A width-0 piece changes neither, so each t keeps its own sums' bits."""
    t = np.asarray(t, dtype=float)
    r, T = params.market.r, params.objective.T
    starts = [start for start in r.times.tolist() if start < T]
    rates = r.values.tolist()[:len(starts)]
    widths = [np.maximum(end - np.maximum(start, t), 0.0)
              for start, end in zip(starts, starts[1:] + [T])]
    exponent = 0.0
    for rate, width in zip(rates, widths):
        exponent = exponent + rate * width
    tail = 0.0
    for rate, width in zip(rates[::-1], widths[::-1]):
        shrink = np.expm1(-rate * width)
        tail = tail + tail * shrink - shrink / rate
    return exponent, tail


def riskless_level(params: ModelParams, t, target: float):
    """S(t): the wealth at t from which the zero strategy ends at ``target`` at T.

        S(t) = target e^{-int_t^T r} - a(theta - eta) int_t^T e^{-int_t^s r} ds,

    the riskless wealth ODE of :func:`riskless_terminal_wealth` run back from
    T (:func:`riskless_integrals`).  Broadcasts over t; a float t gives a
    float.
    """
    c = params.claim
    exponent, tail = riskless_integrals(params, t)
    level = target * np.exp(-exponent) - c.a * (c.theta - c.eta) * tail
    return float(level) if np.ndim(t) == 0 else level


def riskless_terminal_wealth_ode(params: ModelParams) -> float:
    """Same quantity by 10 000 forward RK4 steps of the riskless wealth ODE (oracle)."""
    c, mk, T = params.claim, params.market, params.objective.T
    drift = c.a * (c.theta - c.eta)
    curve = integrate_forward(lambda t, x, r: drift + r * x,
                              params.objective.x0, T, 10000, curves=(mk.r,))
    return float(curve(T))
