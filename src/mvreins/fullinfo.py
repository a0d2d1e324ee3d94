"""Full information as the degenerate-drift case: the value function, the
frontier vertex, and numerical HJB/viscosity verification.

With a constant known expected return m0 > r (and constant r and sigma) the
solution is the :class:`~mvreins.frontier.Solution` record that partial
information builds too, with k+ = 0 and k- = -2 A1 T from
:func:`~mvreins.conelq.riccati_pair`.  In shifted wealth x = X - (d - gamma*)
the value function is the cone-constrained LQ value of Hu and Zhou (2005),

    V(t, x) = 1/2 P+/-(t) (x - x_c(t))^2,   P+/-(t) = exp((T - t)(2r - k+/-/T)),

with P+ on and above the switching curve x_c(t) and P- below it; the form of
P+/- is exact because kappa+/- are constant here.  The curve is

    x_c(t) = -(a(theta - eta) + r (d - gamma*)) (1 - e^{-r(T - t)}) / r,

in actual wealth the riskless level S(t) of
:func:`~mvreins.model.riskless_level`, the wealth from which the zero
strategy ends at d - gamma*; so x - x_c is the gap X - S(t) of partial
information.  Above the curve the optimal control is (0, 0); below it both
components are proportional to the gap: the law
:func:`~mvreins.conelq.gap_feedback` of both modes.  V is C^1 but not C^2
across the curve, where its curvature drops from P+ to P-, hence the
viscosity check.

The paper writes V as two squared-affine branches,
1/2 [e^{r(T-t)} x + g1(t)]^2 above and
1/2 [e^{(A1+r)(T-t)} x + e^{A1(T-t)} g1(t)]^2 below, with
g1(t) = f expm1(r(T-t))/r, f = a(theta - eta) + (d - gamma) r and
A1 = -(m0 - r)^2/(2 sigma^2) - a^2 eta^2/(2 b^2).  Those forms are kept only
where they act as an independent route: :func:`solve_pqr` integrates the
branches' coefficient ODEs from A1 and f of the model by RK4, as the
validation suite's oracle.

Frontier constant: expanding e^{rT} x + g1(0) gives the riskless terminal
wealth x0 e^{rT} + a(theta-eta)(e^{rT}-1)/r as the frontier vertex.  The
``compat`` flag of :func:`compute_solution`, its only reader, stores the
constant x0 e^{rT} + a(theta-eta)/r as the solution's vertex instead, which
reproduces historically published dual values but is refuted by Monte Carlo
(see the acceptance suite); the expanded form is the default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .conelq import cone_quadratic_argmin, gap_feedback
from .curves import SampledCurve
from .frontier import Solution, _float_if_scalar, assemble_solution, dual_value
from .model import INFO_FULL, ModelParams, validate
from .odekernel import integrate_linear_backward

# Relative x-step of the finite-difference HJB check; its t-step is
# _FD_STEP min(1, T).
_FD_STEP = 1e-4


class NearCurveError(ValueError):
    """Finite-difference stencil too close to the switching curve."""


class Region(enum.Enum):
    ABOVE_CURVE = "above_curve"
    BELOW_CURVE = "below_curve"
    ON_CURVE = "on_curve"


# indexed by sign(x - x_c) + 1 in region
_REGIONS = np.array([Region.BELOW_CURVE, Region.ON_CURVE, Region.ABOVE_CURVE],
                    dtype=object)


def _compat_vertex(model: ModelParams) -> float:
    """The published frontier constant x0 e^{rT} + a(theta - eta)/r."""
    c, mk = model.claim, model.market
    r = mk.r.constant_value()
    ert = float(np.exp(r * model.objective.T))
    return model.objective.x0 * ert + c.a * (c.theta - c.eta) / r


def _a1(model: ModelParams) -> float:
    """The paper's A1, for the oracle and the ``a1-definition`` check."""
    c, mk = model.claim, model.market
    mu = model.drift.m0
    r = mk.r.constant_value()
    sigma = mk.sigma.constant_value()
    return -(mu - r) ** 2 / (2.0 * sigma ** 2) - c.a ** 2 * c.eta ** 2 / (2.0 * c.b ** 2)


def _f(model: ModelParams, d: float, gamma: float) -> float:
    """The paper's f, for the oracle."""
    c, r = model.claim, model.market.r.constant_value()
    return c.a * c.theta - c.a * c.eta + (d - gamma) * r


# A second name of frontier.dual_value, the one bench/tracer.py hooks.
dual_value_full = dual_value


def compute_solution(model: ModelParams, compat: bool = False) -> Solution:
    """The full-information solution record for the model's target mean:
    :func:`~mvreins.frontier.assemble_solution` at the vertex d0, or at the
    compat constant."""
    report = validate(model)
    if not report.ok:
        raise ValueError(f"invalid model: {report}")
    if model.info_mode != INFO_FULL:
        raise ValueError("compute_solution requires a full-information model")
    vertex = _compat_vertex(model) if compat else None
    return assemble_solution(model, INFO_FULL, vertex)


def switching_x(t, sol: Solution, model: ModelParams):
    """Shifted wealth on the switching curve,
    x_c(t) = -w expm1(r(T - t)) e^{-r(T - t)} / r, with w = a(theta - eta)
    + r (d - gamma*) the zero strategy's wealth drift at the target level;
    broadcasts over t."""
    c, r = model.claim, model.market.r.constant_value()
    tau = model.objective.T - np.asarray(t, dtype=float)
    w = c.a * c.theta - c.a * c.eta + sol.target_level * r
    return -(w * np.expm1(r * tau) / r) * np.exp(-r * tau)


def p_pair(t, sol: Solution, model: ModelParams):
    """(P+(t), P-(t)) = exp((T - t)(2r - k+/-/T)); broadcasts over t."""
    T, r = model.objective.T, model.market.r.constant_value()
    tau = T - np.asarray(t, dtype=float)
    return (np.exp(tau * (2.0 * r - sol.kappa_plus / T)),
            np.exp(tau * (2.0 * r - sol.kappa_minus / T)))


def region(t: float, x, sol: Solution, model: ModelParams):
    """Side of the switching curve for shifted wealth x, within 1e-12 of
    max(1, |x|, |x_c|).  Broadcasts over x: a scalar gives the
    :class:`Region` member, an array an object array of members."""
    xc = switching_x(t, sol, model)
    s = x - xc
    tol = 1e-12 * np.maximum(np.maximum(1.0, np.abs(x)), np.abs(xc))
    return _REGIONS[(s > tol).astype(int) - (s < -tol) + 1]


def value_function(t: float, x, sol: Solution, model: ModelParams):
    """V(t, x) = 1/2 P+/-(t) (x - x_c(t))^2 at shifted wealth x, with P+ on
    and above the curve.  Broadcasts over x; a scalar x gives a float."""
    gap = x - switching_x(t, sol, model)
    p_plus, p_minus = p_pair(t, sol, model)
    return _float_if_scalar(0.5 * np.where(gap >= 0.0, p_plus, p_minus) * gap * gap)


def full_feedback_strategy(sol: Solution, model: ModelParams):
    """Vectorized (t, wealth, m) -> (q, pi) arrays on actual wealth, for
    simulation: :func:`~mvreins.conelq.gap_feedback` at the target level
    d - gamma*; m is the known drift m0."""
    return gap_feedback(model, sol.target_level)


def solve_pqr(model: ModelParams, d: float, gamma: float,
              steps: int = 2000) -> tuple[SampledCurve, ...]:
    """Oracle: (P1, Q1, R1, P2, Q2, R2) by backward RK4 from (1, 0, 0) at T.

        P' = -2rP,            Q' = -rQ - fP,          R' = -fQ
        P' = -(2r+2A1)P,      Q' = -(r+2A1)Q - fP,    R' = -A1 Q^2/P - fQ

    The first system is the second with A1 = 0.  (P, Q) is linear and R
    feeds back into nothing, so each system takes ``steps`` steps of
    :func:`~mvreins.odekernel.integrate_linear_backward` with R as its
    quadrature: RK4 of the equations as stated, with no per-stage Python.
    The six curves share one ascending grid from 0 to T.

    r, A1 and f come from the model, ``d`` and ``gamma``, never from a
    solution record, so the validation suite can check the gap form against
    these curves: each branch is the perfect square
    1/2 P_i x^2 + Q_i x + R_i = 1/2 P+/-(x - x_c)^2 that vanishes on the
    switching curve.  Production code evaluates the gap form.
    """
    r, a1, f = model.market.r.constant_value(), _a1(model), _f(model, d, gamma)
    curves = []
    for a in (0.0, a1):
        C = np.array([[-(2.0 * r + 2.0 * a), 0.0], [-f, -(r + 2.0 * a)]])

        def rate(t):
            return np.broadcast_to(C, t.shape + C.shape)

        def r_rate(t, y):
            P, Q = y[..., 0], y[..., 1]
            return -a * Q * Q / P - f * Q

        curve = integrate_linear_backward(rate, (1.0, 0.0, 0.0), model.objective.T,
                                          steps, quadrature=r_rate)
        curves += [curve.component(k) for k in range(3)]
    return tuple(curves)


def hjb_residual(t: float, x: float, sol: Solution,
                 model: ModelParams) -> float:
    """Finite-difference residual of the dynamic-programming PDE at (t, x).

    Central differences with step ``_FD_STEP``; the x-step is scaled by
    max(1, |x|) so the stencil tracks the quadratic's scale (keeping the
    second difference exact up to roundoff), the t-step by min(1, T) so it
    stays inside a short horizon.  The cone infimum is evaluated by the
    closed-form per-coordinate minimizer.  Points within 10 x-steps of the
    switching curve (or with the time stencil leaving [0, T]) are rejected.

    Returns the residual V_t + V_x (r X + a(theta - eta)) + inf_q + inf_pi,
    X = x + d - gamma* the actual wealth, and the sum of its four terms'
    magnitudes, the scale that its rounding and finite-difference error
    grow with.
    """
    T = model.objective.T
    hx = _FD_STEP * max(1.0, abs(x))
    ht = _FD_STEP * min(1.0, T)
    s = x - switching_x(t, sol, model)
    if abs(s) <= 10.0 * hx:
        raise NearCurveError(
            f"point at distance {abs(s):.3e} from the switching curve; "
            f"need > {10.0 * hx:.3e}"
        )
    if t - ht < 0.0 or t + ht > T:
        raise NearCurveError("time stencil leaves [0, T]")

    v_left, v_mid, v_right = value_function(t, x + hx * np.array([-1.0, 0.0, 1.0]),
                                            sol, model)
    vt = (value_function(t + ht, x, sol, model)
          - value_function(t - ht, x, sol, model)) / (2.0 * ht)
    vx = (v_right - v_left) / (2.0 * hx)
    vxx = (v_right - 2.0 * v_mid + v_left) / (hx * hx)
    if vxx <= 0:
        raise RuntimeError("finite-difference curvature nonpositive")

    c, mk = model.claim, model.market
    mu, r, sigma = model.drift.m0, mk.r.constant_value(), mk.sigma.constant_value()
    # inf over q, pi >= 0 of vx (a eta q + (mu - r) pi) + 1/2 vxx (b^2 q^2 + sigma^2 pi^2)
    _, val_q = cone_quadratic_argmin(0.5 * vxx * c.b ** 2, 0.5 * vx * c.a * c.eta)
    _, val_pi = cone_quadratic_argmin(0.5 * vxx * sigma ** 2, 0.5 * vx * (mu - r))
    drift = r * (x + sol.target_level) + c.a * (c.theta - c.eta)
    terms = (vt, vx * drift, val_q, val_pi)
    return float(sum(terms)), float(sum(abs(term) for term in terms))


@dataclass(frozen=True)
class ViscosityReport:
    """The largest curvature jump P-(t) - P+(t) along the switching curve (the
    paper's P2 - P1) and the threshold failure, if it is above
    1e-12 max(1, P+(0))."""

    max_p2_minus_p1: float
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def viscosity_check(sol: Solution, model: ModelParams,
                    curve_samples: int = 100) -> ViscosityReport:
    """Verify the generalized-solution condition along the switching curve.

    The gap form vanishes on the curve with its x-derivative from either
    side, by construction, and with the first-order terms zero there the
    cone infimum of 1/2 P [b^2 q^2 + sigma^2 pi^2] over q, pi >= 0 is 0 for
    every P > 0, so the sub- and super-solution inequalities hold on the
    curve.  What is left is the sign of the curvature jump, P-(t) <= P+(t),
    measured at ``curve_samples`` midpoint times.
    """
    if curve_samples < 1:
        raise ValueError("curve_samples must be >= 1")
    T = model.objective.T
    p_plus, p_minus = p_pair(T * (np.arange(curve_samples) + 0.5) / curve_samples,
                             sol, model)
    max_p_jump = float(np.max(p_minus - p_plus))
    failures = []
    if max_p_jump > 1e-12 * max(1.0, float(p_pair(0.0, sol, model)[0])):
        failures.append(f"P- - P+ = {max_p_jump:.3e} > 0")
    return ViscosityReport(max_p2_minus_p1=max_p_jump, failures=tuple(failures))
