"""Full information as the known-drift case: the value function, the
frontier vertex, and numerical HJB/viscosity verification.

Full information is any known drift m(t) = m0 e^{int_0^t h} (l = z = 0,
n0 = 0), with r, sigma and h piecewise constant and m - r of either sign.
The solution is the :class:`~mvreins.frontier.Solution` record that partial
information builds too.  In shifted wealth x = X - (d - gamma*) the value
function is the cone-constrained LQ value of Hu and Zhou (2005),

    V(t, x) = 1/2 P+/-(t) (x - x_c(t))^2,
    P+/-(t) = exp(2 int_t^T r - int_t^T kappa+/-)  (:func:`~mvreins.conelq.p_pair`),

with P+ on and above the switching curve x_c(t) = S(t) - (d - gamma*) and
P- below it, S the riskless level :func:`~mvreins.model.riskless_level`: x -
x_c is the gap X - S(t) of :func:`~mvreins.conelq.gap_feedback`, the law of
both modes.  V is C^1 but not C^2 across the curve, where its curvature
jumps from P+ to P-, hence the viscosity check.

In the paper's setting, constant r and sigma, h = 0 and m0 > r
(:func:`in_paper_setting`), k+ = 0 and k- = -2 A1 T, and the paper writes V
as two squared-affine branches, 1/2 [e^{r(T-t)} x + g1(t)]^2 above and
1/2 [e^{(A1+r)(T-t)} x + e^{A1(T-t)} g1(t)]^2 below, with
g1(t) = f expm1(r(T-t))/r, f = a(theta - eta) + (d - gamma) r and
A1 = -(m0 - r)^2/(2 sigma^2) - a^2 eta^2/(2 b^2).  Those forms are kept only
where they act as an independent route: :func:`solve_pqr` integrates the
branches' coefficient ODEs from A1 and f of the model by RK4, as the
validation suite's oracle.

Frontier constant: expanding e^{rT} x + g1(0) gives the riskless terminal
wealth x0 e^{rT} + a(theta-eta)(e^{rT}-1)/r as the frontier vertex.  The
``compat`` flag of :func:`compute_solution`, its only reader, stores the
constant x0 e^{rT} + a(theta-eta)/r, defined for a constant r, as the
solution's vertex instead, which reproduces historically published dual
values but is refuted by Monte Carlo (see the acceptance suite).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .conelq import cone_quadratic_argmin, gap_feedback, p_pair
from .curves import SampledCurve, segments
from .filtering import projected_mean_curve
from .frontier import Solution, _float_if_scalar, assemble_solution, dual_value
from .model import INFO_FULL, ModelParams, riskless_integrals, validate
from .odekernel import integrate_linear_backward

# Relative x-step of the finite-difference HJB check; its t-step is
# _FD_STEP min(1, T).
_FD_STEP = 1e-4
_EPS = float(np.finfo(float).eps)


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
    c, r = model.claim, model.market.r.constant_value()
    ert = float(np.exp(r * model.objective.T))
    return model.objective.x0 * ert + c.a * (c.theta - c.eta) / r


def _a1(model: ModelParams) -> float:
    """The paper's A1, for the oracle and the ``a1-definition`` check."""
    c, mk, mu = model.claim, model.market, model.drift.m0
    r, sigma = mk.r.constant_value(), mk.sigma.constant_value()
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


def in_paper_setting(model: ModelParams) -> bool:
    """A known drift, constant r and sigma, h = 0 and m0 > r: the paper's."""
    mk, dr = model.market, model.drift
    return (dr.is_degenerate() and mk.r.is_constant and mk.sigma.is_constant
            and not dr.h.values.any() and dr.m0 > mk.r.values[0])


def switching_x(t, sol: Solution, model: ModelParams):
    """x_c(t) = S(t) - (d - gamma*), formed as (d - gamma*) expm1(-int_t^T r)
    - a(theta - eta) I(t) from :func:`~mvreins.model.riskless_integrals`, so
    that it does not cancel where |x_c| << |d - gamma*|; broadcasts over t."""
    c = model.claim
    exponent, tail = riskless_integrals(model, t)
    return sol.target_level * np.expm1(-exponent) - c.a * (c.theta - c.eta) * tail


def region(t, x, sol: Solution, model: ModelParams):
    """Side of the switching curve for shifted wealth x, within 1e-12 of
    max(1, |x|, |x_c|).  Broadcasts over t and x: scalars give the
    :class:`Region` member, arrays an object array of members."""
    xc = switching_x(t, sol, model)
    s = x - xc
    tol = 1e-12 * np.maximum(np.maximum(1.0, np.abs(x)), np.abs(xc))
    return _REGIONS[(s > tol).astype(int) - (s < -tol) + 1]


def value_function(t, x, sol: Solution, model: ModelParams):
    """V(t, x) = 1/2 P+/-(t) (x - x_c(t))^2 at shifted wealth x, with P+ on
    and above the curve.  Broadcasts over t and x, with one
    :func:`~mvreins.conelq.p_pair` call for all of t; scalars give a float."""
    gap = x - switching_x(t, sol, model)
    p_plus, p_minus = p_pair(model, t)
    return _float_if_scalar(0.5 * np.where(gap >= 0.0, p_plus, p_minus) * gap * gap)


def full_feedback_strategy(sol: Solution, model: ModelParams):
    """Vectorized (t, wealth, m) -> (q, pi) arrays on actual wealth, for
    simulation: :func:`~mvreins.conelq.gap_feedback` at the target level
    d - gamma*; m is the known drift m0 e^{int_0^t h}."""
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


def stencil_fits(t, model: ModelParams):
    """Whether the HJB time stencil t +- 2 _FD_STEP min(1, T) lies in one piece
    of [0, T] where r, sigma and h, at whose breakpoints V_t jumps, are fixed."""
    mk, T = model.market, model.objective.T
    edges, _ = segments(0.0, T, mk.r, mk.sigma, model.drift.h)
    gaps = np.abs(np.asarray(t, dtype=float)[..., None] - edges)
    return np.all(gaps >= 2.0 * _FD_STEP * min(1.0, T), axis=-1)


def hjb_residual(t, x, sol: Solution, model: ModelParams):
    """Finite-difference residual of the dynamic-programming PDE at (t, x).

    Central differences with step ``_FD_STEP``; the x-step is scaled by
    max(1, |x|) so the stencil tracks the quadratic's scale (keeping the
    second difference exact up to roundoff), the t-step ht by min(1, T) so
    it stays inside a short horizon.  V_t is the fourth-order difference on
    t +- ht, t +- 2 ht: at k- of a few hundred a second-order one errs by
    more than 1e-6 of V_t.  The cone infimum is evaluated by the closed-form
    per-coordinate minimizer.  Points within 10 x-steps of the switching
    curve, and time stencils that leave their piece of [0, T]
    (:func:`stencil_fits`), are rejected.  Broadcasts over t and x.

    Returns the residual V_t + V_x (r X + a(theta - eta)) + inf_q + inf_pi,
    X = x + d - gamma*; the sum of its terms' magnitudes, the scale of its
    finite-difference error; and V_t's rounding floor, 8 eps times its
    stencil terms' magnitudes, which the residual reaches where every term
    is small against V (r near 0 and theta = eta above the curve).
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    hx = _FD_STEP * np.maximum(1.0, np.abs(x))
    ht = _FD_STEP * min(1.0, model.objective.T)
    s = np.abs(x - switching_x(t, sol, model))
    if np.any(s <= 10.0 * hx):
        raise NearCurveError(f"point at distance {s.min():.3e} from the switching "
                             f"curve; need > {10.0 * hx.flat[s.argmin()]:.3e}")
    if not np.all(stencil_fits(t, model)):
        raise NearCurveError("time stencil leaves its piece of [0, T]")

    v_left, v_mid, v_right, v_2late, v_late, v_early, v_2early = value_function(
        np.stack([t, t, t, t + 2.0 * ht, t + ht, t - ht, t - 2.0 * ht]),
        np.stack([x - hx, x, x + hx, x, x, x, x]), sol, model)
    vt_terms = (-v_2late, 8.0 * v_late, -8.0 * v_early, v_2early)
    vt = sum(vt_terms) / (12.0 * ht)
    vx = (v_right - v_left) / (2.0 * hx)
    vxx = (v_right - 2.0 * v_mid + v_left) / (hx * hx)
    if np.any(vxx <= 0):
        raise RuntimeError("finite-difference curvature nonpositive")

    c, mk = model.claim, model.market
    r, sigma = mk.r(t), mk.sigma(t)
    mu = projected_mean_curve(model.drift)(t)
    # inf over q, pi >= 0 of vx (a eta q + (mu - r) pi) + 1/2 vxx (b^2 q^2 + sigma^2 pi^2)
    _, val_q = cone_quadratic_argmin(0.5 * vxx * c.b ** 2, 0.5 * vx * c.a * c.eta)
    _, val_pi = cone_quadratic_argmin(0.5 * vxx * sigma ** 2, 0.5 * vx * (mu - r))
    drift = r * (x + sol.target_level) + c.a * (c.theta - c.eta)
    terms = (vt, vx * drift, val_q, val_pi)
    return (_float_if_scalar(sum(terms)),
            _float_if_scalar(sum(np.abs(term) for term in terms)),
            _float_if_scalar(8.0 * _EPS * sum(np.abs(term) for term in vt_terms)
                             / (12.0 * ht)))


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


def viscosity_check(model: ModelParams, curve_samples: int = 100) -> ViscosityReport:
    """Verify the generalized-solution condition along the switching curve.

    The gap form vanishes on the curve with its x-derivative from either
    side, by construction, and with the first-order terms zero there the
    cone infimum of 1/2 P [b^2 q^2 + sigma^2 pi^2] over q, pi >= 0 is 0 for
    every P > 0, so the sub- and super-solution inequalities hold on the
    curve.  What is left is the sign of the curvature jump, P-(t) <= P+(t),
    measured at ``curve_samples`` midpoint times: it holds in the paper's
    setting, where k+ = 0, but off it (m below r) k+ can exceed k-.
    """
    if curve_samples < 1:
        raise ValueError("curve_samples must be >= 1")
    T, n = model.objective.T, curve_samples
    p_plus, p_minus = p_pair(model, np.append(0.0, T * (np.arange(n) + 0.5) / n))
    max_p_jump = float(np.max(p_minus[1:] - p_plus[1:]))
    failures = []
    if max_p_jump > 1e-12 * max(1.0, float(p_plus[0])):
        failures.append(f"P- - P+ = {max_p_jump:.3e} > 0")
    return ViscosityReport(max_p2_minus_p1=max_p_jump, failures=tuple(failures))
