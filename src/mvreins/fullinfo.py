"""Closed-form solution of the fully observed problem: value function, feedback,
frontier vertex, and numerical HJB/viscosity verification.

Production code evaluates closed forms only; :func:`solve_pqr` integrates the
coefficient ODEs by RK4 as the validation suite's oracle for them, (P, Q) on
the linear march of :mod:`~mvreins.odekernel` and R as its quadrature.

With a constant known expected return the shifted wealth x = X - (d - gamma)
has a value function built from two squared-affine branches glued along the
switching curve x = -g1(t) e^{-r(T-t)}:

    V(t, x) = 1/2 [e^{r(T-t)} x + g1(t)]^2                      above the curve,
    V(t, x) = 1/2 [e^{(A1+r)(T-t)} x + e^{A1(T-t)} g1(t)]^2     below it,

with g1(t) = f expm1(r(T-t))/r, f = a(theta - eta) + (d - gamma) r, and
A1 = -(mu - r)^2/(2 sigma^2) - a^2 eta^2/(2 b^2).  V is C^1 but not C^2
across the curve, hence the viscosity checks.  In actual wealth the curve is
X = S(t), the wealth from which the zero strategy ends at d - gamma
(:func:`~mvreins.model.riskless_level`), so the shifted wealth less the curve
is the gap X - S(t) of partial information.  Above the curve the optimal
control is (0, 0); below it both components are proportional to the gap:
the law :func:`~mvreins.conelq.gap_feedback` of both modes.

Frontier constant: expanding e^{rT} x + g1(0) gives the riskless terminal
wealth x0 e^{rT} + a(theta-eta)(e^{rT}-1)/r as the frontier vertex.  The
``compat`` flag of :func:`compute_solution`, its only reader, stores the
constant x0 e^{rT} + a(theta-eta)/r as the solution's vertex instead, which
reproduces historically published dual values but is refuted by Monte Carlo
(see the acceptance suite); the expanded form is the default.  With the
exponents k+ = 0 and k- = -2 A1 T, gamma*, the dual value and the frontier
come from :mod:`~mvreins.frontier`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .conelq import cone_quadratic_argmin, gap_feedback
from .curves import SampledCurve
from .frontier import MeanVarianceLayer, _float_if_scalar, dual_value, gamma_star
from .model import INFO_FULL, ModelParams, riskless_terminal_wealth, validate
from .odekernel import integrate_linear_backward

# Relative x-step of the finite-difference checks; hjb_residual's t-step is
# _FD_STEP min(1, T).
_FD_STEP = 1e-4
# On-curve tolerances relative to the branch scale at t: the branch gap
# against max(1, g1^2), the x-gradient against max(1, e^{r(T-t)} |g1|).
_GAP_TOL = 1e-24
_GRAD_TOL = 3e-14


class NearCurveError(ValueError):
    """Finite-difference stencil too close to the switching curve."""


class Region(enum.Enum):
    ABOVE_CURVE = "above_curve"
    BELOW_CURVE = "below_curve"
    ON_CURVE = "on_curve"


# indexed by sign(x - x_c) + 1 in FullInfoSolution.region
_REGIONS = np.array([Region.BELOW_CURVE, Region.ON_CURVE, Region.ABOVE_CURVE],
                    dtype=object)


@dataclass(frozen=True, eq=False)
class FullInfoSolution(MeanVarianceLayer):
    """Closed-form scalars of the full-information solution; no ODE curves.

    Every full-information closed form reads these fields alone.
    :func:`solve_pqr` integrates the coefficient ODEs as the oracle that
    checks P1..R2.
    """

    approximation_mode = "full"  # class constants, not fields
    kappa_plus = 0.0  # validate requires m0 > r, so kappa+ vanishes

    a1: float
    gamma_star: float
    d: float
    f: float
    r: float
    T: float
    vertex: float   # frontier vertex: d0, or the compat constant
    d0: float       # riskless terminal wealth; sets the dual's branch

    # -- closed forms ------------------------------------------------------
    def g1(self, t):
        return self.f * np.expm1(self.r * (self.T - t)) / self.r

    def p1(self, t):
        return np.exp(2.0 * self.r * (self.T - t))

    def q1(self, t):
        return self.g1(t) * np.exp(self.r * (self.T - t))

    def r1(self, t):
        return 0.5 * self.g1(t) ** 2

    def p2(self, t):
        return np.exp((2.0 * self.a1 + 2.0 * self.r) * (self.T - t))

    def q2(self, t):
        return self.g1(t) * np.exp((2.0 * self.a1 + self.r) * (self.T - t))

    def r2(self, t):
        return 0.5 * np.exp(2.0 * self.a1 * (self.T - t)) * self.g1(t) ** 2

    def switching_x(self, t):
        """Shifted wealth on the switching curve: x_c(t) = -g1(t) e^{-r(T-t)}."""
        return -self.g1(t) * np.exp(-self.r * (self.T - t))

    def region(self, t: float, x):
        """Side of the switching curve for shifted wealth x, within 1e-12 of
        max(1, |x|, |x_c|).  Broadcasts over x: a scalar gives the
        :class:`Region` member, an array an object array of members."""
        xc = self.switching_x(t)
        s = x - xc
        tol = 1e-12 * np.maximum(np.maximum(1.0, np.abs(x)), np.abs(xc))
        return _REGIONS[(s > tol).astype(int) - (s < -tol) + 1]

    @property
    def kappa_minus(self) -> float:
        """Frontier exponent -2 A1 T."""
        return -2.0 * self.a1 * self.T


def _compat_vertex(model: ModelParams) -> float:
    """The published frontier constant x0 e^{rT} + a(theta - eta)/r."""
    c, mk = model.claim, model.market
    r = mk.r.constant_value()
    ert = float(np.exp(r * model.objective.T))
    return model.objective.x0 * ert + c.a * (c.theta - c.eta) / r


def _a1(model: ModelParams) -> float:
    c, mk = model.claim, model.market
    mu = model.drift.m0
    r = mk.r.constant_value()
    sigma = mk.sigma.constant_value()
    return -(mu - r) ** 2 / (2.0 * sigma ** 2) - c.a ** 2 * c.eta ** 2 / (2.0 * c.b ** 2)


def _f(model: ModelParams, d: float, gamma: float) -> float:
    c, r = model.claim, model.market.r.constant_value()
    return c.a * c.theta - c.a * c.eta + (d - gamma) * r


# A second name of frontier.dual_value, the one bench/tracer.py hooks.
dual_value_full = dual_value


def compute_solution(model: ModelParams, compat: bool = False) -> FullInfoSolution:
    """Assemble the closed-form solution for the model's target mean d.

    The vertex is the riskless terminal wealth d0, or the compat constant;
    gamma* is :func:`~mvreins.frontier.gamma_star` with k- = -2 A1 T.
    """
    report = validate(model)
    if not report.ok:
        raise ValueError(f"invalid model: {report}")
    if model.info_mode != INFO_FULL:
        raise ValueError("compute_solution requires a full-information model")

    a1, T = _a1(model), model.objective.T
    d0 = riskless_terminal_wealth(model)
    vertex = _compat_vertex(model) if compat else d0
    d = model.objective.d
    gamma = gamma_star(vertex, d, -2.0 * a1 * T)
    return FullInfoSolution(
        a1=a1, gamma_star=float(gamma), d=float(d), f=_f(model, d, gamma),
        r=model.market.r.constant_value(), T=T, vertex=vertex, d0=d0)


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
    :class:`FullInfoSolution`, so the validation suite can check the closed
    forms ``p1`` .. ``r2`` against these curves; production code evaluates
    the closed forms.
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


def _branch_above(sol: FullInfoSolution, t, x):
    return 0.5 * (np.exp(sol.r * (sol.T - t)) * x + sol.g1(t)) ** 2


def _branch_below(sol: FullInfoSolution, t, x):
    tau = sol.T - t
    return 0.5 * (np.exp((sol.a1 + sol.r) * tau) * x
                  + np.exp(sol.a1 * tau) * sol.g1(t)) ** 2


def value_function(t: float, x, sol: FullInfoSolution):
    """Piecewise value at shifted wealth x; both branches vanish on the curve.

    Broadcasts over x; a scalar x gives a float."""
    return _float_if_scalar(np.where(x - sol.switching_x(t) >= 0.0,
                                     _branch_above(sol, t, x),
                                     _branch_below(sol, t, x)))


def full_feedback_strategy(sol: FullInfoSolution, model: ModelParams):
    """Vectorized (t, wealth, m) -> (q, pi) arrays on actual wealth, for
    simulation: :func:`~mvreins.conelq.gap_feedback` at the target level
    d - gamma*; m is the known drift m0."""
    return gap_feedback(model, sol.target_level)


def hjb_residual(t: float, x: float, sol: FullInfoSolution,
                 model: ModelParams) -> float:
    """Finite-difference residual of the dynamic-programming PDE at (t, x).

    Central differences with step ``_FD_STEP``; the x-step is scaled by
    max(1, |x|) so the stencil tracks the quadratic's scale (keeping the
    second difference exact up to roundoff), the t-step by min(1, T) so it
    stays inside a short horizon.  The cone infimum is evaluated by the
    closed-form per-coordinate minimizer.  Points within 10 x-steps of the
    switching curve (or with the time stencil leaving [0, T]) are rejected.

    Returns the residual V_t + V_x (r x + f) + inf_q + inf_pi and the sum of
    its four terms' magnitudes, the scale that its rounding and
    finite-difference error grow with.
    """
    hx = _FD_STEP * max(1.0, abs(x))
    ht = _FD_STEP * min(1.0, sol.T)
    s = x - sol.switching_x(t)
    if abs(s) <= 10.0 * hx:
        raise NearCurveError(
            f"point at distance {abs(s):.3e} from the switching curve; "
            f"need > {10.0 * hx:.3e}"
        )
    if t - ht < 0.0 or t + ht > sol.T:
        raise NearCurveError("time stencil leaves [0, T]")

    def V(tt, xx):
        return value_function(tt, xx, sol)

    vt = (V(t + ht, x) - V(t - ht, x)) / (2.0 * ht)
    vx = (V(t, x + hx) - V(t, x - hx)) / (2.0 * hx)
    vxx = (V(t, x + hx) - 2.0 * V(t, x) + V(t, x - hx)) / (hx * hx)
    if vxx <= 0:
        raise RuntimeError("finite-difference curvature nonpositive")

    c, mk = model.claim, model.market
    mu, r, sigma = model.drift.m0, mk.r.constant_value(), mk.sigma.constant_value()
    # inf over q, pi >= 0 of vx (a eta q + (mu - r) pi) + 1/2 vxx (b^2 q^2 + sigma^2 pi^2)
    _, val_q = cone_quadratic_argmin(0.5 * vxx * c.b ** 2, 0.5 * vx * c.a * c.eta)
    _, val_pi = cone_quadratic_argmin(0.5 * vxx * sigma ** 2, 0.5 * vx * (mu - r))
    terms = (vt, vx * (r * x + sol.f), val_q, val_pi)
    return float(sum(terms)), float(sum(abs(term) for term in terms))


@dataclass(frozen=True)
class ViscosityReport:
    """Raw maxima from the switching-curve checks plus threshold failures.

    Thresholds, at each time t: branch gap 1e-24 max(1, g1^2), x-gradient
    3e-14 max(1, e^{r(T-t)} |g1|), P2 <= P1 within 1e-12 relative.
    """

    max_branch_gap: float
    max_x_gradient: float
    max_p2_minus_p1: float
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def viscosity_check(sol: FullInfoSolution,
                    curve_samples: int = 100) -> ViscosityReport:
    """Verify the generalized-solution conditions along the switching curve.

    Reads ``sol`` only.  At ``curve_samples`` midpoint times: (i) the two
    branches agree (both vanish there); (ii) the x-derivative of each branch
    vanishes, measured by central differences with the relative step
    ``_FD_STEP`` (exact for the quadratic branches up to roundoff) -- on each
    branch the time derivative is an exact multiple of P_i x + Q_i, so this
    also certifies the time component; (iii) the curvature jump has the right
    sign, P2(t) <= P1(t).  With the first-order terms zero on the curve, the
    cone infimum of 1/2 P [b^2 q^2 + sigma^2 pi^2] over q, pi >= 0 is 0 for
    every P > 0, so the sub-solution (P1) and super-solution (P2) inequalities
    hold there by construction and are not measured.  (i) and (ii) measure
    roundoff at the branches' scale, so each is judged relative to it at t.
    """
    if curve_samples < 1:
        raise ValueError("curve_samples must be >= 1")
    ts = sol.T * (np.arange(curve_samples) + 0.5) / curve_samples

    max_gap = max_grad = gap_ratio = grad_ratio = 0.0
    max_p_jump = -np.inf
    for t in ts:
        xc, g1 = float(sol.switching_x(t)), float(sol.g1(t))
        gap = abs(_branch_above(sol, t, xc) - _branch_below(sol, t, xc))
        max_gap = max(max_gap, gap)
        gap_ratio = max(gap_ratio, gap / max(1.0, g1 * g1))

        h = _FD_STEP * max(1.0, abs(xc))
        d_above = (_branch_above(sol, t, xc + h) - _branch_above(sol, t, xc - h)) / (2 * h)
        d_below = (_branch_below(sol, t, xc + h) - _branch_below(sol, t, xc - h)) / (2 * h)
        grad = max(abs(d_above), abs(d_below))
        max_grad = max(max_grad, grad)
        grad_scale = max(1.0, float(np.exp(sol.r * (sol.T - t))) * abs(g1))
        grad_ratio = max(grad_ratio, grad / grad_scale)

        p1, p2 = float(sol.p1(t)), float(sol.p2(t))
        max_p_jump = max(max_p_jump, p2 - p1)

    failures = []
    if gap_ratio > _GAP_TOL:
        failures.append(f"branch gap / max(1, g1^2) {gap_ratio:.3e} > {_GAP_TOL:g}")
    if grad_ratio > _GRAD_TOL:
        failures.append(f"on-curve x-gradient / max(1, e^(r(T-t)) |g1|) "
                        f"{grad_ratio:.3e} > {_GRAD_TOL:g}")
    if max_p_jump > 1e-12 * max(1.0, float(sol.p1(0.0))):
        failures.append(f"P2 - P1 = {max_p_jump:.3e} > 0")
    return ViscosityReport(
        max_branch_gap=max_gap, max_x_gradient=max_grad,
        max_p2_minus_p1=float(max_p_jump), failures=tuple(failures),
    )
