"""Closed-form solution of the fully observed problem: value function, feedback,
dual multiplier, efficient frontier, and numerical HJB/viscosity verification.

Production code evaluates closed forms only; :func:`solve_pqr` integrates the
coefficient ODEs by RK4 as the validation suite's oracle for them.

With a constant known expected return the shifted wealth x = X - (d - gamma)
has a value function built from two squared-affine branches glued along the
switching curve x = -g1(t) e^{-r(T-t)}:

    V(t, x) = 1/2 [e^{r(T-t)} x + g1(t)]^2                      above the curve,
    V(t, x) = 1/2 [e^{(A1+r)(T-t)} x + e^{A1(T-t)} g1(t)]^2     below it,

with g1(t) = f [e^{r(T-t)} - 1]/r, f = a(theta - eta) + (d - gamma) r, and
A1 = -(mu - r)^2/(2 sigma^2) - a^2 eta^2/(2 b^2).  Above the curve the optimal
control is (0, 0); below it both components are proportional to the distance
from the curve.  V is C^1 but not C^2 across the curve, hence the viscosity
checks.

Frontier constant: expanding e^{rT} x + g1(0) gives the riskless terminal
wealth x0 e^{rT} + a(theta-eta)(e^{rT}-1)/r as the frontier vertex.  The
``compat_paper_formulas`` flag swaps in the constant x0 e^{rT} + a(theta-eta)/r
instead, which reproduces historically published dual values but is refuted by
Monte Carlo (see the acceptance suite); the expanded form is the default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .conelq import ControlPair, cone_quadratic_argmin
from .curves import SampledCurve
from .errors import MvreinsError
from .frontier import FrontierCurve, InfeasibleTargetError, quadratic_frontier
from .model import INFO_FULL, ModelParams, riskless_terminal_wealth, validate
from .odekernel import integrate_backward


class NearCurveError(ValueError):
    """Finite-difference stencil too close to the switching curve."""


class DegenerateDualError(MvreinsError):
    """Dual problem degenerate: exp(-2 A1 T) = 1 (riskless-equivalent market)."""


class Region(enum.Enum):
    ABOVE_CURVE = "above_curve"
    BELOW_CURVE = "below_curve"
    ON_CURVE = "on_curve"


@dataclass(frozen=True, eq=False)
class FullInfoSolution:
    """Closed-form scalars of the full-information solution; no ODE curves.

    The value function, the feedback and the coefficients P1..R2 all evaluate
    closed forms.  :func:`solve_pqr` integrates the coefficient ODEs as the
    oracle that checks them.
    """

    a1: float
    gamma_star: float
    d: float
    f: float
    r: float
    T: float
    coef_q: float   # a eta / b^2
    coef_pi: float  # (mu - r) / sigma^2
    compat_paper_formulas: bool

    # -- closed forms ------------------------------------------------------
    def g1(self, t):
        return self.f * (np.exp(self.r * (self.T - t)) - 1.0) / self.r

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

    def region(self, t: float, x: float) -> Region:
        s = x - self.switching_x(t)
        tol = 1e-12 * max(1.0, abs(x), abs(self.switching_x(t)))
        if s > tol:
            return Region.ABOVE_CURVE
        if s < -tol:
            return Region.BELOW_CURVE
        return Region.ON_CURVE

    @property
    def target_level(self) -> float:
        """Embedded wealth target d - gamma*: the strategy is active below its
        discounted value and coasts risk-free above it."""
        return self.d - self.gamma_star


def vertex_constant(model: ModelParams, compat: bool = False) -> float:
    """Frontier vertex: the riskless terminal wealth, or the compat constant."""
    if compat:
        c, mk = model.claim, model.market
        r = mk.r.constant_value()
        ert = model.growth_to_horizon()
        return model.objective.x0 * ert + c.a * (c.theta - c.eta) / r
    return riskless_terminal_wealth(model)


def _a1(model: ModelParams) -> float:
    c, mk = model.claim, model.market
    mu = model.drift.m0
    r = mk.r.constant_value()
    sigma = mk.sigma.constant_value()
    return -(mu - r) ** 2 / (2.0 * sigma ** 2) - c.a ** 2 * c.eta ** 2 / (2.0 * c.b ** 2)


def _f(model: ModelParams, d: float, gamma: float) -> float:
    c, r = model.claim, model.market.r.constant_value()
    return c.a * c.theta - c.a * c.eta + (d - gamma) * r


def _dual_denominator(model: ModelParams) -> float:
    denom = np.exp(-2.0 * _a1(model) * model.objective.T) - 1.0
    if denom <= 0 or not np.isfinite(denom):
        raise DegenerateDualError(
            "exp(-2 A1 T) - 1 must be positive; market is riskless-equivalent"
        )
    return float(denom)


def gamma_star_full(model: ModelParams, d: float | None = None,
                    compat: bool = False) -> float:
    """Maximizer of the dual value: gamma* = (k - d) / (e^{-2 A1 T} - 1).

    k is the frontier vertex (riskless terminal wealth by default, the compat
    constant under the flag).  Zero exactly at d = vertex; negative beyond.
    """
    if d is None:
        d = model.objective.d
    k = vertex_constant(model, compat)
    if d < k - 1e-9 * max(1.0, abs(k)):
        raise InfeasibleTargetError(f"target mean {d} below frontier vertex {k}")
    return (k - d) / _dual_denominator(model)


def dual_value_full(model: ModelParams, d: float, gamma: float,
                    compat: bool = False) -> float:
    """Optimal cost of the gamma-parameterized problem, to be maximized over gamma.

    Concave quadratic in gamma while the initial state sits below the switching
    curve, linear above; the branch condition follows the actual g1, so only
    the branch values depend on the compat flag.
    """
    k_active = vertex_constant(model, compat)
    k_true = vertex_constant(model, compat=False)
    a1 = _a1(model)
    T = model.objective.T
    # sign of x0 - (d - gamma) + g1(0) e^{-rT}, via the expanded constant
    below = k_true - (d - gamma) < 0
    if below:
        return (np.exp(2.0 * a1 * T) * (k_active - (d - gamma)) ** 2
                - gamma * gamma)
    return (k_active - d) ** 2 + 2.0 * (k_active - d) * gamma


def compute_solution(model: ModelParams, d: float | None = None,
                     gamma: float | None = None,
                     compat: bool = False) -> FullInfoSolution:
    """Assemble the closed-form solution.

    ``gamma`` defaults to the optimal multiplier for the target mean ``d``
    (itself defaulting to the model objective).
    """
    report = validate(model)
    if not report.ok:
        raise ValueError(f"invalid model: {report}")
    if model.info_mode != INFO_FULL:
        raise ValueError("compute_solution requires a full-information model")

    c, mk = model.claim, model.market
    r, sigma = mk.r.constant_value(), mk.sigma.constant_value()
    if d is None:
        d = model.objective.d
    if gamma is None:
        gamma = gamma_star_full(model, d, compat)
    return FullInfoSolution(
        a1=_a1(model), gamma_star=float(gamma), d=float(d), f=_f(model, d, gamma),
        r=r, T=model.objective.T, coef_q=c.a * c.eta / c.b ** 2,
        coef_pi=(model.drift.m0 - r) / sigma ** 2, compat_paper_formulas=compat)


def solve_pqr(model: ModelParams, d: float, gamma: float) -> tuple[SampledCurve, ...]:
    """Oracle: (P1, Q1, R1, P2, Q2, R2) by 2000 backward RK4 steps from (1, 0, 0) at T.

        P' = -2rP,            Q' = -rQ - fP,          R' = -fQ
        P' = -(2r+2A1)P,      Q' = -(r+2A1)Q - fP,    R' = -A1 Q^2/P - fQ

    r, A1 and f come from the model, ``d`` and ``gamma``, never from a
    :class:`FullInfoSolution`, so the validation suite can check the closed
    forms ``p1`` .. ``r2`` against these curves; production code evaluates
    the closed forms.
    """
    r, a1, f = model.market.r.constant_value(), _a1(model), _f(model, d, gamma)

    def rhs1(t, y):
        P, Q, _R = y
        return np.array([-2.0 * r * P, -r * Q - f * P, -f * Q])

    def rhs2(t, y):
        P, Q, _R = y
        return np.array([-(2.0 * r + 2.0 * a1) * P,
                         -(r + 2.0 * a1) * Q - f * P,
                         -a1 * Q * Q / P - f * Q])

    curves = []
    for rhs in (rhs1, rhs2):
        curve = integrate_backward(rhs, np.array([1.0, 0.0, 0.0]),
                                   model.objective.T, 2000)
        curves += [curve.component(k) for k in range(3)]
    return tuple(curves)


def _branch_above(sol: FullInfoSolution, t, x):
    return 0.5 * (np.exp(sol.r * (sol.T - t)) * x + sol.g1(t)) ** 2


def _branch_below(sol: FullInfoSolution, t, x):
    tau = sol.T - t
    return 0.5 * (np.exp((sol.a1 + sol.r) * tau) * x
                  + np.exp(sol.a1 * tau) * sol.g1(t)) ** 2


def value_function(t: float, x: float, sol: FullInfoSolution) -> float:
    """Piecewise value at shifted wealth x; both branches vanish on the curve."""
    if x - sol.switching_x(t) >= 0.0:
        return float(_branch_above(sol, t, x))
    return float(_branch_below(sol, t, x))


def feedback_full(t: float, x: float, sol: FullInfoSolution,
                  model: ModelParams) -> ControlPair:
    """Optimal feedback at shifted wealth x: (0, 0) on and above the switching
    curve, components proportional to the distance below it."""
    region = sol.region(t, x)
    if region is not Region.BELOW_CURVE:
        return ControlPair(0.0, 0.0)
    c, mk = model.claim, model.market
    mu, r, sigma = model.drift.m0, mk.r.constant_value(), mk.sigma.constant_value()
    s = x + sol.g1(t) * np.exp(-r * (sol.T - t))
    return ControlPair(q=-c.a * c.eta / c.b ** 2 * s,
                       pi=-(mu - r) / sigma ** 2 * s)


def frontier_full(model: ModelParams, d_grid, compat: bool = False) -> FrontierCurve:
    """Var = (k - d)^2 / (e^{-2 A1 T} - 1) for d at or above the vertex k."""
    k = vertex_constant(model, compat)
    return quadratic_frontier(k, 1.0 / _dual_denominator(model), d_grid)


def full_feedback_strategy(sol: FullInfoSolution, model: ModelParams):
    """Vectorized (t, wealth, filtered mean) -> (q, pi) arrays on actual wealth.

    Shifts by the embedded target d - gamma* internally; the filtered-mean
    argument is ignored (the drift is known in full information).
    """
    shift = sol.target_level

    def strategy(t, x, m):
        disc = np.exp(-sol.r * (sol.T - t))
        bracket = x - shift + sol.g1(t) * disc
        neg = np.maximum(-bracket, 0.0)
        return sol.coef_q * neg, sol.coef_pi * neg

    return strategy


def hjb_residual(t: float, x: float, sol: FullInfoSolution, model: ModelParams,
                 fd_step: float = 1e-4) -> float:
    """Finite-difference residual of the dynamic-programming PDE at (t, x).

    Central differences; the x-step is scaled by max(1, |x|) so the stencil
    tracks the quadratic's scale (keeping the second difference exact up to
    roundoff), the t-step is left unscaled.  The cone infimum is evaluated by
    the closed-form per-coordinate minimizer.  Points within 10 x-steps of the
    switching curve (or with the time stencil leaving [0, T]) are rejected.
    """
    hx = fd_step * max(1.0, abs(x))
    ht = fd_step
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
        raise RuntimeError("finite-difference curvature nonpositive; refine fd_step")

    c, mk = model.claim, model.market
    mu, r, sigma = model.drift.m0, mk.r.constant_value(), mk.sigma.constant_value()
    # inf over q, pi >= 0 of vx (a eta q + (mu - r) pi) + 1/2 vxx (b^2 q^2 + sigma^2 pi^2)
    _, val_q = cone_quadratic_argmin(0.5 * vxx * c.b ** 2, 0.5 * vx * c.a * c.eta)
    _, val_pi = cone_quadratic_argmin(0.5 * vxx * sigma ** 2, 0.5 * vx * (mu - r))
    return float(vt + vx * (r * x + sol.f) + val_q + val_pi)


@dataclass(frozen=True)
class ViscosityReport:
    """Raw maxima from the switching-curve checks plus threshold failures.

    Thresholds: branch gap 1e-10, x-gradient 1e-6, P2 <= P1 within 1e-12
    relative, cone infima equal to zero within 1e-12, sub/super-solution
    inequalities within 1e-12.
    """

    n_samples: int
    max_branch_gap: float
    max_x_gradient: float
    max_p2_minus_p1: float
    max_abs_cone_infimum: float
    sub_solution_ok: bool
    super_solution_ok: bool
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def viscosity_check(sol: FullInfoSolution, model: ModelParams,
                    curve_samples: int = 100,
                    fd_step: float = 1e-4) -> ViscosityReport:
    """Verify the generalized-solution conditions along the switching curve.

    At sampled curve points: (i) the two branches agree (both vanish there);
    (ii) the x-derivative of each branch vanishes, measured by central
    differences (exact for the quadratic branches up to roundoff) -- on each
    branch the time derivative is an exact multiple of P_i x + Q_i, so this
    also certifies the time component; (iii) the curvature jump has the right
    sign, P2(t) <= P1(t); (iv) with first-order terms zero on the curve, the
    cone infimum of 1/2 P [b^2 q^2 + sigma^2 pi^2] is 0 at the origin for both
    extreme test curvatures, giving the sub-solution (P1) and super-solution
    (P2) inequalities.
    """
    if curve_samples < 1:
        raise ValueError("curve_samples must be >= 1")
    c, mk = model.claim, model.market
    sigma = mk.sigma.constant_value()
    ts = sol.T * (np.arange(curve_samples) + 0.5) / curve_samples

    max_gap = 0.0
    max_grad = 0.0
    max_p_jump = -np.inf
    max_inf = 0.0
    sub_ok = True
    super_ok = True
    for t in ts:
        xc = float(sol.switching_x(t))
        gap = abs(_branch_above(sol, t, xc) - _branch_below(sol, t, xc))
        max_gap = max(max_gap, gap)

        h = fd_step * max(1.0, abs(xc))
        d_above = (_branch_above(sol, t, xc + h) - _branch_above(sol, t, xc - h)) / (2 * h)
        d_below = (_branch_below(sol, t, xc + h) - _branch_below(sol, t, xc - h)) / (2 * h)
        max_grad = max(max_grad, abs(d_above), abs(d_below))

        p1, p2 = float(sol.p1(t)), float(sol.p2(t))
        max_p_jump = max(max_p_jump, p2 - p1)

        for p_test, is_sub in ((p1, True), (p2, False)):
            _, vq = cone_quadratic_argmin(0.5 * p_test * c.b ** 2, 0.0)
            _, vpi = cone_quadratic_argmin(0.5 * p_test * sigma ** 2, 0.0)
            inf_val = vq + vpi
            max_inf = max(max_inf, abs(inf_val))
            if is_sub and inf_val < -1e-12:
                sub_ok = False
            if not is_sub and inf_val > 1e-12:
                super_ok = False

    failures = []
    if max_gap > 1e-10:
        failures.append(f"branch gap {max_gap:.3e} > 1e-10")
    if max_grad > 1e-6:
        failures.append(f"on-curve x-gradient {max_grad:.3e} > 1e-6")
    if max_p_jump > 1e-12 * max(1.0, float(sol.p1(0.0))):
        failures.append(f"P2 - P1 = {max_p_jump:.3e} > 0")
    if max_inf > 1e-12:
        failures.append(f"cone infimum {max_inf:.3e} != 0")
    if not sub_ok:
        failures.append("sub-solution inequality violated")
    if not super_ok:
        failures.append("super-solution inequality violated")
    return ViscosityReport(
        n_samples=curve_samples, max_branch_gap=max_gap, max_x_gradient=max_grad,
        max_p2_minus_p1=float(max_p_jump), max_abs_cone_infimum=max_inf,
        sub_solution_ok=sub_ok, super_solution_ok=super_ok,
        failures=tuple(failures),
    )
