"""Efficient strategies and frontier under the observation filtration.

The mean constraint is removed by a scalar multiplier gamma; for each gamma the
unconstrained problem is solved in feedback form through the cone minimizers
applied to the positive/negative part of the discounted wealth gap

    u(t) = xi_plus(t) (X - gamma e^{-int_t^T r})^+  +  xi_minus(t) (...)^-,

and the optimal gamma* and the frontier follow in closed form from P-(0).

Supported reductions (lambda = 0): exact when the drift is degenerate, so the
filtered mean is deterministic; otherwise a projected-drift approximation that
replaces the filter mean by its expectation curve.  The approximation is always
labeled; Monte Carlo quantifies its gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conelq import ControlPair, RiccatiSolution, riccati_pair, xi_minimizer, _coeffs_at
from .errors import MvreinsError
from .filtering import FilterState
from .frontier import FrontierCurve, InfeasibleTargetError, quadratic_frontier
from .model import INFO_PARTIAL, ModelParams, validate

MODE_EXACT = "exact"
MODE_PROJECTED = "projected_drift"


class ModelDegenerateError(MvreinsError):
    """Frontier denominator 1 - P-(0) e^{-2 int r} is not positive."""


@dataclass(frozen=True, eq=False)
class PartialSolution:
    riccati: RiccatiSolution
    gamma_star: float
    d0: float
    approximation_mode: str


def solve_partial(model: ModelParams) -> PartialSolution:
    """Build the partial-information solution for the model's target mean."""
    report = validate(model)
    if not report.ok:
        raise ValueError(f"invalid model: {report}")
    if model.info_mode != INFO_PARTIAL:
        raise ValueError("solve_partial requires a partial-information model")
    mode = MODE_EXACT if model.drift.is_degenerate() else MODE_PROJECTED
    riccati = riccati_pair(model)
    gamma = gamma_star_partial(riccati, model)
    d0 = model.objective.x0 * model.growth_to_horizon()
    return PartialSolution(riccati=riccati, gamma_star=gamma, d0=d0,
                           approximation_mode=mode)


def _denominator(riccati: RiccatiSolution, model: ModelParams) -> float:
    disc = model.discount_to_horizon(0.0)
    denom = 1.0 - riccati.p_minus(0.0) * disc * disc
    if denom <= 0:
        raise ModelDegenerateError(
            f"frontier denominator {denom:.3e} <= 0; model degenerate"
        )
    return denom


def gamma_star_partial(riccati: RiccatiSolution, model: ModelParams) -> float:
    """Optimal multiplier: gamma* = [d - x0 P-(0) e^{-int r}] / [1 - P-(0) e^{-2 int r}].

    At d = d0 this collapses to x0 e^{int r} (the riskless terminal wealth);
    targets below d0 are infeasible.
    """
    d = model.objective.d
    x0 = model.objective.x0
    disc = model.discount_to_horizon(0.0)
    d0 = x0 / disc
    if d < d0 - 1e-9 * max(1.0, abs(d0)):
        raise InfeasibleTargetError(f"target mean {d} below riskless wealth {d0}")
    denom = _denominator(riccati, model)
    return (d - x0 * riccati.p_minus(0.0) * disc) / denom


def frontier_coefficient(riccati: RiccatiSolution, model: ModelParams) -> float:
    """Quadratic coefficient P-(0) e^{-2 int r} / (1 - P-(0) e^{-2 int r}) > 0."""
    disc = model.discount_to_horizon(0.0)
    scaled = riccati.p_minus(0.0) * disc * disc
    return scaled / _denominator(riccati, model)


def frontier_partial(riccati: RiccatiSolution, model: ModelParams,
                     d_grid) -> FrontierCurve:
    """Efficient frontier Var = coef * (E X(T) - x0 e^{int r})^2 for d >= d0."""
    d0 = model.objective.x0 * model.growth_to_horizon()
    return quadratic_frontier(d0, frontier_coefficient(riccati, model), d_grid)


def feedback_partial(t: float, x: float, filter_state: FilterState,
                     sol: PartialSolution, model: ModelParams) -> ControlPair:
    """Feedback control at wealth x given the current filter state.

    The positive-part branch applies on the boundary, where both branches give
    (0, 0) anyway.  Output satisfies the cone constraint by construction.
    """
    disc = model.discount_to_horizon(t)
    gap = x - sol.gamma_star * disc
    coeffs = _coeffs_at(model, lambda _t: filter_state.m, t)
    if gap >= 0:
        xi = xi_minimizer("plus", sol.riccati.p_plus(t), coeffs)
        scale = gap
    else:
        xi = xi_minimizer("minus", sol.riccati.p_minus(t), coeffs)
        scale = -gap
    return ControlPair(q=xi.q * scale, pi=xi.pi * scale)


def dual_value_partial(riccati: RiccatiSolution, model: ModelParams,
                       gamma: float) -> float:
    """Optimal cost of the gamma-parameterized unconstrained problem.

    Piecewise quadratic in gamma: the P+ branch applies while the initial
    wealth sits above the discounted gamma level, the P- branch below.
    Maximizing this over gamma recovers gamma* (tested against an independent
    scalar-maximization oracle).
    """
    d = model.objective.d
    x0 = model.objective.x0
    disc = model.discount_to_horizon(0.0)
    p0 = riccati.p_plus(0.0) if x0 > gamma * disc else riccati.p_minus(0.0)
    return ((p0 * disc * disc - 1.0) * gamma * gamma
            - 2.0 * (x0 * p0 * disc - d) * gamma
            + p0 * x0 * x0 - d * d)


def partial_feedback_strategy(sol: PartialSolution, model: ModelParams):
    """Vectorized (t, wealth, filtered mean) -> (q, pi) arrays, for simulation.

    Same formulas as :func:`feedback_partial`, evaluated on whole path blocks;
    xi components are clipped at zero per coordinate (cone constraint).
    """
    c, mk = model.claim, model.market
    coef_q_minus = c.a * c.eta / c.b ** 2  # xi- retention component, constant

    def strategy(t, x, m):
        disc = model.discount_to_horizon(t)
        gap = x - sol.gamma_star * disc
        pos, neg = np.maximum(gap, 0.0), np.maximum(-gap, 0.0)
        excess = (m - mk.r(t)) / mk.sigma(t) ** 2
        q = coef_q_minus * neg  # xi+ retention component is always zero
        pi = np.maximum(excess, 0.0) * neg + np.maximum(-excess, 0.0) * pos
        return q, pi

    return strategy
