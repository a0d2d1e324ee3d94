"""Efficient strategies and frontier under the observation filtration.

The mean constraint is removed by a scalar multiplier gamma; for each gamma the
unconstrained problem is solved in feedback form through the cone minimizers
applied to the positive/negative part of the discounted wealth gap

    u(t) = xi_plus(t) (X - (d - gamma) e^{-int_t^T r})^+  +  xi_minus(t) (...)^-,

and gamma*, the frontier and the dual value follow from
:mod:`~mvreins.frontier` and the fields of :class:`PartialSolution` alone:
k+/- = int_0^T kappa+/-, the exponents :func:`~mvreins.conelq.riccati_pair`
returns at t = 0, with P+/-(0) e^{-2 int r} = e^{-k+/-}, the target mean d
and the frontier vertex d0 = x0 e^{int r}.  The xi+/- are P-free (P > 0 only
scales the Hamiltonian), so the feedback reads the target level d - gamma*
alone.

Supported reductions (lambda = 0): exact when the drift is degenerate, so the
filtered mean is deterministic; otherwise a projected-drift approximation that
replaces the filter mean by its expectation curve.  The approximation is always
labeled; Monte Carlo quantifies its gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conelq import ControlPair, LQCoefficients, riccati_pair, xi_minimizer
from .frontier import MeanVarianceLayer, gamma_star
from .model import INFO_PARTIAL, ModelParams, riskless_terminal_wealth, validate

MODE_EXACT = "exact"
MODE_PROJECTED = "projected_drift"


@dataclass(frozen=True, eq=False)
class PartialSolution(MeanVarianceLayer):
    """Exponents k+/- = int_0^T kappa+/- (P+/-(0) e^{-2 int r} = e^{-k+/-}),
    gamma*, the target mean d, the riskless terminal wealth d0 (the frontier
    vertex) and the mode.
    """

    kappa_plus: float
    kappa_minus: float
    gamma_star: float
    d: float
    d0: float
    approximation_mode: str

    @property
    def vertex(self) -> float:
        """Frontier vertex: the riskless terminal wealth d0."""
        return self.d0


def solve_partial(model: ModelParams) -> PartialSolution:
    """Build the partial-information solution for the model's target mean.

    gamma* is :func:`~mvreins.frontier.gamma_star` with vertex d0, as in
    full mode.
    """
    report = validate(model)
    if not report.ok:
        raise ValueError(f"invalid model: {report}")
    if model.info_mode != INFO_PARTIAL:
        raise ValueError("solve_partial requires a partial-information model")
    mode = MODE_EXACT if model.drift.is_degenerate() else MODE_PROJECTED
    k_plus, k_minus = riccati_pair(model, 0.0)
    d, d0 = model.objective.d, riskless_terminal_wealth(model)
    return PartialSolution(kappa_plus=k_plus, kappa_minus=k_minus,
                           gamma_star=gamma_star(d0, d, k_minus), d=d, d0=d0,
                           approximation_mode=mode)


def feedback_partial(t: float, x: float, m: float, sol: PartialSolution,
                     model: ModelParams) -> ControlPair:
    """Feedback control at wealth x given the filtered mean m of the drift.

    The positive-part branch applies on the boundary, where both branches give
    (0, 0) anyway.  Reads ``sol.target_level`` only; the output is in the cone.
    """
    c, mk = model.claim, model.market
    gap = x - sol.target_level * model.discount_to_horizon(t)
    coeffs = LQCoefficients(b_q=c.a * c.eta, b_pi=m - mk.r(t),
                            d_q=c.b, d_pi=mk.sigma(t))
    xi = xi_minimizer("plus" if gap >= 0 else "minus", coeffs)
    return ControlPair(q=xi.q * abs(gap), pi=xi.pi * abs(gap))


def partial_feedback_strategy(sol: PartialSolution, model: ModelParams):
    """Vectorized (t, wealth, filtered mean) -> (q, pi) arrays, for simulation.

    Same formulas as :func:`feedback_partial`, evaluated on whole path blocks;
    xi components are clipped at zero per coordinate (cone constraint).  With
    gap = x - (d - gamma*) e^{-int_t^T r} and excess = (m - r)/sigma^2,

        pi = max(excess, 0) gap^- + max(-excess, 0) gap^+
           = max(((r - m)/sigma^2) gap, 0),

    bit for bit wherever gap and excess are finite: (r - m)/sigma^2 is
    exactly -excess, because negation and rounding commute, and at most one
    term of the two-term sum is non-zero, so the sum adds no rounding.  A
    product of -0.0 leaves numpy's maximum(-0.0, 0.0) as +0.0, the sum's zero.

    The per-time scalars (d - gamma*) e^{-int_t^T r}, r(t) and sigma(t)^2 are
    formed once per t and kept in a table keyed by t, so every block of a
    simulation reuses them.  They are pure functions of t, so worker threads
    that call the strategy at once can only compute an entry twice, and a
    strategy reused on another time grid looks up its own times.  Both
    outputs are fresh arrays on every call.
    """
    c, mk = model.claim, model.market
    coef_q_minus = c.a * c.eta / c.b ** 2  # xi- retention component, constant
    target = sol.target_level
    per_t = {}

    def strategy(t, x, m):
        scalars = per_t.get(t)
        if scalars is None:
            scalars = per_t[t] = (target * model.discount_to_horizon(t),
                                  mk.r(t), mk.sigma(t) ** 2)
        level, r_t, var_t = scalars
        gap = np.subtract(x, level)
        pi = np.subtract(r_t, m)
        pi /= var_t
        pi *= gap
        np.maximum(pi, 0.0, out=pi)
        q = np.negative(gap, out=gap)
        np.maximum(q, 0.0, out=q)
        q *= coef_q_minus  # xi+ retention component is always zero
        return q, pi

    return strategy
