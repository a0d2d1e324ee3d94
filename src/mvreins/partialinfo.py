"""Efficient strategies and frontier under the observation filtration.

The mean constraint is removed by a scalar multiplier gamma; for each gamma the
unconstrained problem is solved in feedback form through the cone minimizers
applied to the positive/negative part of the wealth gap X - S(t),

    u(t) = xi_plus(t) (X - S(t))^+  +  xi_minus(t) (X - S(t))^-,

where S(t) (:func:`~mvreins.model.riskless_level`) is the wealth from which
the zero strategy ends at d - gamma at T: (d - gamma) e^{-int_t^T r} less the
discounted premium surplus a(theta - eta) still to come.  The xi+/- are
P-free (P > 0 only scales the Hamiltonian), so the feedback reads the target
level d - gamma* alone; the law is :func:`~mvreins.conelq.gap_feedback`,
shared with full information.

gamma*, the frontier and the dual value follow from :mod:`~mvreins.frontier`
and the fields of its :class:`~mvreins.frontier.Solution` record alone, the
one record of both modes: k+/- = int_0^T kappa+/-, the exponents
:func:`~mvreins.conelq.riccati_pair` returns at t = 0, with
P+/-(0) e^{-2 int r} = e^{-k+/-}, the target mean d and the frontier vertex
d0, the riskless terminal wealth.

Supported reductions (lambda = 0): exact when the drift is degenerate, so the
filtered mean is deterministic; otherwise a projected-drift approximation that
replaces the filter mean by its expectation curve.  The approximation is always
labeled; Monte Carlo quantifies its gap.
"""

from __future__ import annotations

from .conelq import gap_feedback
from .frontier import Solution, assemble_solution
from .model import INFO_PARTIAL, ModelParams, validate

MODE_EXACT = "exact"
MODE_PROJECTED = "projected_drift"


def solve_partial(model: ModelParams) -> Solution:
    """The partial-information solution record for the model's target mean,
    labeled exact under a degenerate drift and projected otherwise."""
    report = validate(model)
    if not report.ok:
        raise ValueError(f"invalid model: {report}")
    if model.info_mode != INFO_PARTIAL:
        raise ValueError("solve_partial requires a partial-information model")
    mode = MODE_EXACT if model.drift.is_degenerate() else MODE_PROJECTED
    return assemble_solution(model, mode)


def partial_feedback_strategy(sol: Solution, model: ModelParams):
    """Vectorized (t, wealth, filtered mean) -> (q, pi) arrays, for simulation:
    :func:`~mvreins.conelq.gap_feedback` at the target level d - gamma*."""
    return gap_feedback(model, sol.target_level)
