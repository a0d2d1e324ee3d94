"""The mean-variance layer of both information regimes: one solution record,
multiplier, dual value and efficient frontier.

A multiplier gamma embeds "min Var X(T) subject to E X(T) = d" in an
unconstrained cone-constrained LQ problem with wealth target d - gamma.  Its
optimal cost, gamma* and the frontier depend only on the exponents
k+/- = int_0^T kappa+/- of the Riccati pair, the riskless vertex and d
(Hu and Zhou 2005): in full information, a known constant drift above r,
k+ = 0 and k- = -2 A1 T.

A solution of either mode is one :class:`Solution` record, built by
:func:`assemble_solution`: ``kappa_plus``, ``kappa_minus`` (from
:func:`~mvreins.conelq.riccati_pair` at t = 0), ``gamma_star``, ``d``,
``d0`` (the riskless terminal wealth, which sets the dual's branch),
``vertex`` and ``approximation_mode``, with ``frontier_coefficient`` and
``target_level`` read from them.  The frontier is a parabola anchored at the
vertex, Var = (d - vertex)^2 / (e^{k-} - 1), and gamma* =
(vertex - d) / (e^{k-} - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conelq import riccati_pair
from .errors import MvreinsError
from .model import ModelParams, riskless_terminal_wealth

# Largest frontier exponent k whose e^{-k} is a normal double (708.396...);
# past it the coefficient 1 / (e^k - 1) is subnormal or zero, and from
# 709.78 on expm1(k) overflows.
MAX_EXPONENT = float(-np.log(np.finfo(float).tiny))


class FrontierUnderflowError(MvreinsError):
    """Frontier exponent k past MAX_EXPONENT: e^{-k} underflows."""


class DegenerateFrontierError(MvreinsError):
    """Frontier denominator e^{k-} - 1 is not > 0: no risk premium to trade."""


class InfeasibleTargetError(ValueError):
    """Requested expected terminal wealth below the attainable vertex."""


@dataclass(frozen=True, eq=False)
class FrontierCurve:
    d: np.ndarray         # target expected terminal wealth
    variance: np.ndarray  # minimal attainable variance

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))
        object.__setattr__(self, "variance", np.asarray(self.variance, dtype=float))
        if self.d.shape != self.variance.shape:
            raise ValueError("d and variance must have the same shape")

    @property
    def std_dev(self) -> np.ndarray:
        return np.sqrt(self.variance)


def check_target(d, vertex: float) -> None:
    """Reject target means below the vertex, with slack 1e-9 max(1, |vertex|)."""
    d = np.asarray(d, dtype=float)
    if np.any(d < vertex - 1e-9 * max(1.0, abs(vertex))):
        raise InfeasibleTargetError(
            f"target mean {d.min()} below frontier vertex {vertex}")


def _frontier_denominator(k_minus: float) -> float:
    """e^{k-} - 1, formed as expm1 so that a tiny premium does not cancel;
    an exponent past MAX_EXPONENT is refused."""
    if not k_minus <= MAX_EXPONENT:
        raise FrontierUnderflowError(
            f"frontier exponent {k_minus:.6g} exceeds {MAX_EXPONENT:.6g}: e^-k "
            "underflows, so the frontier coefficient is not a normal double")
    denom = float(np.expm1(k_minus))
    if denom <= 0:
        raise DegenerateFrontierError(
            f"frontier denominator {denom:.3e} <= 0; model degenerate")
    return denom


def gamma_star(vertex: float, d: float, k_minus: float) -> float:
    """The optimal multiplier (vertex - d) / (e^{k-} - 1): zero at d = vertex,
    negative beyond; a target below the vertex raises
    :class:`InfeasibleTargetError`."""
    check_target(d, vertex)
    return (vertex - d) / _frontier_denominator(k_minus)


@dataclass(frozen=True, eq=False)
class Solution:
    """The solution of either information mode: exponents k+/- =
    int_0^T kappa+/- (P+/-(0) e^{-2 int r} = e^{-k+/-}), gamma*, the target
    mean d, the riskless terminal wealth d0, the frontier vertex (d0, or
    full mode's compat constant) and the mode's label."""

    kappa_plus: float
    kappa_minus: float
    gamma_star: float
    d: float
    d0: float
    vertex: float
    approximation_mode: str

    @property
    def frontier_coefficient(self) -> float:
        """1 / (e^{k-} - 1), the frontier's quadratic coefficient."""
        return 1.0 / _frontier_denominator(self.kappa_minus)

    @property
    def target_level(self) -> float:
        """Embedded wealth target d - gamma*: the strategy is active below its
        discounted value and coasts risk-free above it."""
        return self.d - self.gamma_star


def assemble_solution(model: ModelParams, approximation_mode: str,
                      vertex: float | None = None) -> Solution:
    """The solution record of ``model``'s target mean: k+/- from
    :func:`~mvreins.conelq.riccati_pair` at t = 0, d0 the riskless terminal
    wealth, and gamma* from :func:`gamma_star` at ``vertex`` (d0 when None)."""
    k_plus, k_minus = riccati_pair(model, 0.0)
    d, d0 = model.objective.d, riskless_terminal_wealth(model)
    vertex = d0 if vertex is None else vertex
    return Solution(kappa_plus=k_plus, kappa_minus=k_minus,
                    gamma_star=gamma_star(vertex, d, k_minus), d=d, d0=d0,
                    vertex=vertex, approximation_mode=approximation_mode)


def _float_if_scalar(values):
    return float(values) if np.ndim(values) == 0 else values


def dual_value(sol, gamma):
    """Optimal cost of the gamma-embedded problem, to be maximized over gamma.

    With gap = vertex - d, and k = k- where d0 < d - gamma (the initial
    wealth below the target level) and k+ elsewhere, it is

        expm1(-k) gamma^2 + 2 e^{-k} gap gamma + e^{-k} gap^2,

    that is e^{-k} (gamma + gap)^2 - gamma^2, with the leading coefficient
    free of cancellation.  Its maximizer is gamma*.  The branch reads d0 and
    the values read the vertex; the two differ only under full mode's compat
    constant.  Broadcasts over ``gamma``; a scalar gamma gives a float.
    """
    gap = sol.vertex - sol.d

    def branch(k):
        decay = np.exp(-k)
        return np.expm1(-k) * gamma * gamma + 2.0 * decay * gap * gamma + decay * gap * gap

    return _float_if_scalar(np.where(sol.d0 - (sol.d - gamma) < 0,
                                     branch(sol.kappa_minus), branch(sol.kappa_plus)))


def efficient_frontier(sol, d_grid) -> FrontierCurve:
    """Var = sol.frontier_coefficient * (d - sol.vertex)^2 for d at or above
    the vertex of a solution of either information mode."""
    coefficient, vertex = sol.frontier_coefficient, sol.vertex
    if coefficient <= 0:
        raise ValueError("frontier coefficient must be positive")
    d = np.atleast_1d(np.asarray(d_grid, dtype=float))
    check_target(d, vertex)
    gap = np.maximum(d - vertex, 0.0)
    return FrontierCurve(d=d, variance=coefficient * gap * gap)
