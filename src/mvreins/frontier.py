"""Efficient frontier curves: (target mean, minimal variance) pairs.

Both information regimes produce frontiers of the same shape, a parabola in
the target mean anchored at the riskless vertex:  Var = coef * (d - vertex)^2.
A solution of either mode exposes ``vertex`` and ``frontier_coefficient``.
Its coefficient is e^{-k} / (1 - e^{-k}) = 1 / expm1(k) for the frontier
exponent k: -2 A1 T in full mode, int_0^T kappa- in partial mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MvreinsError

# Largest frontier exponent k whose e^{-k} is a normal double (708.396...);
# past it the coefficient e^{-k} / (1 - e^{-k}) is subnormal or zero, and
# from 709.78 on expm1(k) overflows.
MAX_EXPONENT = float(-np.log(np.finfo(float).tiny))


class FrontierUnderflowError(MvreinsError):
    """Frontier exponent k past MAX_EXPONENT: e^{-k} underflows."""


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


def check_exponent(k: float) -> None:
    """Refuse a frontier exponent past MAX_EXPONENT, in the same words in
    both information modes."""
    if not k <= MAX_EXPONENT:
        raise FrontierUnderflowError(
            f"frontier exponent {k:.6g} exceeds {MAX_EXPONENT:.6g}: e^-k "
            "underflows, so the frontier coefficient is not a normal double")


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
