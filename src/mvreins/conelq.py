"""Cone-constrained LQ core: closed-form minimizers over the nonnegative orthant
and the backward Riccati pair in the deterministic-coefficient reduction.

The controlled wealth gap obeys a linear SDE with drift row B(t) = (a eta, m - r)
and diagonal diffusion diag(b, sigma), the two noise sources being independent.
Because the diffusion Gram matrix is diagonal, the constrained minimizations

    min_{u >= 0}  u' P D D' u  +/- 2 u' B' P

separate per coordinate and admit exact closed forms; no numerical QP is needed.
With deterministic coefficients the martingale parts of the backward equations
vanish, and the pair P+/- solves the terminal-value ODEs
dP/dt = -[2 r P + H*(t, P)],  P(T) = 1,  P > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .curves import SampledCurve
from .model import ModelParams
from .odekernel import integrate_backward

Sign = Literal["plus", "minus"]


class RiccatiSolverError(RuntimeError):
    """Backward Riccati solve breached positivity or failed to converge."""


@dataclass(frozen=True)
class ControlPair:
    """Admissible control: reinsurance retention q >= 0, risky investment pi >= 0.

    Canonical field order is (q, pi); call sites must use the named fields.
    """

    q: float
    pi: float

    def __post_init__(self):
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "pi", float(self.pi))
        if self.q < 0 or self.pi < 0:
            raise ValueError(f"controls must be nonnegative, got q={self.q}, pi={self.pi}")


@dataclass(frozen=True)
class LQCoefficients:
    """Drift/diffusion coefficients of the wealth-gap SDE at one instant.

    b_q = a*eta, b_pi = m - r (filtered excess return); d_q = b, d_pi = sigma.
    """

    b_q: float
    b_pi: float
    d_q: float
    d_pi: float

    def __post_init__(self):
        if self.d_q <= 0 or self.d_pi <= 0:
            raise ValueError("diffusion coefficients must be positive")


def cone_quadratic_argmin(quad: float, lin: float) -> tuple[float, float]:
    """Minimize quad*u^2 + 2*lin*u over u >= 0 (quad > 0); returns (argmin, value)."""
    if quad <= 0:
        raise ValueError("quadratic coefficient must be positive")
    u = max(0.0, -lin / quad)
    return u, quad * u * u + 2.0 * lin * u


def _sign_factor(sign: Sign) -> float:
    if sign == "plus":
        return 1.0
    if sign == "minus":
        return -1.0
    raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


def xi_minimizer(sign: Sign, P: float, coeffs: LQCoefficients) -> ControlPair:
    """Closed-form argmin of the signed Hamiltonian over the nonnegative orthant.

    Componentwise u_i = max(0, -s B_i / d_i^2) with s = +1 / -1; independent of
    P (P > 0 only scales the objective in the deterministic reduction).
    """
    if P <= 0:
        raise ValueError("P must be positive")
    s = _sign_factor(sign)
    q, _ = cone_quadratic_argmin(P * coeffs.d_q ** 2, s * P * coeffs.b_q)
    pi, _ = cone_quadratic_argmin(P * coeffs.d_pi ** 2, s * P * coeffs.b_pi)
    return ControlPair(q, pi)


def hamiltonian_min(sign: Sign, P: float, coeffs: LQCoefficients) -> float:
    """Minimized signed Hamiltonian; always <= 0 since u = 0 is feasible."""
    if P <= 0:
        raise ValueError("P must be positive")
    s = _sign_factor(sign)
    _, vq = cone_quadratic_argmin(P * coeffs.d_q ** 2, s * P * coeffs.b_q)
    _, vpi = cone_quadratic_argmin(P * coeffs.d_pi ** 2, s * P * coeffs.b_pi)
    return vq + vpi


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Backward pair P+(t), P-(t) with terminal value 1, under lambda = 0."""

    p_plus: SampledCurve
    p_minus: SampledCurve


def _coeffs_at(model: ModelParams, m_bar, t: float) -> LQCoefficients:
    c, mk = model.claim, model.market
    return LQCoefficients(
        b_q=c.a * c.eta,
        b_pi=float(m_bar(t)) - mk.r(t),
        d_q=c.b,
        d_pi=mk.sigma(t),
    )


def solve_riccati_pair(model: ModelParams, m_bar,
                       steps: int = 10000) -> RiccatiSolution:
    """Backward RK4 solutions of dP/dt = -[2 r P + H*(t, P)], P(T) = 1.

    ``m_bar`` is the deterministic drift curve: the exact expected return in
    full mode, or the projected filter mean in partial mode.  Raises
    :class:`RiccatiSolverError` if positivity is breached.
    """
    T = model.objective.T
    c = model.claim
    breaks = np.concatenate([
        model.market.r.breakpoints_within(0.0, T),
        model.market.sigma.breakpoints_within(0.0, T),
    ])
    r_at = model.market.r.scalar_evaluator()
    sig_at = model.market.sigma.scalar_evaluator()
    m_at = m_bar.scalar_evaluator() if hasattr(m_bar, "scalar_evaluator") else m_bar
    b_q = c.a * c.eta

    def make_rhs(sign: Sign):
        def rhs(t, p):
            if p <= 0:
                raise RiccatiSolverError(
                    f"P{'+' if sign == 'plus' else '-'} reached {p:.3e} <= 0 at t={t:.6g}"
                )
            coeffs = LQCoefficients(b_q=b_q, b_pi=m_at(t) - r_at(t),
                                    d_q=c.b, d_pi=sig_at(t))
            return -(2.0 * r_at(t) * p + hamiltonian_min(sign, p, coeffs))
        return rhs

    p_plus = integrate_backward(make_rhs("plus"), 1.0, T, steps, breakpoints=breaks)
    p_minus = integrate_backward(make_rhs("minus"), 1.0, T, steps, breakpoints=breaks)
    for name, curve in (("P+", p_plus), ("P-", p_minus)):
        if curve.values.min() <= 0:
            raise RiccatiSolverError(f"{name} not positive on [0, T]")
    return RiccatiSolution(p_plus=p_plus, p_minus=p_minus)
