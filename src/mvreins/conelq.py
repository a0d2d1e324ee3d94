"""Cone-constrained LQ core: closed-form minimizers over the nonnegative orthant
and the backward Riccati pair in the deterministic-coefficient reduction.

The controlled wealth gap obeys a linear SDE with drift row B(t) = (a eta, m - r)
and diagonal diffusion diag(b, sigma), the two noise sources being independent.
Because the diffusion Gram matrix is diagonal, the constrained minimizations

    min_{u >= 0}  u' P D D' u  +/- 2 u' B' P

separate per coordinate and admit exact closed forms; no numerical QP is needed.
P > 0 only scales them, so the minimizers xi+/- (:func:`xi_minimizer`) are P-free.
With deterministic coefficients the martingale parts of the backward equations
vanish, and the pair P+/- solves the terminal-value ODEs
dP/dt = -[2 r P + H*(t, P)],  P(T) = 1,  P > 0.

H* is degree-one homogeneous in P, H*(t, P) = -kappa(t) P, so the pair is
linear and solves in closed form:

    P+/-(t) = exp( int_t^T (2 r - kappa+/-) ),
    kappa+ = ((m - r)^-)^2 / sigma^2,
    kappa- = (a eta / b)^2 + ((m - r)^+)^2 / sigma^2,

with m the deterministic drift curve m0 exp(int_0^t h).  :func:`riccati_pair`
integrates kappa exactly on the pieces where r, sigma, h and the sign of m - r
are fixed; it is the production solver.  The backward RK4 solve
:func:`solve_riccati_pair` serves only as its independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .curves import SampledCurve, segments
from .errors import MvreinsError
from .model import ModelParams
from .odekernel import integrate_linear_backward

Sign = Literal["plus", "minus"]

_SAMPLES = 10001  # nodes of linspace(0, T) in the closed-form pair, before piece edges
# Series in z = k u of the integrals of :func:`_expm1_integrals`, highest power
# first: u sum_{n>=2} z^{n-1}/n! and u sum_{n>=3} (2^{n-1} - 2) z^{n-1}/n!.
# Below |z| = 0.1 the terms to n = 13 leave a tail under 1e-17 relative; above
# it the closed forms lose under 1e-13 relative.
_SERIES_CUT = 0.1
_EXPM1_SERIES = [1.0 / math.factorial(n) for n in range(13, 1, -1)]
_EXPM1_SQ_SERIES = [(2.0 ** (n - 1) - 2.0) / math.factorial(n) for n in range(13, 2, -1)]


class RiccatiSolverError(MvreinsError):
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


def cone_quadratic_argmin(quad: float, lin):
    """Minimize quad*u^2 + 2*lin*u over u >= 0 (quad > 0); returns (argmin, value).

    Broadcasts over ``lin``: an array gives arrays, a float gives floats,
    the same ones element by element.
    """
    if quad <= 0:
        raise ValueError("quadratic coefficient must be positive")
    if np.ndim(lin) == 0:
        u = max(0.0, -lin / quad)
    else:
        ratio = -np.asarray(lin, dtype=float) / quad
        u = np.where(ratio > 0.0, ratio, 0.0)  # max(0.0, ratio), as Python orders it
    return u, quad * u * u + 2.0 * lin * u


def _sign_factor(sign: Sign) -> float:
    if sign == "plus":
        return 1.0
    if sign == "minus":
        return -1.0
    raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")


def xi_minimizer(sign: Sign, coeffs: LQCoefficients) -> ControlPair:
    """Closed-form argmin of the signed Hamiltonian over the nonnegative orthant.

    Componentwise u_i = max(0, -s B_i / d_i^2) with s = +1 / -1.  It takes no
    P: any P > 0 only scales the objective in the deterministic reduction.
    """
    s = _sign_factor(sign)
    q, _ = cone_quadratic_argmin(coeffs.d_q ** 2, s * coeffs.b_q)
    pi, _ = cone_quadratic_argmin(coeffs.d_pi ** 2, s * coeffs.b_pi)
    return ControlPair(q, pi)


def hamiltonian_min(sign: Sign, P: float, coeffs: LQCoefficients):
    """Minimized signed Hamiltonian; always <= 0 since u = 0 is feasible.

    Broadcasts over ``coeffs.b_pi``: an array of excess returns gives the
    array of the scalar calls' values.
    """
    if P <= 0:
        raise ValueError("P must be positive")
    s = _sign_factor(sign)
    _, vq = cone_quadratic_argmin(P * coeffs.d_q ** 2, s * P * coeffs.b_q)
    _, vpi = cone_quadratic_argmin(P * coeffs.d_pi ** 2, s * P * coeffs.b_pi)
    return vq + vpi


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Backward pair P+(t), P-(t) with terminal value 1, under lambda = 0.

    ``kappa_plus_integral`` and ``kappa_minus_integral`` are int_0^T kappa+/-,
    so P+/-(0) e^{-2 int_0^T r} = exp(-kappa_plus/minus_integral); the frontier
    and the dual value read them instead of P+/-(0).
    """

    p_plus: SampledCurve
    p_minus: SampledCurve
    kappa_plus_integral: float
    kappa_minus_integral: float


def _expm1_rate(k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """int_0^u e^{k s} ds = expm1(k u)/k, with its limit u at k = 0."""
    flat = k == 0.0
    return np.where(flat, u, np.expm1(k * u) / np.where(flat, 1.0, k))


def _expm1_integrals(k: np.ndarray, u: np.ndarray):
    """(int_0^u expm1(k s) ds, int_0^u expm1(k s)^2 ds) = (E(k) - u, E(2k) - 2E(k) + u).

    E(k) is :func:`_expm1_rate`.  Both integrals are O(k u^2) and O(k^2 u^3),
    formed from terms of size u, so below |k u| = _SERIES_CUT they are
    summed from their series instead.
    """
    z = k * u
    small = np.abs(z) < _SERIES_CUT
    zs = np.where(small, z, 0.0)
    lin = sq = 0.0
    for coef in _EXPM1_SERIES:
        lin = lin * zs + coef
    for coef in _EXPM1_SQ_SERIES:
        sq = sq * zs + coef
    grow = _expm1_rate(k, u)
    return (np.where(small, u * zs * lin, grow - u),
            np.where(small, u * zs * zs * sq, _expm1_rate(2.0 * k, u) - 2.0 * grow + u))


def riccati_pair(model: ModelParams) -> RiccatiSolution:
    """Closed-form P+/- on linspace(0, T, _SAMPLES) joined with the piece edges.

    [0, T] is cut at the breakpoints of r, sigma and h.  On a piece starting
    at a the drift is m(t) = M e^{h (t - a)} with M = m0 exp(int_0^a h); it
    crosses r at most once, at s* = a + ln(r/M)/h, which becomes a further
    cut.  Each piece then has a fixed sign of m - r, so one branch of each
    kappa, and int (M e^{h u} - r)^2 du is exact there.  It is integrated as
    (e0 + M expm1(h u))^2 with e0 = M - r, so a drift next to r does not
    cancel; the integrals of expm1(h u) and its square come from
    :func:`_expm1_integrals`, which sums their series at small |h u| and
    gives exactly 0 at h = 0.  Cumulative sums of
    the piece integrals give int_t^T (2r - kappa+/-) at every node, and
    P(T) = 1 exactly.  The kappa integrals, kept apart from the 2r terms,
    sum to ``kappa_plus_integral`` and ``kappa_minus_integral``.
    """
    c, mk, dr = model.claim, model.market, model.drift
    T = model.objective.T
    edges, (r, h, _) = segments(0.0, T, mk.r, dr.h, mk.sigma)
    a = edges[:-1]
    m_start = dr.m0 * np.exp(dr.h.antiderivative(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = a + np.log(r / m_start) / h
    cross = cross[(h != 0.0) & (m_start > 0.0) & (cross > a) & (cross < edges[1:])]
    edges = np.unique(np.concatenate([edges, cross]))

    a, width = edges[:-1], np.diff(edges)
    r, h, sig2 = mk.r(a), dr.h(a), mk.sigma(a) ** 2
    m_start = dr.m0 * np.exp(dr.h.antiderivative(a))
    above = m_start * np.exp(0.5 * h * width) > r  # sign of m - r mid-piece
    claim_rate = (c.a * c.eta / c.b) ** 2

    def integrals(j, u):
        """int over [a_j, a_j + u] of (2r, kappa+, kappa-)."""
        m, e0 = m_start[j], m_start[j] - r[j]
        lin, sq = _expm1_integrals(h[j], u)
        excess_sq = (e0 ** 2 * u + 2.0 * e0 * m * lin + m ** 2 * sq) / sig2[j]
        return (2.0 * r[j] * u, np.where(above[j], 0.0, excess_sq),
                claim_rate * u + np.where(above[j], excess_sq, 0.0))

    grid = np.unique(np.concatenate([np.linspace(0.0, T, _SAMPLES), edges]))
    j = np.clip(np.searchsorted(edges, grid, side="right") - 1, 0, a.size - 1)
    riskless, *at_nodes = integrals(j, grid - a[j])
    riskless_whole, *whole = integrals(np.arange(a.size), width)
    curves = []
    for node, piece in zip(at_nodes, whole):
        log_growth = riskless_whole - piece
        from_zero = (np.concatenate(([0.0], np.cumsum(log_growth)))[j]
                     + (riskless - node))
        curves.append(SampledCurve(grid, np.exp(from_zero[-1] - from_zero)))
    return RiccatiSolution(p_plus=curves[0], p_minus=curves[1],
                           kappa_plus_integral=float(np.sum(whole[0])),
                           kappa_minus_integral=float(np.sum(whole[1])))


def solve_riccati_pair(model: ModelParams, m_bar,
                       steps: int = 10000) -> RiccatiSolution:
    """Oracle: backward RK4 solutions of dP/dt = -[2 r P + H*(t, P)], P(T) = 1.

    Integrates the Riccati pair numerically through :func:`hamiltonian_min`,
    sharing none of :func:`riccati_pair`'s closed form, so the validation
    suite can check one against the other; production code calls
    :func:`riccati_pair`.  ``m_bar`` is the deterministic drift curve: the
    exact expected return in full mode, or the projected filter mean in
    partial mode, as a :class:`~mvreins.curves.SampledCurve`; r and sigma
    reach the right-hand side as their values on each piece.  H* is
    degree-one homogeneous in P, so each equation is P' = c(t) P with
    c = -(2r + H*(t, 1)), marched by
    :func:`~mvreins.odekernel.integrate_linear_backward`: one array call of
    :func:`hamiltonian_min` per segment and sign gives c at all its RK4
    stage times.  Each kappa integral is 2 int_0^T r - log P(0).  Raises
    :class:`RiccatiSolverError` if P+/- is not positive on the grid.
    """
    T = model.objective.T
    c = model.claim
    b_q = c.a * c.eta
    coefficients = (model.market.r, model.market.sigma)
    curves = []
    for sign, name in (("plus", "P+"), ("minus", "P-")):
        def rate(t, r, sigma):
            coeffs = LQCoefficients(b_q=b_q, b_pi=m_bar(t) - r, d_q=c.b, d_pi=sigma)
            return -(2.0 * r + hamiltonian_min(sign, 1.0, coeffs))

        curve = integrate_linear_backward(rate, 1.0, T, steps,
                                          curves=coefficients)
        if curve.values.min() <= 0:
            raise RiccatiSolverError(f"{name} not positive on [0, T]")
        curves.append(curve)
    p_plus, p_minus = curves
    two_r = 2.0 * model.market.r.integral(0.0, T)
    return RiccatiSolution(
        p_plus=p_plus, p_minus=p_minus,
        kappa_plus_integral=two_r - float(np.log(p_plus(0.0))),
        kappa_minus_integral=two_r - float(np.log(p_minus(0.0))))
