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

with m the deterministic drift curve m0 exp(int_0^t h).  This is the
cone-constrained pair of Hu and Zhou (2005, SIAM J. Control Optim. 44) with
deterministic coefficients: its exponents int_t^T kappa+/- are the whole
solution, and the frontier and gamma* read them at t = 0 only.
:func:`riccati_pair` returns them, integrating kappa exactly on the pieces
where r, sigma, h and the sign of m - r are fixed; it is the production
solver, and :func:`p_pair` forms P+/-(t) from it.  The backward RK4 solve
:func:`solve_riccati_pair` of the P+/- curves serves only as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .curves import SampledCurve, segments
from .errors import MvreinsError
from .model import ModelParams, riskless_level
from .odekernel import integrate_linear_backward

Sign = Literal["plus", "minus"]

_ORACLE_STEPS = 10000  # RK4 steps of :func:`solve_riccati_pair`
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


def cone_quadratic_argmin(quad, lin):
    """Minimize quad*u^2 + 2*lin*u over u >= 0 (quad > 0); returns (argmin, value).

    Broadcasts over ``quad`` and ``lin``: arrays give arrays, floats give
    floats, the same ones element by element.
    """
    if np.ndim(lin) == 0 and isinstance(quad, float):
        if quad <= 0:
            raise ValueError("quadratic coefficient must be positive")
        u = max(0.0, -lin / quad)
    else:
        quad = np.asarray(quad, dtype=float)
        if np.any(quad <= 0):
            raise ValueError("quadratic coefficient must be positive")
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


def gap_feedback(model: ModelParams, target: float):
    """Vectorized (t, wealth, m) -> (q, pi) arrays: the feedback law of both
    information modes, for simulation.

    S(t) = :func:`~mvreins.model.riskless_level` is the wealth from which the
    zero strategy ends at ``target``; the gap Y = X - S obeys the homogeneous
    LQ SDE of this module, and u = xi+ Y^+ + xi- Y^- is

        q = (a eta / b^2) (S - X)^+,    pi = max(((r - m)/sigma^2) (X - S), 0),

    m being the filtered mean: an array, or a float under a known drift.  pi
    equals max(excess, 0) Y^- + max(-excess, 0) Y^+, excess = (m - r)/sigma^2,
    bit for bit wherever both are finite: negation and rounding commute, at
    most one term is non-zero, and numpy's maximum(-0.0, 0.0) is +0.0.

    S(t), r(t) and sigma(t)^2 are formed once per t, in a table keyed by t
    that every block reuses.  They are pure functions of t, so worker threads
    can at worst compute an entry twice, and a strategy reused on another
    grid looks up its own times.  Both outputs are fresh arrays on every call.
    """
    c, mk = model.claim, model.market
    coef_q_minus = c.a * c.eta / c.b ** 2  # xi- retention component, constant
    per_t = {}

    def strategy(t, x, m):
        scalars = per_t.get(t)
        if scalars is None:
            scalars = per_t[t] = (riskless_level(model, t, target),
                                  mk.r(t), mk.sigma(t) ** 2)
        level, r_t, var_t = scalars
        gap = np.subtract(x, level)
        pi = np.subtract(r_t, m)
        pi /= var_t
        pi *= gap
        np.maximum(pi, 0.0, out=pi)
        q = np.negative(gap, out=gap)
        np.maximum(q, 0.0, out=q)
        q *= coef_q_minus
        return q, pi

    return strategy


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


def riccati_pair(model: ModelParams, t):
    """Exponents (int_t^T kappa+, int_t^T kappa-) of the closed-form pair at ``t``.

    P+/-(t) = exp(2 int_t^T r - int_t^T kappa+/-).  [0, T] is cut at the
    breakpoints of r, sigma and h.  On a piece starting at a the drift is
    m(t) = M e^{h (t - a)} with M = m0 exp(int_0^a h); it crosses r at most
    once, at s* = a + ln(r/M)/h, which becomes a further cut.  Each piece
    then has a fixed sign of m - r, so one branch of each kappa, and
    int (M e^{h u} - r)^2 du is exact there.  It is integrated as
    (e0 + M expm1(h u))^2 with e0 = M - r, so a drift next to r does not
    cancel; the integrals of expm1(h u) and its square come from
    :func:`_expm1_integrals`, which sums their series at small |h u| and
    gives exactly 0 at h = 0.  An exponent is the ``np.sum`` of the whole
    pieces from t's piece on, less the part of that piece before t, which
    is exactly 0 at its start: so t = 0 gives the plain sum over all
    pieces, and t = T gives (0.0, 0.0).  A float t gives floats; an array
    gives arrays, with the bits of the float calls element by element.
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
        """int over [a_j, a_j + u] of (kappa+, kappa-)."""
        m, e0 = m_start[j], m_start[j] - r[j]
        lin, sq = _expm1_integrals(h[j], u)
        excess_sq = (e0 ** 2 * u + 2.0 * e0 * m * lin + m ** 2 * sq) / sig2[j]
        return (np.where(above[j], 0.0, excess_sq),
                claim_rate * u + np.where(above[j], excess_sq, 0.0))

    t = np.asarray(t, dtype=float)
    j = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, a.size - 1)
    pair = []
    pieces = integrals(np.arange(a.size), width)
    for whole, before in zip(pieces, integrals(j, t - a[j])):
        from_piece = np.array([np.sum(whole[i:]) for i in range(a.size)])
        k = from_piece[j] - before
        pair.append(float(k) if k.ndim == 0 else k)
    return tuple(pair)


def p_pair(model: ModelParams, t):
    """(P+(t), P-(t)) = exp(2 int_t^T r - int_t^T kappa+/-), the exponents from
    :func:`riccati_pair`; broadcasts over t as it does."""
    r = model.market.r
    two_r = 2.0 * (r.antiderivative(model.objective.T) - r.antiderivative(t))
    return tuple(np.exp(two_r - k) for k in riccati_pair(model, t))


def solve_riccati_pair(model: ModelParams, m_bar,
                       steps: int = _ORACLE_STEPS) -> tuple[SampledCurve, SampledCurve]:
    """Oracle: backward RK4 solutions (P+, P-) of dP/dt = -[2 r P + H*(t, P)], P(T) = 1.

    Integrates the Riccati pair numerically through :func:`hamiltonian_min`
    in ``steps`` steps, sharing none of :func:`riccati_pair`'s
    closed form, so the validation suite can check one against the other;
    production code calls :func:`riccati_pair`.  ``m_bar`` is the
    deterministic drift curve, any callable of t that broadcasts over an
    array of times: the exact expected return in full mode, or the projected
    filter mean of :func:`~mvreins.filtering.projected_mean_curve` in
    partial mode; r and sigma reach the right-hand
    side as their values on each piece.  H* is degree-one homogeneous in P,
    so each equation is P' = c(t) P with c = -(2r + H*(t, 1)), marched by
    :func:`~mvreins.odekernel.integrate_linear_backward`: one array call of
    :func:`hamiltonian_min` per segment and sign gives c at all its RK4
    stage times.  Raises :class:`RiccatiSolverError` if P+/- is not
    positive on the grid.
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

        curve = integrate_linear_backward(rate, 1.0, T, steps, curves=coefficients)
        if curve.values.min() <= 0:
            raise RiccatiSolverError(f"{name} not positive on [0, T]")
        curves.append(curve)
    return tuple(curves)
