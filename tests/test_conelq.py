from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvreins.config import load_config
from mvreins.conelq import (ControlPair, LQCoefficients, RiccatiSolverError,
                            cone_quadratic_argmin, hamiltonian_min, riccati_pair,
                            solve_riccati_pair, xi_minimizer)
from mvreins.curves import SampledCurve
from mvreins.filtering import projected_mean_curve
from mvreins.odekernel import integrate_backward

from conftest import make_model

REPO = Path(__file__).resolve().parents[1]
BENCH_PARTIAL_CFG = REPO / "bench" / "configs" / "partial.cfg"
# m = 0.06 e^{-0.3 t} crosses r = 0.04 at t = ln(1.5)/0.3 in bench partial.cfg
_BENCH_CROSSING = float(mpmath.log(mpmath.mpf(0.06) / mpmath.mpf(0.04))
                        / mpmath.mpf(0.3))


def grid_search_argmin(sign, P, coeffs, lo=0.0, hi=1.0, step=1e-3):
    """Independent oracle: brute-force minimization over the [lo, hi]^2 grid."""
    s = 1.0 if sign == "plus" else -1.0
    u = np.arange(lo, hi + step / 2, step)
    q, pi = np.meshgrid(u, u, indexing="ij")
    obj = (P * (coeffs.d_q ** 2 * q ** 2 + coeffs.d_pi ** 2 * pi ** 2)
           + s * 2.0 * P * (coeffs.b_q * q + coeffs.b_pi * pi))
    k = np.unravel_index(np.argmin(obj), obj.shape)
    return u[k[0]], u[k[1]], obj[k]


def test_xi_minus_interior_example():
    coeffs = LQCoefficients(b_q=0.2, b_pi=0.02, d_q=1.0, d_pi=1.0)
    xi = xi_minimizer("minus", coeffs)
    assert xi.q == pytest.approx(0.2, abs=1e-12)
    assert xi.pi == pytest.approx(0.02, abs=1e-12)
    gq, gpi, _ = grid_search_argmin("minus", 1.0, coeffs)
    assert abs(gq - xi.q) <= 1e-3 and abs(gpi - xi.pi) <= 1e-3


def test_xi_plus_origin_for_nonnegative_drift():
    coeffs = LQCoefficients(b_q=0.2, b_pi=0.02, d_q=1.0, d_pi=1.0)
    xi = xi_minimizer("plus", coeffs)
    assert (xi.q, xi.pi) == (0.0, 0.0)


def test_xi_minus_clips_negative_excess_return():
    coeffs = LQCoefficients(b_q=0.2, b_pi=-0.05, d_q=1.0, d_pi=1.0)
    xi = xi_minimizer("minus", coeffs)
    assert xi.q == pytest.approx(0.2, abs=1e-12)
    assert xi.pi == 0.0
    gq, gpi, _ = grid_search_argmin("minus", 1.0, coeffs)
    assert abs(gq - 0.2) <= 1e-3 and gpi == 0.0


def test_hamiltonian_minus_matches_hand_value():
    coeffs = LQCoefficients(b_q=0.2, b_pi=0.02, d_q=1.0, d_pi=1.0)
    h = hamiltonian_min("minus", 1.0, coeffs)
    assert h == pytest.approx(-0.0404, abs=1e-15)
    _, _, oracle = grid_search_argmin("minus", 1.0, coeffs)
    assert h <= oracle + 1e-9


def test_hamiltonian_plus_zero_for_nonnegative_drift():
    coeffs = LQCoefficients(b_q=0.2, b_pi=0.02, d_q=1.0, d_pi=1.0)
    assert hamiltonian_min("plus", 1.0, coeffs) == 0.0


def test_hamiltonian_degree_one_homogeneity():
    coeffs = LQCoefficients(b_q=0.7, b_pi=-0.4, d_q=1.3, d_pi=0.6)
    base = {s: hamiltonian_min(s, 1.0, coeffs) for s in ("plus", "minus")}
    for alpha in (0.5, 2.0, 10.0):
        for s in ("plus", "minus"):
            assert hamiltonian_min(s, alpha, coeffs) == \
                pytest.approx(alpha * base[s], rel=1e-12)


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_hamiltonian_broadcasts_over_b_pi(sign):
    b_pi = np.array([-0.7, -1e-12, 0.0, 1e-12, 0.02, 3.0])
    coeffs = LQCoefficients(b_q=0.7, b_pi=b_pi, d_q=1.3, d_pi=0.6)
    got = hamiltonian_min(sign, 1.0, coeffs)
    scalar = [hamiltonian_min(sign, 1.0, LQCoefficients(0.7, b, 1.3, 0.6))
              for b in b_pi.tolist()]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(got.view(np.int64), np.array(scalar).view(np.int64))


def test_nonpositive_p_rejected():
    coeffs = LQCoefficients(b_q=0.2, b_pi=0.02, d_q=1.0, d_pi=1.0)
    with pytest.raises(ValueError):
        hamiltonian_min("plus", -1.0, coeffs)


def test_control_pair_rejects_negative_components():
    with pytest.raises(ValueError):
        ControlPair(q=-1e-9, pi=0.0)


def test_cone_quadratic_argmin_requires_convexity():
    with pytest.raises(ValueError):
        cone_quadratic_argmin(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    b_q=st.floats(-3, 3), b_pi=st.floats(-3, 3),
    d_q=st.floats(0.05, 4), d_pi=st.floats(0.05, 4),
    P=st.floats(0.01, 50), seed=st.integers(0, 2 ** 31),
)
def test_cone_optimality_never_beaten(b_q, b_pi, d_q, d_pi, P, seed):
    coeffs = LQCoefficients(b_q=b_q, b_pi=b_pi, d_q=d_q, d_pi=d_pi)
    rng = np.random.default_rng(seed)
    probes = rng.uniform(0.0, 5.0, size=(50, 2))
    for sign, s in (("plus", 1.0), ("minus", -1.0)):
        xi = xi_minimizer(sign, coeffs)
        h = hamiltonian_min(sign, P, coeffs)
        assert h <= 1e-12

        def obj(q, pi):
            return (P * (d_q ** 2 * q ** 2 + d_pi ** 2 * pi ** 2)
                    + s * 2.0 * P * (b_q * q + b_pi * pi))

        assert obj(xi.q, xi.pi) == pytest.approx(h, rel=1e-12, abs=1e-12)
        assert np.all(obj(xi.q, xi.pi) <= obj(probes[:, 0], probes[:, 1]) + 1e-9)


def test_h_minus_below_h_plus_for_nonnegative_drift():
    rng = np.random.default_rng(5)
    for _ in range(100):
        coeffs = LQCoefficients(b_q=rng.uniform(0, 2), b_pi=rng.uniform(0, 2),
                                d_q=rng.uniform(0.1, 2), d_pi=rng.uniform(0.1, 2))
        P = rng.uniform(0.1, 5)
        assert hamiltonian_min("minus", P, coeffs) <= \
            hamiltonian_min("plus", P, coeffs) + 1e-15


def test_riccati_pair_closed_forms(paper44_model):
    m_bar = projected_mean_curve(paper44_model.drift)
    p_plus, p_minus = solve_riccati_pair(paper44_model, m_bar)
    grid = p_plus.grid
    p_plus_exact = np.exp(2 * 0.04 * (100.0 - grid))
    a1 = -(0.06 - 0.04) ** 2 / 2 - 0.2 ** 2 / 2
    p_minus_exact = np.exp((2 * 0.04 + 2 * a1) * (100.0 - grid))
    assert np.max(np.abs(p_plus.values - p_plus_exact) / p_plus_exact) <= 1e-6
    assert np.max(np.abs(p_minus.values - p_minus_exact) / p_minus_exact) <= 1e-6


def test_riccati_terminal_condition(paper44_model):
    m_bar = projected_mean_curve(paper44_model.drift)
    p_plus, p_minus = solve_riccati_pair(paper44_model, m_bar)
    assert p_plus(100.0) == 1.0
    assert p_minus(100.0) == 1.0


def test_riccati_positive_and_below_envelope(partial_filter_model):
    model = partial_filter_model
    m_bar = projected_mean_curve(model.drift)
    p_pair = solve_riccati_pair(model, m_bar)
    grid = p_pair[0].grid
    envelope = np.exp(2 * 0.04 * (model.objective.T - grid))
    for curve in p_pair:
        assert curve.values.min() > 0
        assert np.all(curve.values <= envelope * (1 + 1e-9))


def test_linear_march_matches_the_general_march_on_bench_partial_cfg():
    # The oracle marches P' = c P with c from one array Hamiltonian call per
    # segment; the general march evaluates -(2 r P + H*(t, P)) stage by stage.
    # On partial.cfg both cross the r and sigma breakpoints and m = r.
    model = load_config(BENCH_PARTIAL_CFG)[0]
    T, c = model.objective.T, model.claim
    m_bar = projected_mean_curve(model.drift)
    for sign, got in zip(("plus", "minus"), solve_riccati_pair(model, m_bar)):
        def rhs(t, p, r, sigma):
            coeffs = LQCoefficients(b_q=c.a * c.eta, b_pi=m_bar(t) - r,
                                    d_q=c.b, d_pi=sigma)
            return -(2.0 * r * p + hamiltonian_min(sign, p, coeffs))

        ref = integrate_backward(rhs, 1.0, T, 10000,
                                 curves=(model.market.r, model.market.sigma))
        assert np.array_equal(got.grid, ref.grid)
        assert np.max(np.abs(got.values / ref.values - 1.0)) <= 1e-13


def test_riccati_oracle_raises_when_p_crosses_zero(paper44_model):
    # m jumps to r + 40 sigma around t = 50 only, so kappa- is about 1600 at
    # the one stage time t = 50 of the steps on either side (h = -0.01): each
    # step's factor is 1 + h c / 6, about -1.7, and P- turns negative at t = 50.
    r, m0 = 0.04, 0.06
    m_bar = SampledCurve(np.array([0.0, 49.9995, 50.0, 50.0005, 100.0]),
                         np.array([m0, m0, r + 40.0, m0, m0]))
    with pytest.raises(RiccatiSolverError, match="P- not positive"):
        solve_riccati_pair(paper44_model, m_bar)


def _partial(**kw):
    base = dict(theta=0.2, eta=0.2, l=3.0, z=2.0, n0=0.1, T=10.0, d=80.0,
                info_mode="partial")
    return make_model(**{**base, **kw})


ORACLE_CASES = {
    # m crosses r near t = 1.35; r and sigma are piecewise
    "bench-partial-cfg": lambda: load_config(BENCH_PARTIAL_CFG)[0],
    "piecewise-h": lambda: _partial(h=[(0.0, 0.1), (1.3, -0.4)], T=3.0),
    "h-zero": lambda: _partial(h=0.0),
    "m0-below-r": lambda: _partial(m0=0.01, h=0.2, T=5.0),  # kappa+ active
    "m0-zero": lambda: _partial(m0=0.0, h=-0.3),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_riccati_pair_matches_rk4_oracle(case):
    model = ORACLE_CASES[case]()
    T = model.objective.T
    oracle = solve_riccati_pair(model, projected_mean_curve(model.drift))
    grid = oracle[0].grid
    two_r = 2.0 * (model.market.r.antiderivative(T)
                   - model.market.r.antiderivative(grid))
    for k, ref in zip(riccati_pair(model, grid), oracle):
        got = np.exp(two_r - k)  # the closed-form P at the oracle's nodes
        assert np.max(np.abs(got / ref.values - 1.0)) <= 1e-8
        assert grid[-1] == T and got[-1] == 1.0
        assert got.min() > 0.0
        assert np.all(got <= np.exp(two_r) * (1 + 1e-12))


def test_riccati_pair_full_mode_exponentials(paper44_model):
    tau = 100.0 - np.linspace(0.0, 100.0, 10001)
    k_plus, k_minus = riccati_pair(paper44_model, 100.0 - tau)
    p_plus = np.exp(2 * 0.04 * tau - k_plus)
    p_minus = np.exp(2 * 0.04 * tau - k_minus)
    a1 = -(0.06 - 0.04) ** 2 / 2 - 0.2 ** 2 / 2
    p_plus_exact = np.exp(2 * 0.04 * tau)
    p_minus_exact = np.exp((2 * 0.04 + 2 * a1) * tau)
    assert np.max(np.abs(p_plus / p_plus_exact - 1.0)) <= 1e-12
    assert np.max(np.abs(p_minus / p_minus_exact - 1.0)) <= 1e-12
    assert p_plus[-1] == 1.0 and p_minus[-1] == 1.0


def _kappa_integrals_mpmath(model, cuts=()):
    """int_0^T kappa+/- by mpmath quadrature, split at the breakpoints of r,
    sigma and h and at ``cuts`` (where m crosses r)."""
    c, mk, dr = model.claim, model.market, model.drift
    T = model.objective.T
    claim_rate = mpmath.mpf(c.a * c.eta / c.b) ** 2
    points = sorted({0.0, T, *cuts, *(t for curve in (mk.r, mk.sigma, dr.h)
                                      for t in curve.times.tolist() if 0.0 < t < T)})

    def excess(t):
        # m(t) = m0 exp(int_0^t h), with h constant on each piece
        edges = [0.0] + [t_k for t_k in dr.h.times.tolist() if 0.0 < t_k < t] + [t]
        log_growth = mpmath.fsum(mpmath.mpf(float(dr.h(lo))) * (hi - lo)
                                 for lo, hi in zip(edges[:-1], edges[1:]))
        return (mpmath.mpf(dr.m0) * mpmath.exp(log_growth)
                - float(mk.r(float(t)))) / float(mk.sigma(float(t)))

    with mpmath.workdps(40):
        plus = mpmath.quad(lambda t: min(excess(t), 0) ** 2, points)
        minus = mpmath.quad(lambda t: claim_rate + max(excess(t), 0) ** 2, points)
    return float(plus), float(minus)


@pytest.mark.parametrize("h, excess", [(1e-7, 0.0), (1e-8, 0.0), (1e-9, 0.0),
                                       (0.0, 0.0), (1e-9, 1e-8)])
def test_kappa_integral_with_tiny_drift_rate(h, excess):
    # m = M e^{h t}, e0 = M - r: int (m - r)^2 = e0^2 T + 2 e0 M int expm1(h t)
    # + M^2 int expm1(h t)^2.  The last two are O(h T^2) and O(h^2 T^3);
    # formed from terms of size T they lost up to 2e-2 relative here.
    model = make_model(a=1e-9, theta=0.2, eta=0.2, r=0.04, m0=0.04 + excess,
                       h=h, info_mode="partial")
    k_plus, k_minus = riccati_pair(model, 0.0)
    plus, minus = _kappa_integrals_mpmath(model)
    assert k_plus == plus == 0.0
    assert k_minus == pytest.approx(minus, rel=1e-12, abs=0.0)


def test_kappa_integrals_on_bench_partial_cfg():
    model = load_config(BENCH_PARTIAL_CFG)[0]
    k_plus, k_minus = riccati_pair(model, 0.0)
    plus, minus = _kappa_integrals_mpmath(model, cuts=(_BENCH_CROSSING,))
    assert k_plus == pytest.approx(plus, rel=1e-12, abs=0.0)
    assert k_minus == pytest.approx(minus, rel=1e-12, abs=0.0)


def test_riccati_pair_on_an_array_matches_its_float_calls():
    # 0, T, every piece edge of r and sigma, the m = r crossing and points
    # between them: the array call gives the float calls' bits, and T gives
    # exactly (0.0, 0.0).
    model = load_config(BENCH_PARTIAL_CFG)[0]
    T, mk = model.objective.T, model.market
    cut = float(np.log(0.04 / 0.06) / -0.3)  # the crossing as riccati_pair cuts it
    edges = {0.0, T, _BENCH_CROSSING, cut, *mk.r.times.tolist(),
             *mk.sigma.times.tolist()}
    times = np.array(sorted(t for t in edges if t <= T) + [0.37, 2.9, 0.999 * T])
    pair = riccati_pair(model, times)
    for i, t in enumerate(times.tolist()):
        got = riccati_pair(model, t)
        assert all(type(k) is float for k in got)
        assert [k.hex() for k in got] == [float(k[i]).hex() for k in pair]
    assert riccati_pair(model, T) == (0.0, 0.0)
    assert all(k[times == T].tolist() == [0.0] for k in pair)
