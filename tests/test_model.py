import mpmath
import numpy as np
import pytest

import mvreins as mv
from mvreins.model import riskless_terminal_wealth_ode

from conftest import make_model


def test_paper44_parameters_validate_ok(paper44_model):
    report = mv.validate(paper44_model)
    assert report.ok
    assert report.violations == ()


def test_zero_volatility_rejected():
    m = make_model(sigma=0.0)
    report = mv.validate(m)
    assert not report.ok
    assert any("sigma" in v for v in report.violations)


def test_full_mode_requires_degenerate_drift():
    m = make_model(l=1.0)
    report = mv.validate(m)
    assert not report.ok
    assert any("degenerate drift" in v for v in report.violations)


@pytest.mark.parametrize("kw", [
    dict(m0=0.03),
    dict(r=[(0.0, 0.04), (50.0, 0.05)], sigma=[(0.0, 1.0), (60.0, 1.2)]),
    dict(h=[(0.0, -0.3), (20.0, 0.1)], m0=-0.5),
], ids=["m0-below-r", "piecewise-market", "piecewise-h"])
def test_full_mode_accepts_any_known_drift(kw):
    assert mv.validate(make_model(**kw)).ok


def test_validation_is_deterministic(paper44_model):
    assert mv.validate(paper44_model) == mv.validate(paper44_model)


def test_riskless_wealth_cheap_case():
    m = make_model(theta=0.2, eta=0.2)
    assert mv.riskless_terminal_wealth(m) == pytest.approx(50.0 * np.exp(4.0),
                                                           rel=1e-14)


def test_riskless_wealth_paper44_anchor(paper44_model):
    assert mv.riskless_terminal_wealth(paper44_model) == pytest.approx(2863.9,
                                                                       abs=0.05)


def test_riskless_wealth_small_rate_limit():
    # r -> 0: terminal wealth tends to x0 + a (theta - eta) T
    m = make_model(r=1e-6, T=10.0)
    limit = 50.0 + 1.0 * (0.3 - 0.2) * 10.0
    assert mv.riskless_terminal_wealth(m) == pytest.approx(limit, rel=1e-4)


@pytest.mark.parametrize("r", [1e-10, 1e-7])
def test_riskless_wealth_at_a_tiny_rate_meets_mpmath(r):
    # x0 e^{rT} + a (theta - eta) (e^{rT} - 1)/r: formed with exp(rT) - 1,
    # the second term lost up to 1.85e-9 relative at r = 1e-10.
    m = make_model(r=r, T=100.0, d=200.0)
    with mpmath.workdps(40):
        rt = mpmath.mpf(r) * 100
        premium = mpmath.mpf(0.3) - mpmath.mpf(0.2)
        exact = float(50 * mpmath.exp(rt) + premium * mpmath.expm1(rt) / r)
    assert mv.riskless_terminal_wealth(m) == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_riskless_wealth_matches_ode(paper44_model):
    closed = mv.riskless_terminal_wealth(paper44_model)
    ode = riskless_terminal_wealth_ode(paper44_model)
    assert abs(ode - closed) / abs(closed) <= 1e-9


def test_riskless_wealth_piecewise_rate_matches_ode():
    m = make_model(r=[(0.0, 0.03), (40.0, 0.05), (70.0, 0.02)],
                   info_mode="partial", theta=0.2, eta=0.2)
    closed = mv.riskless_terminal_wealth(m)
    ode = riskless_terminal_wealth_ode(m)
    assert abs(ode - closed) / abs(closed) <= 1e-9
    # cheap case: reduces to pure riskless growth with the exact rate integral
    growth = np.exp(m.market.r.integral(0.0, m.objective.T))
    assert closed == pytest.approx(50.0 * growth, rel=1e-12)


def test_discount_growth_inverse():
    # at theta = eta the riskless level of a unit target is the discount
    m = make_model(theta=0.2, eta=0.2)
    growth = np.exp(m.market.r.integral(30.0, m.objective.T))
    assert mv.riskless_level(m, 30.0, 1.0) * growth == \
        pytest.approx(1.0, rel=1e-15)


def test_riskless_level_runs_the_riskless_wealth_back(partial_premium_model):
    # Piecewise r and theta != eta: S(0) at the riskless terminal wealth is
    # x0, and S(T) is the target itself.
    m = partial_premium_model
    d0 = mv.riskless_terminal_wealth(m)
    assert mv.riskless_level(m, 0.0, d0) == pytest.approx(m.objective.x0,
                                                         rel=1e-12)
    for target in (0.0, -3.5, 73.25, d0, m.objective.d):
        assert mv.riskless_level(m, m.objective.T, target) == target


def test_riskless_level_at_cheap_reinsurance_is_the_discounted_target():
    m = make_model(r=[(0.0, 0.03), (40.0, 0.05), (70.0, 0.02)], theta=0.2,
                   eta=0.2, info_mode="partial")
    for t in (0.0, 12.5, 40.0, 55.0, 99.0, 100.0):
        discount = float(np.exp(-m.market.r.integral(t, m.objective.T)))
        assert mv.riskless_level(m, t, 8000.0) == 8000.0 * discount


def test_riskless_level_matches_mpmath_at_a_tiny_rate():
    # S(t) = target e^{-r tau} + a (theta - eta) expm1(-r tau)/r: the premium
    # integral is formed with expm1, so r = 1e-10 does not cancel it.
    r, T, t, target = 1e-10, 100.0, 30.0, 200.0
    m = make_model(r=r, T=T, d=target)
    with mpmath.workdps(40):
        tau = mpmath.mpf(T - t)
        premium = mpmath.mpf(0.3) - mpmath.mpf(0.2)
        exact = float(target * mpmath.exp(-r * tau)
                      + premium * mpmath.expm1(-r * tau) / r)
    assert mv.riskless_level(m, t, target) == pytest.approx(exact, rel=1e-13,
                                                            abs=0.0)
