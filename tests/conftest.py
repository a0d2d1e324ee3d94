import numpy as np
import pytest

import mvreins as mv


def make_model(*, theta=0.3, eta=0.2, r=0.04, sigma=1.0, h=0.0, l=0.0, z=0.0,
               m0=0.06, n0=0.0, x0=50.0, T=100.0, d=10000.0, a=1.0, b=1.0,
               info_mode="full") -> mv.ModelParams:
    return mv.ModelParams(
        claim=mv.ClaimParams(a=a, b=b, theta=theta, eta=eta),
        market=mv.MarketParams(r=r, sigma=sigma),
        drift=mv.DriftParams(h=h, l=l, z=z, m0=m0, n0=n0),
        objective=mv.Objective(x0=x0, T=T, d=d),
        info_mode=info_mode,
    )


@pytest.fixture(scope="session")
def paper44_model():
    """Long-horizon full-information worked example (noncheap reinsurance)."""
    return make_model()


@pytest.fixture(scope="session")
def scaled_cheap_model():
    """Short-horizon cheap instance, d = 1.2 * riskless terminal wealth."""
    d_min = 50.0 * np.exp(0.2)
    return make_model(theta=0.2, eta=0.2, T=5.0, d=1.2 * d_min)


@pytest.fixture(scope="session")
def scaled_noncheap_model():
    """Short-horizon noncheap instance (corrected vs published constant differ)."""
    base = make_model(theta=0.3, eta=0.2, T=5.0, d=100.0)
    d_min = mv.riskless_terminal_wealth(base)
    return make_model(theta=0.3, eta=0.2, T=5.0, d=1.2 * d_min)


@pytest.fixture(scope="session")
def partial_exact_model():
    """Partial information with degenerate drift: reduces to full information."""
    return make_model(theta=0.2, eta=0.2, info_mode="partial")


@pytest.fixture(scope="session")
def partial_premium_model():
    """Partial information with theta != eta, known drift m0 = 0.08, and r and
    sigma that jump inside T = 5; d = 1.2 * riskless terminal wealth."""
    kw = dict(theta=0.3, eta=0.2, r=[(0.0, 0.04), (2.0, 0.05)],
              sigma=[(0.0, 1.0), (3.0, 1.2)], m0=0.08, T=5.0,
              info_mode="partial")
    base = make_model(**kw, d=100.0)
    return make_model(**kw, d=1.2 * mv.riskless_terminal_wealth(base))


def cone_feedback(model, t, gap, m):
    """(q, pi) = xi_minimizer(sign of gap, coefficients at t) |gap| at one
    point: the closed-form minimizer that the cone-optimality check
    certifies, as the reference for the vectorized strategies."""
    c, mk = model.claim, model.market
    coeffs = mv.LQCoefficients(b_q=c.a * c.eta, b_pi=m - mk.r(t), d_q=c.b,
                               d_pi=mk.sigma(t))
    xi = mv.xi_minimizer("plus" if gap >= 0 else "minus", coeffs)
    return xi.q * abs(gap), xi.pi * abs(gap)


@pytest.fixture(scope="session")
def partial_filter_model():
    """Partial information with genuinely uncertain drift (projected reduction)."""
    return make_model(theta=0.2, eta=0.2, l=3.0, z=2.0, T=10.0, d=80.0,
                      info_mode="partial")


@pytest.fixture(scope="session")
def filter_demo_drift():
    return mv.DriftParams(h=0.0, l=3.0, z=2.0, m0=0.06, n0=0.0)
