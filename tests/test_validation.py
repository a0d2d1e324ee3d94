
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

import mvreins as mv
from mvreins import conelq, frontier, fullinfo, validation
from mvreins.config import load_config
from mvreins.curves import SampledCurve
from mvreins.frontier import dual_value
from mvreins.validation import (_riccati_closed, _riccati_oracle,
                                _riccati_oracle_check, run_checks)

from conftest import make_model
from test_cli import PAPER44_CFG
from test_conelq import BENCH_PARTIAL_CFG
from test_frontier import SOLUTIONS


def test_riccati_oracle_check_catches_a_wrong_pair():
    model = load_config(BENCH_PARTIAL_CFG)[0]
    oracle = _riccati_oracle(model)
    p_plus, p_minus = _riccati_closed(model, oracle[0].grid)
    assert _riccati_oracle_check((p_plus, p_minus), oracle).passed
    result = _riccati_oracle_check((p_plus, p_minus * (1 + 1e-6)), oracle)
    assert result.name == "riccati-rk4-oracle"
    assert not result.passed


def test_riccati_envelope_fails_on_a_scaled_oracle(monkeypatch):
    # Partial validate runs eight checks; the envelope holds the RK4 curves
    # to exp(2 int_t^T r), so curves 1% high (P = 1.01 at T) must fail it.
    model = load_config(BENCH_PARTIAL_CFG)[0]
    solve = conelq.solve_riccati_pair
    monkeypatch.setattr(conelq, "solve_riccati_pair", lambda model, m_bar: tuple(
        SampledCurve(p.grid, 1.01 * p.values) for p in solve(model, m_bar)))
    results = {r.name: r for r in run_checks(model)}
    assert list(results) == [
        "model-invariants", "riskless-wealth-ode", "cone-optimality",
        "riccati-envelope", "riccati-rk4-oracle", "filter-variance-converged",
        "dual-argmax", "frontier-vertex"]
    assert not results["riccati-envelope"].passed


def test_injected_a1_fails_the_pqr_oracle():
    # The pqr oracle integrates with r, A1 and f from the model, so a wrong A1
    # injected into the solution must fail it along with the other A1 checks.
    model = load_config(PAPER44_CFG)[0]
    failed = {r.name for r in run_checks(model, overrides={"a1": -0.05})
              if not r.passed}
    assert failed == {"a1-definition", "riccati-minus-closed-form",
                      "pqr-ode-cross-check", "hjb-interior-residual"}


def test_negative_frontier_vertex_passes_every_check():
    # paper44 with eta = 0.5 and x0 = 1 has its frontier vertex at -213.39;
    # the frontier-vertex probes must lie above a vertex of either sign.
    results = run_checks(make_model(eta=0.5, x0=1.0))
    assert [r.name for r in results if not r.passed] == []


def test_tiny_rate_passes_every_check():
    # paper44 at r = 1e-10: e^{rT} - 1 cancelled in the riskless wealth and
    # in g1, failing riskless-wealth-ode (1.85e-9) and hjb-interior-residual.
    results = run_checks(make_model(r=1e-10, T=100.0, d=200.0))
    assert [r.name for r in results if not r.passed] == []


@pytest.mark.parametrize("T", [0.001, 0.01, 0.1])
def test_short_horizon_passes_every_check(T):
    # Judged against 1 + |V|, the HJB residual read 1.74e-4 at T = 0.01, and
    # an absolute time step of 1e-4 left [0, T] at T = 0.001.
    results = run_checks(make_model(T=T, d=60.0))
    assert [r.name for r in results if not r.passed] == []


def _long_full_model(**params):
    """A full model with d = 1.5 times its riskless terminal wealth."""
    base = make_model(**params)
    return make_model(**params, d=1.5 * mv.riskless_terminal_wealth(base))


# Large |A1| T, and a large f over T = 100: 2000 RK4 steps under-resolve R2
# (max rel err 5.9e-4 and 3.4e-2) though the closed forms are right.
STEEP = dict(r=0.04, m0=0.05, sigma=0.3, eta=0.6, theta=0.8, b=0.25, T=60.0)
LARGE_F = dict(r=0.06, m0=0.6, sigma=0.9, eta=0.95, theta=1.4, a=0.2, b=1.7,
               T=100.0)


def _pqr_check(model):
    """The P, Q, R check of ``model`` and the step-halving spread it states."""
    check = next(r for r in run_checks(model) if r.name == "pqr-ode-cross-check")
    return check, float(check.detail.rsplit(" ", 1)[1])


@pytest.mark.parametrize("params", [STEEP, LARGE_F], ids=["steep", "large-f"])
def test_pqr_oracle_resolves_long_valid_models(params):
    results = run_checks(_long_full_model(**params))
    assert all(r.passed for r in results), validation.format_table(results)


def test_pqr_oracle_states_its_steps_and_spread():
    # 2000 and 4000 steps already agree to 1.9e-9 on paper44
    check, spread = _pqr_check(load_config(PAPER44_CFG)[0])
    assert check.passed
    assert "RK4 4000 steps, step-halving spread" in check.detail
    assert spread <= 1e-7


def test_pqr_oracle_fails_a_switching_curve_off_by_1e7(monkeypatch):
    # The check is judged against ten step-halving spreads (1.9e-9 on
    # paper44), so a drift term r (d - gamma*) off by 1e-7 relative in the
    # gap form's x_c, an error of 2e-7 in Q and R, must fail it.
    model = load_config(PAPER44_CFG)[0]
    sol = fullinfo.compute_solution(model)

    def switching_x(t, sol, model):
        c, r = model.claim, model.market.r.constant_value()
        tau = model.objective.T - np.asarray(t, dtype=float)
        w = (c.a * c.theta - c.a * c.eta
             + sol.target_level * r * (1.0 + 1e-7))
        return -(w * np.expm1(r * tau) / r) * np.exp(-r * tau)

    assert validation._pqr_oracle_check(model, sol).passed
    monkeypatch.setattr(fullinfo, "switching_x", switching_x)
    check = validation._pqr_oracle_check(model, sol)
    assert check.name == "pqr-ode-cross-check"
    assert not check.passed


def test_pqr_oracle_doubling_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(validation, "_PQR_MAX_STEPS", 8000)
    check, spread = _pqr_check(_long_full_model(**STEEP))
    assert "RK4 8000 steps" in check.detail
    assert spread > 1e-7
    assert not check.passed


class _Counted:
    """A function that counts its evaluations."""

    def __init__(self, f):
        self.f, self.evals = f, 0

    def __call__(self, x):
        self.evals += 1
        return self.f(x)


def _kinked(x, k=2.5):
    """Concave, piecewise quadratic, with its kink and maximum at k."""
    return min(3.0 * (x - k), -2.0 * (x - k)) - (x - k) ** 2


# (function, bracket, maximizer): a concave quadratic; the kink of the
# dual's branch switch; a maximum at either end; and, at gamma* of the
# tiny-premium dual (-7e19), a function whose values are one double across
# a relative 1e-8 band around its maximizer.
GOLDEN_CASES = [
    (lambda x: -(x - 3.7) ** 2, (-10.0, 10.0), 3.7),
    (_kinked, (-20.0, 20.0), 2.5),
    (lambda x: x, (0.0, 1.0), 1.0),
    (lambda x: -x, (-5.0, 5.0), -5.0),
    (lambda x: 5e23 - 1e-16 * (x + 7e19) ** 2, (-7.7e20, 6.3e20), -7e19),
]


@pytest.mark.parametrize("f, bracket, x_max", GOLDEN_CASES,
                         ids=["quadratic", "kink", "upper-end", "lower-end",
                              "flat-1e19"])
def test_golden_section_finds_known_maximizers(f, bracket, x_max):
    counted = _Counted(f)
    x = validation._golden_section_max(counted, *bracket)
    assert x is not None
    assert counted.evals <= validation._GOLDEN_MAX_EVALS
    # within the stop's half-width of the maximizer
    assert abs(x - x_max) <= validation._SQRT_EPS * abs(x) + validation._XATOL / 3.0


def test_golden_section_gives_up_at_its_cap():
    # A maximum at 0 from the bracket 1e30 +- 1e31: near 0 the stop is the
    # absolute 2 xatol / 3, about 190 evaluations away, so the search ends
    # at the cap and the check fails.
    counted = _Counted(lambda x: -x * x)
    assert validation._golden_section_max(counted, -9e30, 1.1e31) is None
    assert counted.evals == validation._GOLDEN_MAX_EVALS
    check = validation._dual_argmax_check(lambda g: -g * g, 1e30)
    assert not check.passed
    assert check.detail == "no maximizer within 100 evaluations"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sol=SOLUTIONS)
def test_dual_argmax_passes_on_generated_solutions(sol):
    check = validation._dual_argmax_check(lambda g: dual_value(sol, g),
                                          sol.gamma_star)
    assert check.passed, check.detail


def test_scaled_gamma_star_fails_only_dual_argmax(monkeypatch):
    # gamma* 1e-5 off: the frontier and the dual read no gamma*, so the
    # golden-section maximizer is the one route that sees it.
    model = load_config(BENCH_PARTIAL_CFG)[0]
    exact = frontier.gamma_star
    monkeypatch.setattr(frontier, "gamma_star",
                        lambda *args: exact(*args) * (1.0 + 1e-5))
    failed = [r.name for r in run_checks(model) if not r.passed]
    assert failed == ["dual-argmax"]


def test_frontier_anchored_at_d0_fails_frontier_vertex(monkeypatch):
    # Under the compat constant paper44's vertex (2732.41) lies below d0
    # (2863.90): a frontier anchored at d0 refuses the vertex as a target.
    model = load_config(PAPER44_CFG)[0]
    anchored = lambda sol, d_grid: frontier.efficient_frontier(
        dataclasses.replace(sol, vertex=sol.d0), d_grid)
    monkeypatch.setattr(validation, "efficient_frontier", anchored)
    failed = [r.name for r in run_checks(model, compat=True) if not r.passed]
    assert failed == ["frontier-vertex"]
