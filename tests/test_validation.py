
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

import mvreins as mv
from mvreins import conelq, filtering, frontier, fullinfo, validation
from mvreins.config import load_config
from mvreins.curves import SampledCurve
from mvreins.frontier import dual_value
from mvreins.model import riskless_integrals
from mvreins.validation import run_checks

from conftest import make_model
from test_cli import FILTER_CFG, KNOWNDRIFT_CFG, PAPER44_CFG
from test_conelq import BENCH_PARTIAL_CFG
from test_frontier import SOLUTIONS


# The fault matrix: each row names a config, a fault and the checks that
# must FAIL on it, and only those.  A fault patches one production route
# with monkeypatch, and may return keyword arguments of run_checks that
# replace the config's model or add to it.

def _negative_rate(monkeypatch, model):
    return dict(model=dataclasses.replace(
        model, market=mv.MarketParams(r=-0.01, sigma=model.market.sigma)))


def _scaled(monkeypatch, module, name, factor):
    exact = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: exact(*args) * factor)


def _high_riskless_wealth(monkeypatch, model):
    # The record's d0 1e-8 high; the ODE oracle reads the model.
    _scaled(monkeypatch, frontier, "riskless_terminal_wealth", 1.0 + 1e-8)


def _swapped_xi(monkeypatch, model):
    exact = conelq.xi_minimizer
    monkeypatch.setattr(conelq, "xi_minimizer", lambda sign, coeffs: exact(
        "minus" if sign == "plus" else "plus", coeffs))


def _high_p_minus(monkeypatch, model):
    # P- 1e-6 high at the oracle's nodes.
    exact = conelq.p_pair
    monkeypatch.setattr(conelq, "p_pair", lambda model, t: (
        exact(model, t)[0], exact(model, t)[1] * (1 + 1e-6)))


def _record_k_minus(change):
    """The record's k- changed by ``change``; P+/-(t) read the model."""
    def fault(monkeypatch, model):
        exact = frontier.riccati_pair
        monkeypatch.setattr(frontier, "riccati_pair", lambda model, t: (
            exact(model, t)[0], change(exact(model, t)[1])))

    return fault


def _scaled_rk4_oracle(monkeypatch, model):
    # RK4 curves 1% high (P = 1.01 at T).
    solve = conelq.solve_riccati_pair
    monkeypatch.setattr(conelq, "solve_riccati_pair", lambda *args: tuple(
        SampledCurve(p.grid, 1.01 * p.values) for p in solve(*args)))


def _injected_a1(monkeypatch, model):
    # The override replaces the record's k-; the P, Q, R oracle and the HJB
    # residual read P+/-(t) from the model.
    return dict(overrides={"a1": -0.05})


def _curve_drift_term(monkeypatch, model):
    # The r (d - gamma*) term of x_c, (d - gamma*) expm1(-int_t^T r), 1e-7
    # high: 2e-7 in Q and R, against ten step-halving spreads (1.9e-9 on
    # paper44).
    def switching_x(t, sol, model):
        c = model.claim
        exponent, tail = riskless_integrals(model, t)
        return (sol.target_level * np.expm1(-exponent) * (1.0 + 1e-7)
                - c.a * (c.theta - c.eta) * tail)

    monkeypatch.setattr(fullinfo, "switching_x", switching_x)


def _value_drifting_in_t(monkeypatch, model):
    exact = fullinfo.value_function
    monkeypatch.setattr(fullinfo, "value_function", lambda t, x, sol, model: exact(
        t, x, sol, model) * (1.0 + 1e-6 * np.asarray(t)))


def _k_minus_tail(monkeypatch, model):
    # int_t^T kappa- 1e-5 high at t > 0: P-(t) moves by about 1e-6, and its
    # time derivative by 1e-5 of kappa- P-.
    exact = conelq.riccati_pair

    def scaled(model, t):
        k_plus, k_minus = exact(model, t)
        return k_plus, np.where(np.asarray(t) > 0.0, k_minus * (1 + 1e-5), k_minus)

    monkeypatch.setattr(conelq, "riccati_pair", scaled)


def _swapped_pair(monkeypatch, model):
    # P+ and P- trade places: the curvature jump at the curve turns positive.
    exact = conelq.riccati_pair
    monkeypatch.setattr(conelq, "riccati_pair", lambda model, t: exact(model, t)[::-1])


def _coarse_variance(monkeypatch, model):
    # 1000 steps by default: n(T) has relaxed to the stationary root, the
    # early nodes have not.
    exact = filtering.solve_variance
    monkeypatch.setattr(filtering, "solve_variance",
                        lambda drift, sigma, T, steps=1000: exact(drift, sigma, T, steps))


def _high_gamma_star(monkeypatch, model):
    # The frontier and the dual read no gamma*, so the golden-section
    # maximizer is the one route that sees it.
    _scaled(monkeypatch, frontier, "gamma_star", 1.0 + 1e-5)


def _frontier_at_d0(monkeypatch, model):
    # Under the compat constant paper44's vertex (2732.41) lies below d0
    # (2863.90): a frontier anchored at d0 refuses the vertex as a target.
    monkeypatch.setattr(validation, "efficient_frontier", lambda sol, d_grid: (
        frontier.efficient_frontier(dataclasses.replace(sol, vertex=sol.d0), d_grid)))
    return dict(compat=True)


# (id, config, fault, the checks that FAIL)
FAULTS = [
    ("negative-rate", PAPER44_CFG, _negative_rate, {"model-invariants"}),
    ("riskless-wealth-1e-8", PAPER44_CFG, _high_riskless_wealth,
     {"riskless-wealth-ode"}),
    ("xi-sign-swapped", PAPER44_CFG, _swapped_xi, {"cone-optimality"}),
    ("p-minus-1e-6", BENCH_PARTIAL_CFG, _high_p_minus, {"riccati-rk4-oracle"}),
    ("record-k-minus-plus-1e-6", BENCH_PARTIAL_CFG,
     _record_k_minus(lambda k: k + 1e-6), {"riccati-rk4-oracle"}),
    ("rk4-oracle-1pc-paper44", PAPER44_CFG, _scaled_rk4_oracle,
     {"riccati-rk4-oracle"}),
    ("rk4-oracle-1pc-partial", BENCH_PARTIAL_CFG, _scaled_rk4_oracle,
     {"riccati-rk4-oracle"}),
    ("record-k-minus-1e-10", PAPER44_CFG,
     _record_k_minus(lambda k: k * (1.0 + 1e-10)), {"a1-definition"}),
    ("injected-a1", PAPER44_CFG, _injected_a1,
     {"a1-definition", "riccati-rk4-oracle"}),
    ("switching-curve-1e-7", PAPER44_CFG, _curve_drift_term,
     {"pqr-ode-cross-check"}),
    ("value-1e-6-t", KNOWNDRIFT_CFG, _value_drifting_in_t,
     {"hjb-interior-residual"}),
    ("k-minus-tail-1e-5", KNOWNDRIFT_CFG, _k_minus_tail,
     {"riccati-rk4-oracle", "hjb-interior-residual"}),
    ("pair-swapped", PAPER44_CFG, _swapped_pair,
     {"viscosity-switching-curve", "riccati-rk4-oracle", "pqr-ode-cross-check",
      "hjb-interior-residual"}),
    ("variance-1000-steps", BENCH_PARTIAL_CFG, _coarse_variance,
     {"filter-variance-converged"}),
    ("gamma-star-1e-5", BENCH_PARTIAL_CFG, _high_gamma_star, {"dual-argmax"}),
    ("frontier-at-d0", PAPER44_CFG, _frontier_at_d0, {"frontier-vertex"}),
]


@pytest.mark.parametrize("config, fault, failed", [row[1:] for row in FAULTS],
                         ids=[row[0] for row in FAULTS])
def test_fault_fails_its_checks(monkeypatch, config, fault, failed):
    model = load_config(config)[0]
    kwargs = {"model": model, **(fault(monkeypatch, model) or {})}
    assert {r.name for r in run_checks(**kwargs) if not r.passed} == failed


@pytest.mark.parametrize("config, names", [
    (PAPER44_CFG, ["model-invariants", "riskless-wealth-ode", "cone-optimality",
                   "riccati-rk4-oracle", "a1-definition", "pqr-ode-cross-check",
                   "hjb-interior-residual", "viscosity-switching-curve",
                   "dual-argmax", "frontier-vertex"]),
    (KNOWNDRIFT_CFG, ["model-invariants", "riskless-wealth-ode", "cone-optimality",
                      "riccati-rk4-oracle", "hjb-interior-residual", "dual-argmax",
                      "frontier-vertex"]),
    (BENCH_PARTIAL_CFG, ["model-invariants", "riskless-wealth-ode",
                         "cone-optimality", "riccati-rk4-oracle",
                         "filter-variance-converged", "dual-argmax",
                         "frontier-vertex"]),
    (FILTER_CFG, ["model-invariants", "riskless-wealth-ode", "cone-optimality",
                  "riccati-rk4-oracle", "filter-variance-converged",
                  "dual-argmax", "frontier-vertex"]),
], ids=["paper44", "knowndrift", "partial", "filterdemo"])
def test_fault_table_covers_every_check(config, names):
    # Every check the config runs passes on it, and has a row in FAULTS where
    # it is the only FAIL; viscosity-switching-curve, whose one fault fails
    # three other checks as well, has a row where it FAILs.
    results = run_checks(load_config(config)[0])
    assert [r.name for r in results] == names
    assert all(r.passed for r in results), validation.format_table(results)
    alone = {name for *_, failed in FAULTS if len(failed) == 1 for name in failed}
    assert set(names) - alone <= {"viscosity-switching-curve"}
    assert set(names) <= set().union(*(failed for *_, failed in FAULTS))


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
