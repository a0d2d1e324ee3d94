"""Named consistency checks: every closed form validated against an independent route.

Each check pairs an analytic expression with a second computation that does not
share its derivation -- backward ODE integration against exponential closed
forms, scalar maximization against the dual multiplier formula, randomized cone
probes against the constrained minimizers, finite differences against the PDE.
The CLI ``validate`` subcommand prints one PASS/FAIL line per check and maps
any failure to exit code 2.

The ``overrides`` mapping (from the config's ``[overrides]`` section) injects
faulty constants into the closed-form side only, so a wrong value must trip the
cross-checks; it exists to prove the suite can fail.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import conelq, filtering, fullinfo, partialinfo
from .model import (INFO_FULL, ModelParams, riskless_terminal_wealth,
                    riskless_terminal_wealth_ode, validate)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel_err(got, ref) -> float:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def _curve_rel_err(curve, fn) -> float:
    return _rel_err(curve.values, fn(curve.grid))


def _cone_probe_check(rng: np.random.Generator, draws: int = 200,
                      probes: int = 50) -> tuple[bool, str]:
    """Randomized optimality: xi never beaten on the cone, H* never positive."""
    worst_gap = -np.inf
    worst_h = -np.inf
    for _ in range(draws):
        coeffs = conelq.LQCoefficients(
            b_q=rng.uniform(-2.0, 2.0), b_pi=rng.uniform(-2.0, 2.0),
            d_q=rng.uniform(0.1, 3.0), d_pi=rng.uniform(0.1, 3.0),
        )
        P = rng.uniform(0.05, 10.0)
        for sign in ("plus", "minus"):
            s = 1.0 if sign == "plus" else -1.0
            xi = conelq.xi_minimizer(sign, P, coeffs)
            h_min = conelq.hamiltonian_min(sign, P, coeffs)
            worst_h = max(worst_h, h_min)

            def objective(q, pi):
                return (P * (coeffs.d_q ** 2 * q ** 2 + coeffs.d_pi ** 2 * pi ** 2)
                        + s * 2.0 * P * (coeffs.b_q * q + coeffs.b_pi * pi))

            u = rng.uniform(0.0, 3.0, size=(probes, 2))
            gap = objective(xi.q, xi.pi) - np.min(objective(u[:, 0], u[:, 1]))
            worst_gap = max(worst_gap, float(gap))
    ok = worst_gap <= 1e-9 and worst_h <= 0.0
    return ok, f"max optimality gap {worst_gap:.2e}, max H* {worst_h:.2e}"


def _riccati_oracle_check(model: ModelParams, riccati: conelq.RiccatiSolution,
                          steps: int = 10000) -> CheckResult:
    """Closed-form Riccati pair against the backward RK4 oracle, at its nodes.

    The oracle reads the projected drift sampled at its own step count.  log P
    is the integral of 2r - kappa, so the closed form is interpolated in log P
    (exact where kappa is constant); the error is relative to the oracle.
    """
    m_bar = filtering.projected_mean_curve(model.drift, model.objective.T,
                                           samples=steps + 1)
    oracle = conelq.solve_riccati_pair(model, m_bar, steps=steps)
    err = 0.0
    for closed, rk4 in ((riccati.p_plus, oracle.p_plus),
                        (riccati.p_minus, oracle.p_minus)):
        log_closed = np.interp(rk4.grid, closed.grid, np.log(closed.values))
        rel = np.expm1(log_closed - np.log(rk4.values))
        err = max(err, float(np.max(np.abs(rel))))
    return CheckResult("riccati-rk4-oracle", err <= 1e-8,
                       f"closed form vs RK4 ({steps} steps), max rel err {err:.2e}")


def _checks_common(model: ModelParams, rng: np.random.Generator):
    results = []

    report = validate(model)
    results.append(CheckResult("model-invariants", report.ok, str(report)))
    if not report.ok:
        return results

    d_closed = riskless_terminal_wealth(model)
    d_ode = riskless_terminal_wealth_ode(model)
    err = _rel_err(d_ode, d_closed)
    results.append(CheckResult(
        "riskless-wealth-ode", err <= 1e-9,
        f"closed {d_closed:.6f} vs ODE {d_ode:.6f}, rel err {err:.2e}"))

    ok, detail = _cone_probe_check(rng)
    results.append(CheckResult("cone-optimality", ok, detail))
    return results


def _checks_full(model: ModelParams, compat: bool, overrides: dict,
                 rng: np.random.Generator) -> list[CheckResult]:
    results = []
    sol = fullinfo.compute_solution(model, compat=compat)
    if "a1" in overrides:
        sol = dataclasses.replace(sol, a1=float(overrides["a1"]))

    a1_fresh = (-(model.drift.m0 - model.market.r.constant_value()) ** 2
                / (2.0 * model.market.sigma.constant_value() ** 2)
                - model.claim.a ** 2 * model.claim.eta ** 2
                / (2.0 * model.claim.b ** 2))
    err = abs(sol.a1 - a1_fresh)
    results.append(CheckResult(
        "a1-definition", err <= 1e-12 * max(1.0, abs(a1_fresh)),
        f"solution A1 {sol.a1:.6g} vs definition {a1_fresh:.6g}"))

    # Backward Riccati pair against the exponential closed forms (needs the
    # constant-coefficient, positive-excess-return setting of full mode).
    m_bar = filtering.projected_mean_curve(model.drift, model.objective.T)
    riccati = conelq.solve_riccati_pair(model, m_bar)
    r = model.market.r.constant_value()
    T = model.objective.T
    err_p = _curve_rel_err(riccati.p_plus, lambda t: np.exp(2.0 * r * (T - t)))
    results.append(CheckResult(
        "riccati-plus-closed-form", err_p <= 1e-6, f"max rel err {err_p:.2e}"))
    err_m = _curve_rel_err(
        riccati.p_minus, lambda t: np.exp((2.0 * r + 2.0 * sol.a1) * (T - t)))
    results.append(CheckResult(
        "riccati-minus-closed-form", err_m <= 1e-6, f"max rel err {err_m:.2e}"))

    closed = [sol.p1, sol.q1, sol.r1, sol.p2, sol.q2, sol.r2]
    ode_curves = fullinfo.solve_pqr(model, sol.d, sol.gamma_star)
    err_pqr = max(_curve_rel_err(c, fn) for c, fn in zip(ode_curves, closed))
    results.append(CheckResult(
        "pqr-ode-cross-check", err_pqr <= 1e-6, f"max rel err {err_pqr:.2e}"))

    xs = rng.uniform(-2.0, 2.0, size=100) * max(1.0, abs(sol.switching_x(0.0)))
    lhs = 0.5 * sol.p2(0.0) * xs ** 2 + sol.q2(0.0) * xs + sol.r2(0.0)
    rhs = 0.5 * np.exp(2.0 * sol.a1 * T) * (np.exp(r * T) * xs + sol.g1(0.0)) ** 2
    err_sq = _rel_err(lhs, rhs)
    results.append(CheckResult(
        "completion-of-square", err_sq <= 1e-9, f"max rel err {err_sq:.2e}"))

    # Interior PDE residual, normalized by the value scale so the check is
    # meaningful at any wealth magnitude.
    worst = 0.0
    for t in np.linspace(0.05 * T, 0.95 * T, 7):
        xc = float(sol.switching_x(t))
        scale = max(1.0, abs(xc))
        for x in (xc + 0.5 * scale, xc + 2.0 * scale, xc - 0.5 * scale,
                  xc - 2.0 * scale):
            res = fullinfo.hjb_residual(t, x, sol, model)
            v = fullinfo.value_function(t, x, sol)
            worst = max(worst, abs(res) / (1.0 + abs(v)))
    results.append(CheckResult(
        "hjb-interior-residual", worst <= 1e-6,
        f"max normalized residual {worst:.2e}"))

    visc = fullinfo.viscosity_check(sol, model, curve_samples=50)
    results.append(CheckResult(
        "viscosity-switching-curve", visc.passed,
        "; ".join(visc.failures) if visc.failures else
        f"gap {visc.max_branch_gap:.1e}, grad {visc.max_x_gradient:.1e}"))

    d = model.objective.d
    gamma_closed = fullinfo.gamma_star_full(model, d, compat)
    # Independent route: scalar maximization of the assembled dual value.
    span = 10.0 * max(1.0, abs(gamma_closed))
    res = optimize.minimize_scalar(
        lambda g: -fullinfo.dual_value_full(model, d, g, compat),
        bounds=(gamma_closed - span, gamma_closed + span), method="bounded",
        options={"xatol": 1e-8})
    err_g = abs(res.x - gamma_closed) / max(1.0, abs(gamma_closed))
    results.append(CheckResult(
        "dual-argmax", err_g <= 1e-6,
        f"closed form {gamma_closed:.4f} vs maximizer {res.x:.4f}"))

    k = fullinfo.vertex_constant(model, compat)
    curve = fullinfo.frontier_full(model, [k, 1.1 * k, 1.2 * k], compat)
    ok = curve.variance[0] == 0.0 and np.all(np.diff(curve.variance) > 0)
    results.append(CheckResult(
        "frontier-vertex", ok,
        f"variance at vertex {curve.variance[0]:.3e}, increasing beyond"))
    return results


def _checks_partial(model: ModelParams) -> list[CheckResult]:
    results = []
    sol = partialinfo.solve_partial(model)
    T = model.objective.T

    nonneg = sol.riccati.p_plus.values.min() > 0 and sol.riccati.p_minus.values.min() > 0
    results.append(CheckResult(
        "riccati-positive", bool(nonneg),
        f"min P+ {sol.riccati.p_plus.values.min():.3e}, "
        f"min P- {sol.riccati.p_minus.values.min():.3e}"))

    # Backward comparison with the H* = 0 envelope.
    grid = sol.riccati.p_plus.grid
    rate = model.market.r
    envelope = np.exp(2.0 * (rate.antiderivative(T) - rate.antiderivative(grid)))
    ok_env = (np.all(sol.riccati.p_plus.values <= envelope * (1 + 1e-9))
              and np.all(sol.riccati.p_minus.values <= envelope * (1 + 1e-9)))
    results.append(CheckResult(
        "riccati-envelope", bool(ok_env), "P+- <= exp(2 int r) pointwise"))
    results.append(_riccati_oracle_check(model, sol.riccati))

    n_curve = filtering.solve_variance(model.drift, model.market.sigma, T)
    ok_n = n_curve.values.min() >= -1e-12
    results.append(CheckResult(
        "filter-variance-nonnegative", bool(ok_n),
        f"min n(t) = {n_curve.values.min():.3e}"))
    n_refined = filtering.solve_variance(model.drift, model.market.sigma, T,
                                         steps=20000)
    err_n = _rel_err(n_curve(T), n_refined(T))
    results.append(CheckResult(
        "filter-variance-converged", err_n <= 1e-8,
        f"step-halving rel err {err_n:.2e}"))

    d = model.objective.d
    gamma_closed = sol.gamma_star
    span = 10.0 * max(1.0, abs(gamma_closed))
    res = optimize.minimize_scalar(
        lambda g: -partialinfo.dual_value_partial(sol.riccati, model, g),
        bounds=(gamma_closed - span, gamma_closed + span), method="bounded",
        options={"xatol": 1e-8})
    err_g = abs(res.x - gamma_closed) / max(1.0, abs(gamma_closed))
    results.append(CheckResult(
        "dual-argmax", err_g <= 1e-6,
        f"closed form {gamma_closed:.4f} vs maximizer {res.x:.4f}"))

    d0 = sol.d0
    curve = partialinfo.frontier_partial(sol.riccati, model, [d0, 1.1 * d0, 1.2 * d0])
    ok = curve.variance[0] == 0.0 and np.all(np.diff(curve.variance) > 0)
    results.append(CheckResult(
        "frontier-vertex", ok,
        f"variance at vertex {curve.variance[0]:.3e}, increasing beyond"))
    return results


def run_checks(model: ModelParams, compat: bool = False,
               overrides: dict | None = None,
               seed: int = 20240) -> list[CheckResult]:
    """Run the full named-check suite for the given model; deterministic per seed."""
    rng = np.random.default_rng(seed)
    global_results = _checks_common(model, rng)
    if not global_results[0].passed:
        return global_results
    overrides = overrides or {}
    if model.info_mode == INFO_FULL:
        results_mode = _checks_full(model, compat, overrides, rng)
    else:
        results_mode = _checks_partial(model)
    return global_results + results_mode


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"{tag}  {r.name.ljust(width)}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
