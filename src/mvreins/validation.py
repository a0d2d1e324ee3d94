"""Named consistency checks: every closed form validated against an independent route.

Each check pairs an analytic expression with a second computation that does not
share its derivation -- backward ODE integration against exponential closed
forms, a golden-section search of the dual against the multiplier formula,
randomized cone probes against the constrained minimizers, finite differences
against the PDE.  Each check reads what production computes, the solution
record or the closed form, and each can fail: ``tests/test_validation.py``
holds a fault table with a row for every check name.
The CLI ``validate`` subcommand prints one PASS/FAIL line per check and maps
any failure to exit code 2.

:func:`run_checks` runs one check list in both information modes; a model
property, never the mode, decides which checks apply:

* every model: ``model-invariants``, ``riskless-wealth-ode`` (the record's
  d0 against an RK4 solve of the riskless wealth ODE), ``cone-optimality``,
  ``riccati-rk4-oracle`` (one backward RK4 solve of the Riccati pair,
  :func:`_riccati_check`, against P+/-(t) = exp(2 int_t^T r - int_t^T
  kappa+/-) at its nodes and against the record's k+/-), ``dual-argmax``
  and ``frontier-vertex``;
* a known drift: ``hjb-interior-residual``;
* the paper's setting (constant r and sigma, h = 0, a known drift and
  m0 > r): ``a1-definition``, ``pqr-ode-cross-check`` and
  ``viscosity-switching-curve``, where the paper's own coefficients, A1 for
  k- and the RK4 P, Q, R of its two branches for the gap form, are the
  independent route;
* a live filter: ``filter-variance-converged`` (the 10 000-step variance
  curve against the 20 000-step one at every node of the coarser curve).

The ``overrides`` mapping (from the config's ``[overrides]`` section) injects
faulty constants into the solution side only, so a wrong value must trip the
cross-checks; it exists to prove the suite can fail.  ``a1`` replaces the
record's k- with -2 a1 T.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import conelq, filtering, fullinfo, partialinfo
from .frontier import (InfeasibleTargetError, Solution, dual_value,
                       efficient_frontier)
from .model import INFO_FULL, ModelParams, riskless_terminal_wealth_ode, validate


# Cap on the P, Q, R oracle's step doubling: 2000 * 2^6.  Past it the
# spread of a long, fast-growing solve is mostly rounding, not resolution.
_PQR_MAX_STEPS = 128_000
# Bounds on the P, Q, R check's tolerance of ten step-halving spreads: the
# floor keeps a spread at rounding level (6e-15 on scaled.cfg) from failing
# exact agreement, and the cap keeps an unresolved oracle from passing.
_PQR_TOL = (1e-10, 1e-6)
# Cap on the Riccati oracle's step doubling: 2500 * 2^7.
_RICCATI_MAX_STEPS = 320_000
# Golden-section fraction (3 - sqrt 5) / 2 and the search's stopping terms.
# From a bracket 20 max(1, |gamma*|) wide, the relative stop takes about 45
# evaluations; the cap ends a search whose maximizer is far from gamma*.
_GOLDEN = 0.5 * (3.0 - 5.0 ** 0.5)
_SQRT_EPS = float(np.finfo(float).eps) ** 0.5
_XATOL = 1e-8
_GOLDEN_MAX_EVALS = 100


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel_err(got, ref) -> float:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def cone_probe_check(rng: np.random.Generator, draws: int,
                     probes: int) -> tuple[bool, float, float]:
    """Randomized optimality: xi never beaten on the cone, H* never positive.

    Each draw takes b_q, b_pi ~ U(-3, 3), d_q, d_pi ~ U(0.05, 4), P ~ U(0.01, 20)
    and ``probes`` points of [0, 4]^2, shared by both signs.  Returns whether
    both hold, the largest optimality gap and the largest H*.
    """
    worst_gap = -np.inf
    worst_h = -np.inf
    for _ in range(draws):
        coeffs = conelq.LQCoefficients(
            b_q=rng.uniform(-3.0, 3.0), b_pi=rng.uniform(-3.0, 3.0),
            d_q=rng.uniform(0.05, 4.0), d_pi=rng.uniform(0.05, 4.0))
        P = rng.uniform(0.01, 20.0)
        u = rng.uniform(0.0, 4.0, size=(probes, 2))
        for sign, s in (("plus", 1.0), ("minus", -1.0)):
            xi = conelq.xi_minimizer(sign, coeffs)
            worst_h = max(worst_h, conelq.hamiltonian_min(sign, P, coeffs))

            def objective(q, pi):
                return (P * (coeffs.d_q ** 2 * q ** 2 + coeffs.d_pi ** 2 * pi ** 2)
                        + s * 2.0 * P * (coeffs.b_q * q + coeffs.b_pi * pi))

            gap = objective(xi.q, xi.pi) - np.min(objective(u[:, 0], u[:, 1]))
            worst_gap = max(worst_gap, float(gap))
    return worst_gap <= 1e-9 and worst_h <= 0.0, worst_gap, worst_h


def _golden_section_max(f, lo: float, hi: float):
    """Maximizer of a unimodal ``f`` on [lo, hi] by golden-section search
    (Kiefer 1953), or None past ``_GOLDEN_MAX_EVALS`` evaluations of ``f``.

    Each step drops the end beyond the lower of two interior points at the
    golden ratios and reuses the other point's value.  It stops as Brent's
    bounded method does, once hi - lo <= 2 (sqrt(eps) |mid| + xatol / 3)
    with xatol = 1e-8, and returns the midpoint: a tolerance relative to the
    midpoint ends even where one ulp exceeds xatol.
    """
    a, b = lo, hi
    c, d = a + _GOLDEN * (b - a), b - _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while b - a > 2.0 * (_SQRT_EPS * abs(0.5 * (a + b)) + _XATOL / 3.0):
        if evals == _GOLDEN_MAX_EVALS:
            return None
        if fc >= fd:
            b, d, fd = d, c, fc
            c = a + _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = b - _GOLDEN * (b - a)
            fd = f(d)
        evals += 1
    return 0.5 * (a + b)


def _dual_argmax_check(dual, gamma_closed: float) -> CheckResult:
    """Closed-form gamma* against a golden-section maximization of the dual
    value on gamma* +- 10 max(1, |gamma*|)."""
    span = 10.0 * max(1.0, abs(gamma_closed))
    g = _golden_section_max(dual, gamma_closed - span, gamma_closed + span)
    if g is None:
        return CheckResult("dual-argmax", False,
                           f"no maximizer within {_GOLDEN_MAX_EVALS} evaluations")
    err_g = abs(g - gamma_closed) / max(1.0, abs(gamma_closed))
    return CheckResult("dual-argmax", err_g <= 1e-6,
                       f"closed form {gamma_closed:.4f} vs maximizer {g:.4f}")


def _frontier_vertex_check(sol) -> CheckResult:
    """Zero variance at sol.vertex, increasing beyond it, at any vertex sign;
    a frontier that refuses its own vertex as a target fails."""
    vertex = sol.vertex
    step = 0.1 * max(1.0, abs(vertex))
    try:
        curve = efficient_frontier(sol, [vertex, vertex + step, vertex + 2.0 * step])
    except InfeasibleTargetError as exc:
        return CheckResult("frontier-vertex", False, str(exc))
    ok = curve.variance[0] == 0.0 and np.all(np.diff(curve.variance) > 0)
    return CheckResult("frontier-vertex", ok,
                       f"variance at vertex {curve.variance[0]:.3e}, increasing beyond")


def _doubled(solve, steps: int, cap: int, target: float, spread):
    """``solve(steps)`` at doubling steps until ``spread(coarse, fine)`` is at
    most ``target`` or the finer solve takes ``cap`` steps; returns the finer
    solve, its steps and the last spread."""
    fine = solve(steps)
    while True:
        coarse, steps = fine, 2 * steps
        fine = solve(steps)
        gap = spread(coarse, fine)
        if gap <= target or steps >= cap:
            return fine, steps, gap


def _riccati_check(model: ModelParams, sol: Solution) -> CheckResult:
    """The closed-form Riccati pair (P+, P-) and the record's P+/-(0) =
    exp(2 int_0^T r - k+/-), which gamma* and the frontier read, against a
    backward RK4 solve on the projected drift, at its nodes; the error,
    relative to the oracle, is the expm1 of the difference of the logs.

    The oracle's steps double from 2500 until log P+/-(0) moves by at most
    1e-9: RK4's error in log P grows like the integral of |2r - kappa| times
    h^4, so a steep pair (k- of a few hundred) needs far more steps than
    paper44."""
    m_bar = filtering.projected_mean_curve(model.drift)
    oracle, steps, _ = _doubled(
        lambda n: conelq.solve_riccati_pair(model, m_bar, n), 2500,
        _RICCATI_MAX_STEPS, 1e-9, lambda coarse, fine: max(
            abs(float(np.log(f.values[0] / c.values[0]))) for c, f in zip(coarse, fine)))
    grid = oracle[0].grid
    two_r = 2.0 * float(model.market.r.antiderivative(model.objective.T))
    err = 0.0
    for p, k, rk4 in zip(conelq.p_pair(model, grid),
                         (sol.kappa_plus, sol.kappa_minus), oracle):
        log_rk4 = np.log(rk4.values)
        err = max(err, float(np.max(np.abs(np.expm1(np.log(p) - log_rk4)))),
                  abs(float(np.expm1(two_r - k - log_rk4[0]))))
    return CheckResult("riccati-rk4-oracle", err <= 1e-8,
                       f"closed form vs RK4 ({steps} steps), max rel err {err:.2e}")


def _pqr_oracle_check(model: ModelParams, sol: Solution) -> CheckResult:
    """The gap form against the backward RK4 oracle of the paper's P, Q, R,
    at its nodes: each branch 1/2 P_i x^2 + Q_i x + R_i must be the perfect
    square 1/2 P+/-(x - x_c)^2, so (P_i, Q_i, R_i) = (P, -P x_c, 1/2 P x_c^2)
    with P = P+ for the first branch and P- for the second.

    The oracle starts at 2000 steps and doubles them until the step-halving
    spread, this check's error of the coarser solve against the finer one
    at the coarser nodes, is at most 1e-7, or the finer solve reaches
    ``_PQR_MAX_STEPS``.  The finer solve is compared with the gap form and
    must meet it within ten spreads, clipped to [1e-10, 1e-6]: an error the
    oracle cannot explain fails, down to 1e-8 on paper44.  The detail
    states the steps and the spread.
    """
    fine, steps, spread = _doubled(
        lambda n: fullinfo.solve_pqr(model, sol.d, sol.gamma_star, n), 2000,
        _PQR_MAX_STEPS, 1e-7, lambda coarse, fine: max(
            _rel_err(c.values, f.values[::2]) for c, f in zip(coarse, fine)))
    grid = fine[0].grid
    xc = fullinfo.switching_x(grid, sol, model)
    closed = [part for p in conelq.p_pair(model, grid)
              for part in (p, -p * xc, 0.5 * p * xc * xc)]
    err = max(_rel_err(c.values, ref) for c, ref in zip(fine, closed))
    tol = min(max(10.0 * spread, _PQR_TOL[0]), _PQR_TOL[1])
    return CheckResult(
        "pqr-ode-cross-check", err <= tol,
        f"max rel err {err:.2e}, RK4 {steps} steps, "
        f"step-halving spread {spread:.2e}")


def _hjb_check(model: ModelParams, sol: Solution) -> CheckResult:
    """Interior PDE residual at 7 times (less those whose stencil leaves its
    piece of [0, T]) and 4 offsets from the switching curve, beyond its
    rounding floor, normalized by the sum of its four terms' magnitudes so
    the check is meaningful at any horizon and wealth scale."""
    T = model.objective.T
    ts = np.linspace(0.05 * T, 0.95 * T, 7)
    ts = ts[fullinfo.stencil_fits(ts, model)]
    xc = fullinfo.switching_x(ts, sol, model)
    scale = np.maximum(1.0, np.abs(xc))[:, None]
    x = xc[:, None] + np.array([0.5, 2.0, -0.5, -2.0]) * scale
    res, magnitude, rounding = fullinfo.hjb_residual(np.repeat(ts, 4), x.ravel(),
                                                     sol, model)
    excess = np.maximum(np.abs(res) - rounding, 0.0)
    worst = float(np.max(np.divide(excess, magnitude, out=np.zeros_like(excess),
                                   where=excess > 0.0), initial=0.0))
    return CheckResult("hjb-interior-residual", worst <= 1e-6,
                       f"max normalized residual {worst:.2e} at {res.size} points")


def run_checks(model: ModelParams, compat: bool = False,
               overrides: dict | None = None) -> list[CheckResult]:
    """Run the named-check suite for the given model; deterministic.

    One list for both modes, gated by model properties (module docstring).
    The randomized cone probes draw from a generator with the fixed seed
    20240.  An injected ``a1`` replaces the record's k- in the Riccati, A1,
    P, Q, R and HJB checks; of those, only ``riccati-rk4-oracle`` and
    ``a1-definition`` read k-.  ``riskless-wealth-ode``, ``dual-argmax`` and
    ``frontier-vertex`` read the solution, never an injected constant.
    """
    report = validate(model)
    results = [CheckResult("model-invariants", report.ok, str(report))]
    if not report.ok:
        return results

    if model.info_mode == INFO_FULL:
        sol = fullinfo.compute_solution(model, compat=compat)
    else:
        sol = partialinfo.solve_partial(model)
    d_ode = riskless_terminal_wealth_ode(model)
    err = _rel_err(d_ode, sol.d0)
    results.append(CheckResult(
        "riskless-wealth-ode", err <= 1e-9,
        f"closed {sol.d0:.6f} vs ODE {d_ode:.6f}, rel err {err:.2e}"))
    ok, gap, h_max = cone_probe_check(np.random.default_rng(20240), draws=200,
                                      probes=50)
    results.append(CheckResult("cone-optimality", ok,
                               f"max optimality gap {gap:.2e}, max H* {h_max:.2e}"))

    checked = sol
    if overrides and "a1" in overrides:
        checked = dataclasses.replace(
            sol, kappa_minus=-2.0 * float(overrides["a1"]) * model.objective.T)
    paper, known = fullinfo.in_paper_setting(model), model.drift.is_degenerate()
    T = model.objective.T
    results.append(_riccati_check(model, checked))
    if paper:
        a1_sol, a1_paper = -checked.kappa_minus / (2.0 * T), fullinfo._a1(model)
        results += [CheckResult(
            "a1-definition", abs(a1_sol - a1_paper) <= 1e-12 * max(1.0, abs(a1_paper)),
            f"solution -k-/(2T) {a1_sol:.6g} vs A1 {a1_paper:.6g}"),
            _pqr_oracle_check(model, checked)]
    if known:
        results.append(_hjb_check(model, checked))
    if paper:
        visc = fullinfo.viscosity_check(model, curve_samples=50)
        results.append(CheckResult(
            "viscosity-switching-curve", visc.passed, "; ".join(visc.failures)
            or f"max(P- - P+) {visc.max_p2_minus_p1:.2e}"))
    if not known:  # solve_variance itself raises on n(t) < -1e-12
        n_curve = filtering.solve_variance(model.drift, model.market.sigma, T)
        n_refined = filtering.solve_variance(model.drift, model.market.sigma, T,
                                             steps=20000)
        err_n = _rel_err(n_curve.values, n_refined(n_curve.grid))
        results.append(CheckResult("filter-variance-converged", err_n <= 1e-8,
                                   f"step-halving max rel err {err_n:.2e}"))
    return results + [_dual_argmax_check(lambda g: dual_value(sol, g), sol.gamma_star),
                      _frontier_vertex_check(sol)]


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"{tag}  {r.name.ljust(width)}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
