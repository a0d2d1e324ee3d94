"""End-to-end acceptance gate.

One test per criterion; each prints a PASS/FAIL line (run pytest with -s to
see them inline).  Statistical checks use fixed seeds throughout, so the suite
is deterministic.  The Monte Carlo frontier criterion is the long pole at
roughly two minutes; everything else is seconds.
"""

import dataclasses
import json

import numpy as np
import pytest

import mvreins as mv
from mvreins.cli import main
from mvreins.filtering import projected_mean_curve
from mvreins.montecarlo import SimConfig, estimate, simulate_physical, zero_strategy

from conftest import make_model
from test_cli import PAPER44_CFG, SCALED_CFG, read_csv


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Riskless vertex
# ---------------------------------------------------------------------------

def test_criterion_1_riskless_vertex(paper44_model, tmp_path):
    d_min = mv.riskless_terminal_wealth(paper44_model)
    ok_value = abs(d_min - 2863.9) <= 0.05

    code = main(["--config", str(PAPER44_CFG), "--out-dir", str(tmp_path),
                 "frontier", "--mode", "full"])
    _, rows = read_csv(tmp_path / "frontier.csv")
    first_d, first_var = float(rows[0][0]), float(rows[0][1])
    ok_cli = code == 0 and abs(first_d - d_min) <= 1e-9 and first_var == 0.0
    _report("criterion-1 riskless-vertex", ok_value and ok_cli,
            f"d_min={d_min:.4f} (target 2863.9 +- 0.05), "
            f"frontier.csv first row variance={first_var}")


# ---------------------------------------------------------------------------
# 2. Compat dual anchor
# ---------------------------------------------------------------------------

def test_criterion_2_compat_dual_anchor(paper44_model):
    closed = mv.gamma_star_full(paper44_model, 10000.0, compat=True)
    gammas = np.linspace(-2000.0, 2000.0, 80001)  # grid step 0.05
    values = np.array([mv.dual_value_full(paper44_model, 10000.0, g, compat=True)
                       for g in gammas])
    grid_arg = gammas[np.argmax(values)]
    ok = abs(closed - (-130.2)) <= 0.5 and abs(grid_arg - (-130.2)) <= 0.5
    _report("criterion-2 compat-dual-anchor", ok,
            f"closed form {closed:.4f}, grid maximizer {grid_arg:.4f} "
            "(target -130.2 +- 0.5)")


# ---------------------------------------------------------------------------
# 3. Riccati equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_riccati_equivalence(paper44_model):
    model = paper44_model
    m_bar = projected_mean_curve(model.drift, model.objective.T)
    sol = mv.solve_riccati_pair(model, m_bar, steps=2500)
    grid = sol.p_plus.grid
    tau = model.objective.T - grid
    a1 = -(0.06 - 0.04) ** 2 / 2.0 - 0.2 ** 2 / 2.0
    err_plus = np.max(np.abs(sol.p_plus.values - np.exp(2 * 0.04 * tau))
                      / np.exp(2 * 0.04 * tau))
    ref_minus = np.exp((2 * 0.04 + 2 * a1) * tau)
    err_minus = np.max(np.abs(sol.p_minus.values - ref_minus) / ref_minus)
    ok = err_plus <= 1e-6 and err_minus <= 1e-6
    _report("criterion-3 riccati-equivalence", ok,
            f"max rel err P+ {err_plus:.2e}, P- {err_minus:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 4. Cone-optimality property suite
# ---------------------------------------------------------------------------

def test_criterion_4_cone_optimality():
    rng = np.random.default_rng(20240)
    worst_gap = -np.inf
    worst_h = -np.inf
    for _ in range(1000):
        coeffs = mv.LQCoefficients(
            b_q=rng.uniform(-3.0, 3.0), b_pi=rng.uniform(-3.0, 3.0),
            d_q=rng.uniform(0.05, 4.0), d_pi=rng.uniform(0.05, 4.0))
        P = rng.uniform(0.01, 20.0)
        probes = rng.uniform(0.0, 4.0, size=(100, 2))
        for sign, s in (("plus", 1.0), ("minus", -1.0)):
            xi = mv.xi_minimizer(sign, P, coeffs)
            h_star = mv.hamiltonian_min(sign, P, coeffs)
            worst_h = max(worst_h, h_star)

            def obj(q, pi):
                return (P * (coeffs.d_q ** 2 * q ** 2 + coeffs.d_pi ** 2 * pi ** 2)
                        + s * 2.0 * P * (coeffs.b_q * q + coeffs.b_pi * pi))

            gap = obj(xi.q, xi.pi) - np.min(obj(probes[:, 0], probes[:, 1]))
            worst_gap = max(worst_gap, float(gap))
    ok = worst_gap <= 1e-9 and worst_h <= 0.0
    _report("criterion-4 cone-optimality", ok,
            f"1000 draws x 100 probes: max gap {worst_gap:.2e} (tol 1e-9), "
            f"max H* {worst_h:.2e} (must be <= 0)")


# ---------------------------------------------------------------------------
# 5. Filter suite
# ---------------------------------------------------------------------------

def test_criterion_5_filter_suite(filter_demo_drift):
    # (a) degenerate drift: identically zero conditional variance
    degenerate = mv.DriftParams(h=0.3, l=0.0, z=0.0, m0=0.06, n0=0.0)
    n_zero = mv.solve_variance(degenerate, 1.0, 10.0, steps=2000)
    ok_a = bool(np.all(n_zero.values == 0.0))

    # (b) steady state of n^2 + 6n - 4 = 0
    n_curve = mv.solve_variance(filter_demo_drift, 1.0, 10.0)
    ok_b = abs(n_curve(10.0) - 0.60555) <= 1e-3

    # (c) pointwise monotonicity in the mean-reversion coefficient
    curves = {}
    for h in (-0.5, 0.0, 0.5):
        drift = mv.DriftParams(h=h, l=3.0, z=2.0, m0=0.06, n0=0.0)
        curves[h] = mv.solve_variance(drift, 1.0, 10.0, steps=4000)
    grid = curves[0.0].grid[1:]
    ok_c = (np.all(curves[-0.5](grid) <= curves[0.0](grid) + 1e-12)
            and np.all(curves[0.0](grid) <= curves[0.5](grid) + 1e-12))

    # (d) Monte Carlo filter consistency over 1e5 hidden-drift paths
    model = make_model(theta=0.2, eta=0.2, l=3.0, z=2.0, T=1.0, d=55.0,
                       info_mode="partial")
    ens = simulate_physical(model, zero_strategy,
                            SimConfig(n_paths=100_000, dt=5e-4, seed=501),
                            workers=2)
    err2 = ens.terminal_drift_error ** 2
    se = err2.std(ddof=1) / np.sqrt(err2.size)
    n_T = n_curve(1.0)
    dev = abs(err2.mean() - n_T)
    ok_d = dev <= 3.0 * se

    ok = ok_a and ok_b and ok_c and ok_d
    _report("criterion-5 filter-suite", ok,
            f"(a) degenerate n==0: {ok_a}; (b) n(10)={n_curve(10.0):.5f}; "
            f"(c) monotone in h: {ok_c}; "
            f"(d) |mean(err^2)-n(T)|={dev:.2e} <= 3SE={3 * se:.2e}")


# ---------------------------------------------------------------------------
# 6. Frontier reduction identity
# ---------------------------------------------------------------------------

def test_criterion_6_frontier_reduction(partial_exact_model):
    model = partial_exact_model
    full_model = dataclasses.replace(model, info_mode="full")
    d = model.objective.d
    sol_p = mv.solve_partial(model)
    gamma_full = mv.gamma_star_full(full_model, d)
    sol_f = mv.compute_solution(full_model)

    # multiplier (after mapping between the two dual conventions)
    err_gamma = abs(sol_p.gamma_star - (d - gamma_full)) / abs(d - gamma_full)

    # frontier, pointwise
    grid = sol_p.d0 + np.array([0.0, 1.0, 50.0, 2000.0, 7000.0])
    front_p = mv.frontier_partial(sol_p.riccati, model, grid)
    front_f = mv.frontier_full(full_model, grid)
    err_front = np.max(np.abs(front_p.variance[1:] - front_f.variance[1:])
                       / front_f.variance[1:])

    # feedback, pointwise on a (t, wealth) grid
    shift = sol_f.target_level
    err_fb = 0.0
    for t in np.linspace(0.0, 99.0, 12):
        for wealth in (10.0, 1000.0, 5000.0, 9000.0, 15000.0):
            u_p = mv.feedback_partial(
                t, wealth, mv.FilterState(t=t, m=0.06, n=0.0), sol_p, model)
            u_f = mv.feedback_full(t, wealth - shift, sol_f, full_model)
            scale = max(1.0, abs(u_f.q), abs(u_f.pi))
            err_fb = max(err_fb, abs(u_p.q - u_f.q) / scale,
                         abs(u_p.pi - u_f.pi) / scale)

    ok = err_gamma <= 1e-9 and err_front <= 1e-9 and err_fb <= 1e-9
    _report("criterion-6 frontier-reduction", ok,
            f"gamma rel err {err_gamma:.2e}, frontier {err_front:.2e}, "
            f"feedback {err_fb:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 7. Monte Carlo frontier validation
# ---------------------------------------------------------------------------

def _mc_frontier_run(model, n_paths=200_000, dt=1e-3, seed=700):
    sol = mv.compute_solution(model)
    strategy = mv.full_feedback_strategy(sol, model)
    cfg = SimConfig(n_paths=n_paths, dt=dt, seed=seed)
    est = estimate(simulate_physical(model, strategy, cfg, workers=4))
    return est


def test_criterion_7_monte_carlo_frontier(scaled_cheap_model,
                                          scaled_noncheap_model):
    # Stated instance (cheap): realized moments match the corrected frontier.
    model = scaled_cheap_model
    d = model.objective.d
    est = _mc_frontier_run(model, seed=700)
    var_corrected = float(mv.frontier_full(model, [d]).variance[0])
    mean_ok = abs(est.mean - d) <= 3.0 * est.se_mean
    var_ok = abs(est.variance - var_corrected) <= 0.05 * var_corrected

    # Noncheap variant: corrected and published constants differ, so the
    # published frontier value must fail the same 5% band (the typo check;
    # on the cheap instance the two constants coincide and cannot separate).
    model_nc = scaled_noncheap_model
    d_nc = model_nc.objective.d
    est_nc = _mc_frontier_run(model_nc, seed=701)
    var_nc_corrected = float(mv.frontier_full(model_nc, [d_nc]).variance[0])
    var_nc_printed = float(
        mv.frontier_full(model_nc, [d_nc], compat=True).variance[0])
    mean_nc_ok = abs(est_nc.mean - d_nc) <= 3.0 * est_nc.se_mean
    var_nc_ok = abs(est_nc.variance - var_nc_corrected) <= 0.05 * var_nc_corrected
    printed_fails = abs(est_nc.variance - var_nc_printed) > 0.05 * var_nc_printed

    ok = mean_ok and var_ok and mean_nc_ok and var_nc_ok and printed_fails
    _report(
        "criterion-7 monte-carlo-frontier", ok,
        f"cheap: |mean-d|={abs(est.mean - d):.3f} (3SE={3 * est.se_mean:.3f}), "
        f"var {est.variance:.1f} vs corrected {var_corrected:.1f}; "
        f"noncheap: var {est_nc.variance:.1f} vs corrected "
        f"{var_nc_corrected:.1f} (within 5%: {var_nc_ok}) vs published "
        f"{var_nc_printed:.1f} (fails 5%: {printed_fails})")


# ---------------------------------------------------------------------------
# 8. HJB / viscosity suite
# ---------------------------------------------------------------------------

def test_criterion_8_hjb_viscosity(scaled_noncheap_model, paper44_model):
    model = scaled_noncheap_model
    sol = mv.compute_solution(model)
    rng = np.random.default_rng(80)

    worst = {"above_curve": 0.0, "below_curve": 0.0}
    for region, sign in (("above_curve", 1.0), ("below_curve", -1.0)):
        for _ in range(200):
            t = rng.uniform(0.2, 4.8)
            xc = float(sol.switching_x(t))
            x = xc + sign * rng.uniform(1.0, 80.0)
            worst[region] = max(worst[region],
                                abs(mv.hjb_residual(t, x, sol, model)))
    residual_ok = max(worst.values()) <= 1e-4

    report = mv.viscosity_check(sol, model, curve_samples=100)
    report44 = mv.viscosity_check(mv.compute_solution(paper44_model),
                                  paper44_model, curve_samples=100)
    ok = (residual_ok and report.passed and report44.passed
          and report.max_branch_gap <= 1e-10
          and report.max_x_gradient <= 1e-6
          and report.max_p2_minus_p1 <= 0.0)
    _report("criterion-8 hjb-viscosity", ok,
            f"interior residual above/below = {worst['above_curve']:.2e}/"
            f"{worst['below_curve']:.2e} (tol 1e-4); curve gap "
            f"{report.max_branch_gap:.1e}, gradient {report.max_x_gradient:.1e}, "
            f"max(P2-P1) {report.max_p2_minus_p1:.2e}; long-horizon instance "
            f"passed: {report44.passed}")


# ---------------------------------------------------------------------------
# 9. PQR cross-check
# ---------------------------------------------------------------------------

def test_criterion_9_pqr_crosscheck(paper44_model):
    sol = mv.compute_solution(paper44_model)
    closed = [sol.p1, sol.q1, sol.r1, sol.p2, sol.q2, sol.r2]
    curves = mv.solve_pqr(paper44_model, sol.d, sol.gamma_star)
    err_pqr = 0.0
    for curve, fn in zip(curves, closed):
        ref = fn(curve.grid)
        err_pqr = max(err_pqr, float(np.max(
            np.abs(curve.values - ref) / np.maximum(1.0, np.abs(ref)))))

    rng = np.random.default_rng(90)
    xs = rng.uniform(-3e4, 3e4, size=100)
    lhs = 0.5 * sol.p2(0.0) * xs ** 2 + sol.q2(0.0) * xs + sol.r2(0.0)
    rhs = 0.5 * np.exp(2 * sol.a1 * sol.T) * \
        (np.exp(sol.r * sol.T) * xs + sol.g1(0.0)) ** 2
    err_sq = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))

    ok = err_pqr <= 1e-6 and err_sq <= 1e-9
    _report("criterion-9 pqr-crosscheck", ok,
            f"ODE vs closed forms rel err {err_pqr:.2e} (tol 1e-6); "
            f"completion-of-square rel err {err_sq:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 10. Reproducibility
# ---------------------------------------------------------------------------

def test_criterion_10_reproducibility(tmp_path):
    outputs = []
    for name, workers in (("run1", "1"), ("run2", "1"), ("run3", "4")):
        out = tmp_path / name
        code = main(["--config", str(SCALED_CFG), "--out-dir", str(out),
                     "simulate", "--paths", "20000", "--dt", "0.005",
                     "--seed", "42", "--workers", workers])
        assert code == 0
        outputs.append((out / "summary.json").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    summary = json.loads(outputs[0])
    _report("criterion-10 reproducibility", ok,
            "summary.json byte-identical across reruns and worker counts "
            f"(mean={summary['mean']:.6f})")
