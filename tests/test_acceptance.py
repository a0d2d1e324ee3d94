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
from mvreins.validation import cone_probe_check

from conftest import cone_feedback, make_model
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
    sol = mv.compute_solution(paper44_model, compat=True)
    closed = sol.gamma_star
    gammas = np.linspace(-2000.0, 2000.0, 80001)  # grid step 0.05
    values = mv.dual_value(sol, gammas)
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
    m_bar = projected_mean_curve(model.drift)
    p_plus, p_minus = mv.solve_riccati_pair(model, m_bar)
    grid = p_plus.grid
    tau = model.objective.T - grid
    a1 = -(0.06 - 0.04) ** 2 / 2.0 - 0.2 ** 2 / 2.0
    err_plus = np.max(np.abs(p_plus.values - np.exp(2 * 0.04 * tau))
                      / np.exp(2 * 0.04 * tau))
    ref_minus = np.exp((2 * 0.04 + 2 * a1) * tau)
    err_minus = np.max(np.abs(p_minus.values - ref_minus) / ref_minus)
    ok = err_plus <= 1e-6 and err_minus <= 1e-6
    _report("criterion-3 riccati-equivalence", ok,
            f"max rel err P+ {err_plus:.2e}, P- {err_minus:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 4. Cone-optimality property suite
# ---------------------------------------------------------------------------

def test_criterion_4_cone_optimality():
    ok, worst_gap, worst_h = cone_probe_check(np.random.default_rng(20240),
                                              draws=1000, probes=100)
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

def test_criterion_6_frontier_reduction(paper44_model):
    # paper44 (theta = 0.3, eta = 0.2) and its partial twin: a known drift
    # makes the observation filtration carry full information.
    full_model = paper44_model
    model = dataclasses.replace(full_model, info_mode="partial")
    sol_p = mv.solve_partial(model)
    sol_f = mv.compute_solution(full_model)
    # multiplier
    err_gamma = abs(sol_p.gamma_star - sol_f.gamma_star) / abs(sol_f.gamma_star)

    # frontier, pointwise
    grid = sol_p.d0 + np.array([0.0, 1.0, 50.0, 2000.0, 7000.0])
    front_p = mv.efficient_frontier(sol_p, grid)
    front_f = mv.efficient_frontier(sol_f, grid)
    err_front = np.max(np.abs(front_p.variance[1:] - front_f.variance[1:])
                       / front_f.variance[1:])

    # feedback of the two strategy factories on a (t, wealth) grid, and the
    # full one against the cone minimizer at the closed-form switching curve
    strategy_p = mv.partial_feedback_strategy(sol_p, model)
    strategy_f = mv.full_feedback_strategy(sol_f, full_model)
    wealth = np.array([10.0, 1000.0, 5000.0, 9000.0, 15000.0])
    err_fb = err_ref = 0.0
    for t in np.linspace(0.0, 99.0, 12):
        u_p = strategy_p(t, wealth, np.full(wealth.size, 0.06))
        u_f = strategy_f(t, wealth, 0.06)
        curve = (float(mv.fullinfo.switching_x(t, sol_f, full_model))
                 + sol_f.target_level)
        for k, x in enumerate(wealth):
            ref = cone_feedback(full_model, t, x - curve, 0.06)
            for up, uf, r in zip(u_p, u_f, ref):
                scale = max(1.0, abs(r))
                err_fb = max(err_fb, abs(up[k] - uf[k]) / scale)
                err_ref = max(err_ref, abs(uf[k] - r) / scale)

    ok = (err_gamma <= 1e-12 and err_front <= 1e-12 and err_fb <= 1e-9
          and err_ref <= 1e-9)
    _report("criterion-6 frontier-reduction", ok,
            f"gamma rel err {err_gamma:.2e}, frontier {err_front:.2e} (tol "
            f"1e-12); feedback partial vs full {err_fb:.2e}, full vs cone "
            f"minimizer {err_ref:.2e} (tol 1e-9)")


def test_criterion_6_partial_frontier_on_a_full_config(tmp_path):
    # paper44 has theta != eta: frontier --mode partial runs on it and draws
    # the full-information frontier.
    out_p, out_f = tmp_path / "partial", tmp_path / "full"
    args = ["--config", str(PAPER44_CFG), "--out-dir"]
    assert main(args + [str(out_p), "frontier", "--mode", "partial"]) == 0
    assert main(args + [str(out_f), "frontier", "--mode", "full"]) == 0
    _, rows_p = read_csv(out_p / "frontier.csv")
    _, rows_f = read_csv(out_f / "frontier.csv")
    assert [r[:2] for r in rows_p] == [r[:2] for r in rows_f]
    assert {r[3] for r in rows_p} == {"exact"}


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
    var_corrected = float(mv.efficient_frontier(mv.compute_solution(model), [d])
                          .variance[0])
    mean_ok = abs(est.mean - d) <= 3.0 * est.se_mean
    var_ok = abs(est.variance - var_corrected) <= 0.05 * var_corrected

    # Noncheap variant: corrected and published constants differ, so the
    # published frontier value must fail the same 5% band (the typo check;
    # on the cheap instance the two constants coincide and cannot separate).
    model_nc = scaled_noncheap_model
    d_nc = model_nc.objective.d
    est_nc = _mc_frontier_run(model_nc, seed=701)
    var_nc_corrected = float(
        mv.efficient_frontier(mv.compute_solution(model_nc), [d_nc]).variance[0])
    var_nc_printed = float(mv.efficient_frontier(
        mv.compute_solution(model_nc, compat=True), [d_nc]).variance[0])
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
            xc = float(mv.fullinfo.switching_x(t, sol, model))
            x = xc + sign * rng.uniform(1.0, 80.0)
            worst[region] = max(worst[region],
                                abs(mv.hjb_residual(t, x, sol, model)[0]))
    residual_ok = max(worst.values()) <= 1e-4

    report = mv.viscosity_check(model, curve_samples=100)
    report44 = mv.viscosity_check(paper44_model, curve_samples=100)
    ok = (residual_ok and report.passed and report44.passed
          and report.max_p2_minus_p1 <= 0.0)
    _report("criterion-8 hjb-viscosity", ok,
            f"interior residual above/below = {worst['above_curve']:.2e}/"
            f"{worst['below_curve']:.2e} (tol 1e-4); "
            f"max(P- - P+) {report.max_p2_minus_p1:.2e}; long-horizon instance "
            f"passed: {report44.passed}")


# ---------------------------------------------------------------------------
# 9. PQR cross-check
# ---------------------------------------------------------------------------

def test_criterion_9_pqr_crosscheck(paper44_model):
    # The RK4 (P, Q, R) of the paper's two branches against the gap form:
    # each branch 1/2 P x^2 + Q x + R is 1/2 P+/-(x - x_c)^2.
    model = paper44_model
    sol = mv.compute_solution(model)
    curves = mv.solve_pqr(model, sol.d, sol.gamma_star)
    grid = curves[0].grid
    xc = mv.fullinfo.switching_x(grid, sol, model)
    closed = [part for p in mv.conelq.p_pair(model, grid)
              for part in (p, -p * xc, 0.5 * p * xc * xc)]
    err_pqr = 0.0
    for curve, ref in zip(curves, closed):
        err_pqr = max(err_pqr, float(np.max(
            np.abs(curve.values - ref) / np.maximum(1.0, np.abs(ref)))))

    # The gap-form V at t = 0 below the curve against the paper's completed
    # square 1/2 e^{2 A1 T} (e^{rT} x + g1(0))^2, g1(0) = f (e^{rT} - 1)/r.
    rng = np.random.default_rng(90)
    xs = float(mv.fullinfo.switching_x(0.0, sol, model)) - rng.uniform(0.0, 3e4, 100)
    r, T = 0.04, 100.0
    a1 = -(0.06 - r) ** 2 / 2.0 - 0.2 ** 2 / 2.0
    g1 = (0.1 + (sol.d - sol.gamma_star) * r) * np.expm1(r * T) / r
    square = 0.5 * np.exp(2.0 * a1 * T) * (np.exp(r * T) * xs + g1) ** 2
    err_sq = float(np.max(np.abs(mv.value_function(0.0, xs, sol, model) - square)
                          / square))

    ok = err_pqr <= 1e-6 and err_sq <= 1e-9
    _report("criterion-9 pqr-crosscheck", ok,
            f"ODE vs gap form rel err {err_pqr:.2e} (tol 1e-6); "
            f"gap form vs completed square rel err {err_sq:.2e} (tol 1e-9)")


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
