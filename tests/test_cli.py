import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvreins import fullinfo
from mvreins.cli import UsageError, _write_csv, main
from mvreins.config import load_config
from mvreins.filtering import solve_variance
from mvreins.frontier import dual_value, efficient_frontier
from mvreins.odekernel import RngStream, gaussian_increments

REPO = Path(__file__).resolve().parents[1]
PAPER44_CFG = REPO / "configs" / "paper44.cfg"
FILTER_CFG = REPO / "configs" / "filterdemo.cfg"
SCALED_CFG = REPO / "configs" / "scaled.cfg"
PARTIAL_CFG = REPO / "bench" / "configs" / "partial.cfg"
KNOWNDRIFT_CFG = REPO / "configs" / "knowndrift.cfg"
# filterdemo with a stiff prior: the simulation's 1000-step variance solve
# undershoots below zero
STIFF_PRIOR = (FILTER_CFG, "\nn0 = 0.0\n", "\nn0 = 170\n")
# paper44 with a target mean below its frontier vertex 2863.90
LOW_TARGET = (PAPER44_CFG, "\nd = 10000.0\n", "\nd = 2000.0\n")


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_validate_paper44_passes(capsys):
    code = main(["--config", str(PAPER44_CFG), "validate"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "10/10 checks passed" in out


def test_validate_knowndrift_passes(capsys):
    # Full information off the paper's setting: piecewise r and sigma, m
    # crossing r and theta != eta; the paper's A1, P, Q, R and viscosity
    # checks do not apply.
    assert main(["--config", str(KNOWNDRIFT_CFG), "validate"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[1] for line in out.splitlines()[:-1]] == [
        "model-invariants", "riskless-wealth-ode", "cone-optimality",
        "riccati-rk4-oracle", "hjb-interior-residual", "dual-argmax",
        "frontier-vertex"]
    assert "7/7 checks passed" in out


def test_validate_fails_a_stiff_prior(tmp_path, capsys):
    # filterdemo with n0 = 1000: n(T) has relaxed to the stationary root at
    # 10 000 steps, but the early nodes are off by 3e-2, and simulate on this
    # config ends in a non-finite state.
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(FILTER_CFG.read_text().replace("\nn0 = 0.0\n", "\nn0 = 1000\n"))
    assert main(["--config", str(cfg), "validate"]) == 2
    out = capsys.readouterr().out
    assert [line.split()[1] for line in out.splitlines()[:-1]
            if line.startswith("FAIL")] == ["filter-variance-converged"]
    assert "6/7 checks passed" in out


def test_simulate_knowndrift_meets_the_frontier(tmp_path):
    # h != 0 takes the engine's array-m branch.  Mean within 4 SE of d,
    # variance within 5% of the frontier (criterion 7's band).
    assert main(["--config", str(KNOWNDRIFT_CFG), "--out-dir", str(tmp_path),
                 "simulate", "--paths", "20000", "--dt", "0.01", "--seed", "1"]) == 0
    s = json.loads((tmp_path / "summary.json").read_text())
    assert s["n_flagged"] == 0
    assert abs(s["mean"] - s["analytic_mean_target"]) <= 4.0 * s["se_mean"]
    assert abs(s["variance"] / s["analytic_variance"] - 1.0) <= 0.05


@pytest.mark.parametrize("args", [["validate"], ["frontier"], ["value-surface"],
                                  ["dual-curve"], ["simulate", "--paths", "100"]])
def test_compat_needs_a_constant_rate(tmp_path, capsys, args):
    out = tmp_path / "out"
    code = main(["--config", str(KNOWNDRIFT_CFG), "--out-dir", str(out),
                 "--compat-paper-formulas"] + args)
    assert code == 1
    assert capsys.readouterr().err == (
        "error: --compat-paper-formulas applies only to the full-information "
        "solver, with a constant r\n")
    assert not out.exists()


def test_validate_injected_wrong_a1_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(PAPER44_CFG.read_text() + "\n[overrides]\na1 = -0.5\n")
    code = main(["--config", str(cfg), "validate"])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL" in out
    assert "a1-definition" in out


def test_frontier_full_vertex_row(tmp_path):
    code = main(["--config", str(PAPER44_CFG), "--out-dir", str(tmp_path),
                 "frontier", "--mode", "full"])
    assert code == 0
    header, rows = read_csv(tmp_path / "frontier.csv")
    assert header == ["d", "variance", "std_dev", "mode"]
    assert abs(float(rows[0][0]) - 2863.9) <= 0.05
    assert float(rows[0][1]) == 0.0
    assert rows[0][3] == "full"


def test_frontier_idempotent(tmp_path):
    args = ["--config", str(PAPER44_CFG), "--out-dir", str(tmp_path),
            "frontier", "--mode", "full"]
    assert main(args) == 0
    first = (tmp_path / "frontier.csv").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "frontier.csv").read_bytes() == first


def test_frontier_partial_mode_labels(tmp_path):
    code = main(["--config", str(FILTER_CFG), "--out-dir", str(tmp_path),
                 "frontier"])
    assert code == 0
    _, rows = read_csv(tmp_path / "frontier.csv")
    assert rows[0][3] == "projected_drift"


def test_frontier_partial_exact_label_and_full_crossover(tmp_path):
    cfg = tmp_path / "exact.cfg"
    cfg.write_text(FILTER_CFG.read_text()
                   .replace("l = 3.0", "l = 0.0").replace("z = 2.0", "z = 0.0"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", str(cfg), "--out-dir", str(out_a), "frontier"]) == 0
    _, rows = read_csv(out_a / "frontier.csv")
    assert rows[0][3] == "exact"
    # degenerate drift: the full-information solver applies to the same config
    assert main(["--config", str(cfg), "--out-dir", str(out_b),
                 "frontier", "--mode", "full"]) == 0
    _, rows_full = read_csv(out_b / "frontier.csv")
    assert rows_full[0][0] == rows[0][0]
    assert float(rows_full[0][1]) == float(rows[0][1]) == 0.0


def test_filter_csv_variance_column(tmp_path):
    code = main(["--config", str(FILTER_CFG), "--out-dir", str(tmp_path),
                 "filter", "--steps", "1000"])
    assert code == 0
    header, rows = read_csv(tmp_path / "filter.csv")
    assert header == ["t", "m", "n"]
    t_last, _, n_last = map(float, rows[-1])
    assert t_last == 10.0
    assert abs(n_last - 0.60555) <= 1e-3
    ns = np.array([float(r[2]) for r in rows])
    assert np.all(ns >= 0.0)


@pytest.mark.parametrize("cfg", [FILTER_CFG, PARTIAL_CFG],
                         ids=["filterdemo", "piecewise-sigma"])
def test_filter_mean_column_is_the_euler_filter(tmp_path, cfg):
    """m in filter.csv is m (1 + h dt) + (l + n/sigma) dWbar at t_k = k dt,
    with the seeded increments and n from the default variance solve."""
    steps, seed = 400, 3
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "filter",
                 "--steps", str(steps), "--seed", str(seed)]) == 0
    model, _ = load_config(cfg)
    drift, sigma, T = model.drift, model.market.sigma, model.objective.T
    dt = T / steps
    n = solve_variance(drift, sigma, T)
    incr = gaussian_increments(RngStream(seed), steps, dt)
    expected = [drift.m0]
    for k in range(steps):
        t, m = k * dt, expected[-1]
        expected.append(m * (1.0 + drift.h(t) * dt)
                        + (drift.l(t) + n(t) / sigma(t)) * incr[k])
    _, rows = read_csv(tmp_path / "filter.csv")
    assert [float(row[1]) for row in rows] == expected


def test_filter_idempotent(tmp_path):
    args = ["--config", str(FILTER_CFG), "--out-dir", str(tmp_path), "filter"]
    assert main(args) == 0
    first = (tmp_path / "filter.csv").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "filter.csv").read_bytes() == first


def test_value_surface(tmp_path):
    code = main(["--config", str(PAPER44_CFG), "--out-dir", str(tmp_path),
                 "value-surface", "--nt", "9", "--nx", "9"])
    assert code == 0
    header, rows = read_csv(tmp_path / "value_surface.csv")
    assert header == ["t", "x", "V", "region"]
    regions = {r[3] for r in rows}
    assert regions <= {"above_curve", "below_curve", "on_curve"}
    assert "above_curve" in regions and "below_curve" in regions
    assert all(float(r[2]) >= 0.0 for r in rows)


def test_dual_curve_peak_at_gamma_star(tmp_path):
    args = ["--config", str(PAPER44_CFG), "--out-dir", str(tmp_path),
            "--compat-paper-formulas", "dual-curve", "--points", "2001"]
    assert main(args) == 0
    _, rows = read_csv(tmp_path / "dual_curve.csv")
    gammas = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    assert abs(gammas[np.argmax(values)] - (-130.2)) <= 1.0
    first = (tmp_path / "dual_curve.csv").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "dual_curve.csv").read_bytes() == first


def reference_csv(header, rows):
    """The CSV text, built one row at a time from the repr of each float."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else repr(float(v)) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("compat", [False, True], ids=["default", "compat"])
def test_dual_curve_bytes(tmp_path, compat):
    # gamma from -1000 to 9000 crosses the branch flip at d - vertex ~ 7136
    flags = ["--compat-paper-formulas"] if compat else []
    assert main(["--config", str(PAPER44_CFG), "--out-dir", str(tmp_path), *flags,
                 "dual-curve", "--gamma-min=-1000", "--gamma-max", "9000",
                 "--points", "301"]) == 0
    model, _ = load_config(PAPER44_CFG)
    sol = fullinfo.compute_solution(model, compat=compat)
    rows = [(g, dual_value(sol, float(g)))
            for g in np.linspace(-1000.0, 9000.0, 301)]
    assert (tmp_path / "dual_curve.csv").read_text() == \
        reference_csv(["gamma", "dual_value"], rows)


def test_frontier_bytes(tmp_path):
    assert main(["--config", str(PAPER44_CFG), "--out-dir", str(tmp_path),
                 "frontier", "--mode", "full", "--points", "51"]) == 0
    model, _ = load_config(PAPER44_CFG)
    sol = fullinfo.compute_solution(model)
    curve = efficient_frontier(sol, np.linspace(sol.vertex, model.objective.d, 51))
    rows = [(d, v, s, "full")
            for d, v, s in zip(curve.d, curve.variance, curve.std_dev)]
    assert (tmp_path / "frontier.csv").read_text() == \
        reference_csv(["d", "variance", "std_dev", "mode"], rows)


def test_filter_bytes(tmp_path):
    steps, seed = 300, 4
    assert main(["--config", str(PARTIAL_CFG), "--out-dir", str(tmp_path), "filter",
                 "--steps", str(steps), "--seed", str(seed)]) == 0
    model, _ = load_config(PARTIAL_CFG)
    drift, sigma, T = model.drift, model.market.sigma, model.objective.T
    dt = T / steps
    n = solve_variance(drift, sigma, T)
    incr = gaussian_increments(RngStream(seed), steps, dt)
    rows, m = [], drift.m0
    for k in range(steps + 1):
        t = k * dt
        rows.append((t, m, n(t)))
        if k < steps:
            m = m * (1.0 + drift.h(t) * dt) + (drift.l(t) + n(t) / sigma(t)) * incr[k]
    assert (tmp_path / "filter.csv").read_text() == \
        reference_csv(["t", "m", "n"], rows)


def test_value_surface_bytes(tmp_path):
    assert main(["--config", str(PAPER44_CFG), "--out-dir", str(tmp_path),
                 "value-surface", "--nt", "6", "--nx", "7"]) == 0
    model, _ = load_config(PAPER44_CFG)
    sol = fullinfo.compute_solution(model)
    ts = np.linspace(0.0, model.objective.T, 6)
    low = min(float(fullinfo.switching_x(t, sol, model)) for t in ts)
    xs = np.linspace(2.0 * low, -low, 7)
    rows = [(t, x, v, fullinfo.region(t, x, sol, model).value)
            for t in ts for x, v in zip(xs, fullinfo.value_function(t, xs, sol, model))]
    assert {row[3] for row in rows} == {"above_curve", "below_curve", "on_curve"}
    assert (tmp_path / "value_surface.csv").read_text() == \
        reference_csv(["t", "x", "V", "region"], rows)


def _negative_vertex_cfg(tmp_path, d):
    """paper44 with eta = 0.5 and x0 = 1 (frontier vertex -213.39) and target d."""
    cfg = tmp_path / "negative-vertex.cfg"
    cfg.write_text(PAPER44_CFG.read_text().replace("\neta = 0.2\n", "\neta = 0.5\n")
                   .replace("\nx0 = 50.0\n", "\nx0 = 1.0\n")
                   .replace("\nd = 10000.0\n", f"\nd = {d}\n"))
    return cfg


def test_value_surface_default_range_spans_a_curve_above_zero(tmp_path):
    # At d = -200 the switching curve lies at or above 0: the default x range
    # still reaches either side of it.
    cfg = _negative_vertex_cfg(tmp_path, -200.0)
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path),
                 "value-surface", "--nt", "3", "--nx", "4"]) == 0
    model, _ = load_config(cfg)
    sol = fullinfo.compute_solution(model)
    x_curve = fullinfo.switching_x(np.linspace(0.0, 100.0, 3), sol, model)
    assert x_curve.min() >= 0.0 and x_curve.max() > 0.0
    _, rows = read_csv(tmp_path / "value_surface.csv")
    xs = sorted({float(r[1]) for r in rows})
    spread = x_curve.max()
    assert xs[0] == x_curve.min() - spread and xs[-1] == x_curve.max() + spread
    assert {r[3] for r in rows} >= {"above_curve", "below_curve"}


def test_frontier_default_range_above_a_negative_vertex(tmp_path):
    # d = -213.39 sits 0.0026 above the vertex -213.3926; the default d-max is
    # vertex + 0.5 |vertex|, not 1.5 vertex, which lies below a negative one.
    cfg = _negative_vertex_cfg(tmp_path, -213.39)
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path),
                 "frontier", "--mode", "full", "--points", "5"]) == 0
    model, _ = load_config(cfg)
    vertex = fullinfo.compute_solution(model).vertex
    _, rows = read_csv(tmp_path / "frontier.csv")
    assert float(rows[0][0]) == vertex
    assert float(rows[-1][0]) == vertex + 0.5 * abs(vertex)


def test_csv_names_first_non_finite_cell_in_row_order(tmp_path):
    path = tmp_path / "cells.csv"
    columns = [np.array([1.0, 2.0, 3.0, 4.0]), ["a", "b", "c", "d"],
               np.array([1.0, 2.0, 3.0, np.nan]), np.array([1.0, np.inf, 3.0, 4.0]),
               np.array([1.0, -np.inf, 3.0, 4.0])]
    with pytest.raises(UsageError) as err:
        _write_csv(path, ["t", "label", "u", "v", "w"], columns)
    assert str(err.value) == ("cells.csv: v = inf is not finite; "
                              "narrow the argument range")
    assert not path.exists()


def test_value_surface_idempotent(tmp_path):
    args = ["--config", str(PAPER44_CFG), "--out-dir", str(tmp_path),
            "value-surface", "--nt", "5", "--nx", "5"]
    assert main(args) == 0
    first = (tmp_path / "value_surface.csv").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "value_surface.csv").read_bytes() == first


def test_simulate_reproducible_across_workers(tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w4"
    for out, workers in ((out1, "1"), (out2, "4")):
        code = main(["--config", str(SCALED_CFG), "--out-dir", str(out),
                     "simulate", "--paths", "8000", "--dt", "0.01",
                     "--seed", "7", "--workers", workers])
        assert code == 0
    b1 = (out1 / "summary.json").read_bytes()
    b2 = (out2 / "summary.json").read_bytes()
    assert b1 == b2
    summary = json.loads(b1)
    assert summary["n_flagged"] == 0
    assert abs(summary["mean"] - summary["analytic_mean_target"]) <= \
        5 * summary["se_mean"]


def test_simulate_store_paths(tmp_path):
    code = main(["--config", str(SCALED_CFG), "--out-dir", str(tmp_path),
                 "simulate", "--paths", "5", "--dt", "0.05", "--seed", "1",
                 "--store-paths"])
    assert code == 0
    header, rows = read_csv(tmp_path / "paths.csv")
    assert header == ["path", "t", "X"]
    assert len(rows) == 5 * 101


def test_simulate_innovation_dynamics(tmp_path):
    code = main(["--config", str(FILTER_CFG), "--out-dir", str(tmp_path),
                 "simulate", "--dynamics", "innovation", "--paths", "2000",
                 "--dt", "0.01", "--seed", "3"])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["dynamics"] == "innovation"
    assert summary["approximation_mode"] == "projected_drift"


def test_unknown_flag_exit_code():
    assert main(["--config", str(PAPER44_CFG), "frontier", "--bogus"]) == 1


def test_unknown_subcommand_exit_code():
    assert main(["--config", str(PAPER44_CFG), "plot"]) == 1


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(PAPER44_CFG.read_text() + "bogus = 1\n")
    assert main(["--config", str(cfg), "validate"]) == 1


def test_invalid_model_exit_code(tmp_path, capsys):
    cfg = tmp_path / "invalid.cfg"
    cfg.write_text(PAPER44_CFG.read_text().replace("sigma = 1.0", "sigma = 0.0"))
    assert main(["--config", str(cfg), "validate"]) == 1
    assert capsys.readouterr().err.startswith("error: invalid configuration:")


def test_missing_config_exit_code():
    assert main(["--config", "/nowhere.cfg", "validate"]) == 1


@pytest.mark.parametrize("cfg, args", [
    (SCALED_CFG, ["simulate", "--paths", "100", "--dt", "0.3"]),
    (SCALED_CFG, ["simulate", "--paths", "2000", "--dt", "0.001",
                  "--store-paths"]),
    (FILTER_CFG, ["filter", "--steps", "0"]),
    (PAPER44_CFG, ["frontier", "--points", "0"]),
    (PAPER44_CFG, ["dual-curve", "--points", "0"]),
    (PAPER44_CFG, ["value-surface", "--nt", "0"]),
    (PAPER44_CFG, ["value-surface", "--nx", "0"]),
    (SCALED_CFG, ["simulate", "--paths", "1"]),
    (SCALED_CFG, ["simulate", "--workers", "0"]),
    (FILTER_CFG, ["dual-curve"]),
    (PAPER44_CFG, ["frontier", "--d-max", "nan"]),
    (PAPER44_CFG, ["frontier", "--d-max", "inf"]),
    (PAPER44_CFG, ["value-surface", "--x-min", "nan"]),
    (PAPER44_CFG, ["dual-curve", "--gamma-max", "inf"]),
    (PAPER44_CFG, ["value-surface", "--x-max", "1e200"]),
    (PAPER44_CFG, ["value-surface", "--x-min=-1e308", "--x-max", "1e308"]),
    (SCALED_CFG, ["simulate", "--paths", "100", "--dt", "nan"]),
    (SCALED_CFG, ["simulate", "--paths", "100", "--dt", "0"]),
    (SCALED_CFG, ["simulate", "--seed", "-1"]),
    (FILTER_CFG, ["filter", "--seed", "-1"]),
    (PAPER44_CFG, ["value-surface", "--x-min", "10", "--x-max", "5"]),
    (PAPER44_CFG, ["value-surface", "--x-min", "1e9"]),
    (PAPER44_CFG, ["dual-curve", "--gamma-min", "5", "--gamma-max", "1"]),
    (PAPER44_CFG, ["dual-curve", "--gamma-max=-1e6"]),
    (STIFF_PRIOR, ["simulate", "--paths", "100", "--dt", "0.1"]),
    (LOW_TARGET, ["frontier", "--mode", "full"]),
    (PARTIAL_CFG, ["--compat-paper-formulas", "filter"]),
    (PARTIAL_CFG, ["--compat-paper-formulas", "validate"]),
    (PARTIAL_CFG, ["--compat-paper-formulas", "frontier"]),
    (PARTIAL_CFG, ["--compat-paper-formulas", "simulate", "--paths", "100",
                   "--dt", "0.1"]),
], ids=["dt-not-dividing-T", "store-paths-too-large", "filter-steps-0",
        "frontier-points-0", "dual-curve-points-0", "value-surface-nt-0",
        "value-surface-nx-0", "simulate-paths-1", "workers-0",
        "dual-curve-hidden-drift", "d-max-nan", "d-max-inf", "x-min-nan",
        "gamma-max-inf", "x-max-overflows", "x-range-overflows", "dt-nan",
        "dt-0", "simulate-seed-negative", "filter-seed-negative",
        "x-range-reversed", "x-min-above-default-max", "gamma-range-reversed",
        "gamma-max-below-default-min", "stiff-prior-variance-negative",
        "frontier-full-below-vertex", "filter-compat", "validate-partial-compat",
        "frontier-partial-compat", "simulate-partial-compat"])
def test_bad_input_is_one_error_line(tmp_path, capsys, cfg, args):
    if isinstance(cfg, tuple):
        base, old, new = cfg
        cfg = tmp_path / "variant.cfg"
        cfg.write_text(base.read_text().replace(old, new))
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out-dir", str(out)] + args)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("args, name, first, last", [
    (["value-surface", "--x-min", "-1e4", "--x-max", "1e4", "--nt", "3",
      "--nx", "5"], "value_surface.csv", -1e4, 1e4),
    (["dual-curve", "--gamma-min", "-1e2", "--gamma-max", "10", "--points", "11"],
     "dual_curve.csv", -100.0, 10.0),
    (["dual-curve", "--gamma-min", "-.5E2", "--gamma-max", "-1.5e-3",
      "--points", "11"], "dual_curve.csv", -50.0, -1.5e-3),
], ids=["x-min-exponent", "gamma-min-exponent", "gamma-range-exponents"])
def test_negative_float_in_exponent_form(tmp_path, args, name, first, last):
    assert main(["--config", str(PAPER44_CFG), "--out-dir", str(tmp_path)]
                + args) == 0
    column = 1 if name == "value_surface.csv" else 0
    values = [float(row[column]) for row in read_csv(tmp_path / name)[1]]
    assert (min(values), max(values)) == (first, last)


@pytest.mark.parametrize("args, message", [
    (["frontier", "--points", "x"], "argument --points: invalid int value: 'x'"),
    (["frontier", "--d-max", "x"], "argument --d-max: invalid float value: 'x'"),
])
def test_non_numeric_argument_names_its_type(capsys, args, message):
    assert main(["--config", str(PAPER44_CFG)] + args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_solver_failure_is_one_error_line(tmp_path, capsys):
    # A claim rate whose square underflows and m0 < r leave no risk premium:
    # int kappa- is 0 and the frontier denominator is not positive.
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(FILTER_CFG.read_text().replace("\na = 1.0\n", "\na = 1e-200\n")
                   .replace("\nm0 = 0.06\n", "\nm0 = 0.01\n"))
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out-dir", str(out), "frontier"])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: frontier denominator")
    assert not (out / "frontier.csv").exists()


def test_frontier_with_tiny_claim_rate_is_finite(tmp_path):
    # int kappa- = 4e-19: the denominator 1 - P-(0) e^{-2 int r} is tiny, not 0.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(FILTER_CFG.read_text().replace("\na = 1.0\n", "\na = 1e-9\n")
                   .replace("\nm0 = 0.06\n", "\nm0 = 0.01\n"))
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path), "frontier"]) == 0
    _, rows = read_csv(tmp_path / "frontier.csv")
    assert rows and all(np.isfinite(float(v)) for row in rows for v in row[:3])


@pytest.mark.parametrize("T, exponent", [("180", "720.072"), ("190", "760.076")])
def test_frontier_exponent_past_double_range_is_one_error_in_both_modes(
        tmp_path, capsys, T, exponent):
    # paper44 with a = 10, theta = 0.2: -2 A1 T = int kappa- = 4.0004 T.  Full
    # mode's expm1 would overflow and partial mode's e^{-k-} would underflow.
    cfg = tmp_path / "long.cfg"
    cfg.write_text(PAPER44_CFG.read_text().replace("\na = 1.0\n", "\na = 10\n")
                   .replace("\ntheta = 0.3\n", "\ntheta = 0.2\n")
                   .replace("\nd = 10000.0\n", "\nd = 1e7\n")
                   .replace("\nT = 100.0\n", f"\nT = {T}\n"))
    for mode in ("full", "partial"):
        out = tmp_path / mode
        code = main(["--config", str(cfg), "--out-dir", str(out),
                     "frontier", "--mode", mode])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: frontier exponent {exponent} exceeds 708.396: e^-k "
            "underflows, so the frontier coefficient is not a normal double\n")
        assert not (out / "frontier.csv").exists()


def run_python(*args):
    """A fresh interpreter with the package's source first on its path."""
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))})


def test_python_dash_m_entry_point():
    proc = run_python("-m", "mvreins", "--config", "configs/paper44.cfg", "validate")
    assert proc.returncode == 0, proc.stderr


# Every subcommand in one interpreter where any scipy import raises.
SCIPY_GUARD = """
import sys
sys.modules["scipy"] = None
from mvreins.cli import main

out, paper44, filterdemo = sys.argv[1:]
for cfg, args in [
        (paper44, ["validate"]),
        (paper44, ["frontier", "--mode", "full", "--points", "5"]),
        (paper44, ["value-surface", "--nt", "3", "--nx", "3"]),
        (paper44, ["dual-curve", "--points", "5"]),
        (paper44, ["simulate", "--mode", "full", "--paths", "100", "--dt", "1"]),
        (filterdemo, ["validate"]),
        (filterdemo, ["filter", "--steps", "50"]),
        (filterdemo, ["simulate", "--paths", "100", "--dt", "0.1"])]:
    assert main(["--config", cfg, "--out-dir", out] + args) == 0, args
"""


def test_no_subcommand_loads_scipy(tmp_path):
    # The pytest process has scipy loaded already, so the guard runs apart.
    proc = run_python("-c", SCIPY_GUARD, str(tmp_path), str(PAPER44_CFG),
                      str(FILTER_CFG))
    assert proc.returncode == 0, proc.stderr
