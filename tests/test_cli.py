import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvreins.cli import main

REPO = Path(__file__).resolve().parents[1]
PAPER44_CFG = REPO / "configs" / "paper44.cfg"
FILTER_CFG = REPO / "configs" / "filterdemo.cfg"
SCALED_CFG = REPO / "configs" / "scaled.cfg"


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


def test_frontier_partial_on_noncheap_config_rejected(tmp_path):
    code = main(["--config", str(PAPER44_CFG), "--out-dir", str(tmp_path),
                 "frontier", "--mode", "partial"])
    assert code == 1


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
], ids=["dt-not-dividing-T", "store-paths-too-large", "filter-steps-0",
        "frontier-points-0", "dual-curve-points-0", "value-surface-nt-0",
        "value-surface-nx-0", "simulate-paths-1", "workers-0",
        "dual-curve-hidden-drift", "d-max-nan", "d-max-inf", "x-min-nan",
        "gamma-max-inf", "x-max-overflows", "x-range-overflows", "dt-nan",
        "dt-0"])
def test_bad_input_is_one_error_line(tmp_path, capsys, cfg, args):
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out-dir", str(out)] + args)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("args, message", [
    (["frontier", "--points", "x"], "argument --points: invalid int value: 'x'"),
    (["frontier", "--d-max", "x"], "argument --d-max: invalid float value: 'x'"),
])
def test_non_numeric_argument_names_its_type(capsys, args, message):
    assert main(["--config", str(PAPER44_CFG)] + args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_solver_failure_is_one_error_line(tmp_path, capsys):
    # A vanishing claim rate and m0 < r leave no risk premium: P-(0) equals
    # exp(2 int r) to rounding and the frontier denominator is not positive.
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(FILTER_CFG.read_text().replace("\na = 1.0\n", "\na = 1e-9\n")
                   .replace("\nm0 = 0.06\n", "\nm0 = 0.01\n"))
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out-dir", str(out), "frontier"])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: frontier denominator")
    assert not (out / "frontier.csv").exists()


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mvreins", "--config", "configs/paper44.cfg", "validate"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))})
    assert proc.returncode == 0, proc.stderr
