"""The benchmark's workloads: fixed lists of mvreins CLI ops and their output checks.

Each workload is one config plus ops that run back to back as a pass.  An op
is one ``mvreins.cli.main(argv)`` call; ``{seed}`` in its arguments is replaced
by the benchmark seed.  Every op's outputs are checked with the tolerances
the acceptance suite uses, and a per-pass check compares ops with each other.
A check returns a list of failure messages, empty when the op is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Op sizes.  Chosen so that one pass of every workload takes a few seconds on
# 2 cores, letting a run take several passes and report medians.
SIZES = {
    "closed-form-full": {"frontier_points": 20001, "nt": 101, "nx": 101,
                         "dual_points": 5001},
    "projected-partial": {"filter_steps": 2000, "paths": 32768, "dt": 0.025},
    "mc-full": {"paths": 65536, "dt": 0.01},
}


@dataclass(frozen=True)
class OpResult:
    code: int | None  # None when main raised
    error: str | None
    stdout: str
    stderr: str
    outputs: dict  # file name -> bytes (missing files are absent)
    wall: float


@dataclass(frozen=True)
class Op:
    metric: str            # end-to-end name of its median wall time
    args: tuple            # subcommand and options, after the global options
    outputs: tuple         # files the op writes into its out dir
    check: Callable        # (OpResult, model) -> list of failure messages


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Path
    ops: tuple
    pass_check: Callable | None = None  # ({metric: OpResult}, model) -> [(metric, msg)]


def _rows(data: bytes):
    reader = csv.reader(io.StringIO(data.decode()))
    header = next(reader)
    return header, list(reader)


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / max(1.0, abs(ref))


def check_validate(res: OpResult, model) -> list[str]:
    m = re.search(r"^(\d+)/(\d+) checks passed$", res.stdout, re.M)
    if m is None:
        return ["no 'N/N checks passed' line"]
    if m.group(1) != m.group(2):
        return [f"{m.group(0)}"]
    return []


def _frontier_check(expected_vertex: Callable, expected_label: Callable):
    def check(res: OpResult, model) -> list[str]:
        header, rows = _rows(res.outputs["frontier.csv"])
        if header != ["d", "variance", "std_dev", "mode"] or len(rows) < 2:
            return [f"unexpected frontier.csv layout {header}, {len(rows)} rows"]
        fails = []
        d = [float(r[0]) for r in rows]
        var = [float(r[1]) for r in rows]
        vertex = expected_vertex(model)
        if _rel(d[0], vertex) > 1e-9:
            fails.append(f"vertex {d[0]!r} != {vertex!r}")
        if var[0] != 0.0:
            fails.append(f"variance at vertex {var[0]!r} != 0")
        ratios = [v / (x - d[0]) ** 2 for x, v in zip(d[1:], var[1:])]
        lo, hi = min(ratios), max(ratios)
        if not lo > 0 or (hi - lo) > 1e-9 * hi:
            fails.append(f"variance/(d - vertex)^2 not constant positive: {lo!r}..{hi!r}")
        label = expected_label(model)
        bad = {r[3] for r in rows} - {label}
        if bad:
            fails.append(f"mode label {sorted(bad)} != {label!r}")
        return fails
    return check


def riskless_wealth_full(model) -> float:
    """x0 e^{rT} + a(theta - eta)(e^{rT} - 1)/r at constant r."""
    c, T = model.claim, model.objective.T
    r = model.market.r.constant_value()
    growth = math.exp(r * T)
    return model.objective.x0 * growth + c.a * (c.theta - c.eta) * (growth - 1.0) / r


def riskless_wealth_partial(model) -> float:
    """x0 e^{int_0^T r} (cheap reinsurance: no premium surplus)."""
    return model.objective.x0 * math.exp(model.market.r.integral(0.0, model.objective.T))


def _partial_label(model) -> str:
    return "exact" if model.drift.is_degenerate() else "projected_drift"


def _value_surface_check(nt: int, nx: int):
    def check(res: OpResult, model) -> list[str]:
        header, rows = _rows(res.outputs["value_surface.csv"])
        if header != ["t", "x", "V", "region"] or len(rows) != nt * nx:
            return [f"unexpected value_surface.csv layout {header}, {len(rows)} rows"]
        bad = sum(1 for r in rows if not float(r[2]) >= 0.0)
        return [f"{bad} rows with V < 0 or NaN"] if bad else []
    return check


def check_dual_curve(res: OpResult, model) -> list[str]:
    m = re.search(r"gamma\* = (-?[0-9.]+)", res.stdout)
    if m is None:
        return ["no 'gamma* = ' in the output"]
    gamma_star = float(m.group(1))
    _, rows = _rows(res.outputs["dual_curve.csv"])
    gammas = [float(r[0]) for r in rows]
    values = [float(r[1]) for r in rows]
    best = gammas[max(range(len(values)), key=values.__getitem__)]
    step = gammas[1] - gammas[0]
    # gamma* is printed to 4 decimals
    if abs(best - gamma_star) > step + 5e-5:
        return [f"grid argmax {best!r} is more than one step from gamma* {gamma_star}"]
    return []


def stationary_variance(h: float, l: float, z: float, sigma: float) -> float:
    """Positive root of 2hn + l^2 + z^2 - (l + n/sigma)^2 = 0."""
    b = 2.0 * h - 2.0 * l / sigma
    return 0.5 * sigma * sigma * (b + math.sqrt(b * b + 4.0 * z * z / (sigma * sigma)))


def check_filter(res: OpResult, model) -> list[str]:
    _, rows = _rows(res.outputs["filter.csv"])
    T = model.objective.T
    t_end, n_end = float(rows[-1][0]), float(rows[-1][2])
    dr = model.drift
    ref = stationary_variance(dr.h(T), dr.l(T), dr.z(T), model.market.sigma(T))
    fails = []
    if _rel(t_end, T) > 1e-12:
        fails.append(f"last row at t={t_end!r}, not T={T}")
    if _rel(n_end, ref) > 1e-8:
        fails.append(f"n(T) {n_end!r} vs stationary root {ref!r}")
    return fails


def summary(res: OpResult) -> dict:
    return json.loads(res.outputs["summary.json"])


def check_simulate_finite(res: OpResult, model) -> list[str]:
    s = summary(res)
    keys = ("mean", "variance", "se_mean", "se_variance", "analytic_variance")
    bad = [k for k in keys if not math.isfinite(s[k])]
    return [f"non-finite {bad}"] if bad else []


def check_simulate_full(res: OpResult, model) -> list[str]:
    """Acceptance criterion 7's band: mean within 4 SE of d, variance within 5%."""
    fails = check_simulate_finite(res, model)
    if fails:
        return fails
    s = summary(res)
    d = model.objective.d
    if abs(s["mean"] - d) > 4.0 * s["se_mean"]:
        fails.append(f"mean {s['mean']!r} more than 4 SE ({s['se_mean']!r}) from d={d}")
    if abs(s["variance"] - s["analytic_variance"]) > 0.05 * s["analytic_variance"]:
        fails.append(f"variance {s['variance']!r} outside 5% of "
                     f"{s['analytic_variance']!r}")
    return fails


def pass_check_mc_full(results: dict, model) -> list:
    a, b = results["simulate_s"], results["simulate_serial_s"]
    if a.outputs.get("summary.json") != b.outputs.get("summary.json"):
        return [("simulate_serial_s", "summary.json differs between 1 and 2 workers")]
    return []


def pass_check_partial(results: dict, model) -> list:
    phys, inn = summary(results["simulate_s"]), summary(results["simulate_innovation_s"])
    se = math.hypot(phys["se_mean"], inn["se_mean"])
    if abs(phys["mean"] - inn["mean"]) > 4.0 * se:
        return [("simulate_innovation_s",
                 f"physical mean {phys['mean']!r} vs innovation {inn['mean']!r} "
                 f"differ by more than 4 combined SE ({se!r})")]
    return []


def projected_drift_gap(results: dict, model) -> dict:
    """The labeled approximation's gap, recorded and never counted as a failure."""
    s = summary(results["simulate_s"])
    d = model.objective.d
    return {"mean_minus_d": s["mean"] - d,
            "mean_gap_in_se": (s["mean"] - d) / s["se_mean"],
            "variance_over_analytic": s["variance"] / s["analytic_variance"]}


WHY = {
    "closed-form-full": "full-information closed forms: fullinfo, validation RK4 "
                        "cross-checks and CSV output in cli; no Monte Carlo",
    "projected-partial": "partial information with breakpoints, h<0 and n0>0: conelq, "
                         "odekernel and filtering, plus both Monte Carlo dynamics",
    "mc-full": "Monte Carlo block loop (RNG, strategy, update) at 2 workers and "
               "1 worker; the solver is a small share",
}


def build(name: str, sizes: dict | None = None) -> Workload:
    """The named workload at the given op sizes (default: :data:`SIZES`)."""
    z = dict(SIZES[name], **(sizes or {}))
    if name == "closed-form-full":
        return Workload(name, WHY[name], CONFIG_DIR / "paper44.cfg", (
            Op("validate_s", ("validate",), (), check_validate),
            Op("frontier_s", ("frontier", "--mode", "full",
                              "--points", str(z["frontier_points"])),
               ("frontier.csv",),
               _frontier_check(riskless_wealth_full, lambda m: "full")),
            Op("value_surface_s", ("value-surface", "--nt", str(z["nt"]),
                                   "--nx", str(z["nx"])),
               ("value_surface.csv",), _value_surface_check(z["nt"], z["nx"])),
            Op("dual_curve_s", ("dual-curve", "--points", str(z["dual_points"])),
               ("dual_curve.csv",), check_dual_curve),
        ))
    if name == "projected-partial":
        sim = ("simulate", "--paths", str(z["paths"]), "--dt", str(z["dt"]),
               "--seed", "{seed}", "--workers", "2")
        return Workload(name, WHY[name], CONFIG_DIR / "partial.cfg", (
            Op("validate_s", ("validate",), (), check_validate),
            Op("frontier_s", ("frontier", "--mode", "partial"), ("frontier.csv",),
               _frontier_check(riskless_wealth_partial, _partial_label)),
            Op("filter_s", ("filter", "--steps", str(z["filter_steps"]),
                            "--seed", "{seed}"), ("filter.csv",), check_filter),
            Op("simulate_s", sim, ("summary.json",), check_simulate_finite),
            Op("simulate_innovation_s", sim + ("--dynamics", "innovation"),
               ("summary.json",), check_simulate_finite),
        ), pass_check_partial)
    if name == "mc-full":
        sim = ("simulate", "--paths", str(z["paths"]), "--dt", str(z["dt"]),
               "--seed", "{seed}", "--workers")
        return Workload(name, WHY[name], CONFIG_DIR / "scaled.cfg", (
            Op("simulate_s", sim + ("2",), ("summary.json",), check_simulate_full),
            Op("simulate_serial_s", sim + ("1",), ("summary.json",),
               check_simulate_full),
        ), pass_check_mc_full)
    raise KeyError(name)


NAMES = tuple(SIZES)
