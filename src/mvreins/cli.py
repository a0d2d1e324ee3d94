"""Command-line interface: filter, frontier, value-surface, dual-curve, simulate, validate.

Exit codes: 0 success, 1 usage/configuration error, 2 validation-suite failure.
Bad arguments, configurations and simulation settings, and solves that fail on
a valid model (any :class:`~mvreins.errors.MvreinsError`), print one
``error: ...`` line and exit 1; counts that cannot work (``--steps 0``,
``--paths 1``, ...), non-finite float arguments and a time step that is not
positive are rejected while parsing; a range whose low end is above its high
end, once defaults are filled in, is rejected before anything is written; a
CSV holding a non-finite number (a finite argument range can overflow) is an
error and is not written: :func:`_write_csv`, the one CSV writer, checks each
numeric column with ``np.isfinite`` before it opens the file, and names the
first non-finite cell in row order.  :func:`_solve` picks the solver: one of
the other information mode than the config's (``--mode``, and the
full-information ``value-surface`` and ``dual-curve``) runs only if the config,
converted to that mode, passes :func:`~mvreins.model.validate`: the
full-information solvers need a known drift, and ``--mode partial`` runs on
any valid config.  ``--compat-paper-formulas`` needs the full-information
solver and a constant r: ``filter``, a piecewise r, and ``validate``,
``frontier`` and ``simulate`` when the partial solver runs, refuse it with
one error line and write nothing.
All numeric output is written in full double precision (shortest round-trip
decimal), so reruns with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import fullinfo, montecarlo, partialinfo
from .config import ConfigError, load_config
from .errors import MvreinsError
from .filtering import filter_coefficients, solve_variance
from .frontier import InfeasibleTargetError, dual_value, efficient_frontier
from .model import INFO_FULL, INFO_PARTIAL, validate
from .odekernel import RngStream, gaussian_increments
from .validation import format_table, run_checks


class UsageError(Exception):
    pass


_CSV_BLOCK = 4096  # rows formatted at a time by _write_csv


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e4" as an option; take exponent forms as numbers too
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with code 2 on usage errors; remap to the documented code 1
    def error(self, message):
        raise UsageError(message)


def _int_at_least(lowest: int):
    """argparse type: an integer no smaller than ``lowest``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _finite_float(above: float = -np.inf):
    """argparse type: a finite float greater than ``above`` (never nan or inf)."""
    def parse(text: str) -> float:
        value = float(text)
        if not np.isfinite(value) or value <= above:
            bound = f" > {above}" if np.isfinite(above) else ""
            raise argparse.ArgumentTypeError(
                f"must be a finite number{bound}, got {text}")
        return value
    parse.__name__ = "float"  # argparse names the type in "invalid float value"
    return parse


def _ordered(lo: float, hi: float, lo_flag: str, hi_flag: str) -> None:
    """Reject a range whose low end, after defaults are filled in, is above its high end."""
    if lo > hi:
        raise UsageError(f"{lo_flag} {lo!r} is above {hi_flag} {hi!r}")


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write ``columns`` (numeric arrays, or lists of str) under ``header``.

    A non-finite number (finite ranges can overflow) is an error: the first
    such cell in row order is named, and nothing is written.  Numbers are
    written as the shortest round-trip ``repr`` of the float, a block of rows
    at a time.
    """
    columns = [col if isinstance(col, list) else np.asarray(col, dtype=float)
               for col in columns]
    bad = [(int(np.argmin(finite)), j) for j, col in enumerate(columns)
           if not isinstance(col, list) and not (finite := np.isfinite(col)).all()]
    if bad:
        row, j = min(bad)
        raise UsageError(f"{path.name}: {header[j]} = {columns[j][row].item()!r} "
                         "is not finite; narrow the argument range")
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            block = [col[start:start + _CSV_BLOCK] for col in columns]
            cells = [col if isinstance(col, list) else map(repr, col.tolist())
                     for col in block]
            out.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mvreins",
                     description="Mean-variance reinsurance/investment toolkit")
    parser.add_argument("--config", required=True, help="model configuration file")
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument("--compat-paper-formulas", action="store_true",
                        help="use the historically published dual/frontier "
                             "constant instead of the corrected one "
                             "(full-information solver only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the named-check validation suite")

    p = sub.add_parser("filter", help="write filter.csv (t, m, n)")
    p.add_argument("--steps", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = sub.add_parser("frontier", help="write frontier.csv")
    p.add_argument("--mode", choices=[INFO_FULL, INFO_PARTIAL], default=None,
                   help="solver to use (defaults to the config's info_mode)")
    p.add_argument("--d-max", type=_finite_float(), default=None,
                   help="largest target mean (default: max(objective d, "
                        "vertex + 0.5 max(1, |vertex|)))")
    p.add_argument("--points", type=_int_at_least(1), default=101)

    p = sub.add_parser("value-surface", help="write value_surface.csv (t, x, V, region)")
    p.add_argument("--nt", type=_int_at_least(1), default=51)
    p.add_argument("--nx", type=_int_at_least(1), default=51)
    p.add_argument("--x-min", type=_finite_float(), default=None)
    p.add_argument("--x-max", type=_finite_float(), default=None)

    p = sub.add_parser("dual-curve", help="write dual_curve.csv (gamma, dual_value)")
    p.add_argument("--gamma-min", type=_finite_float(), default=None)
    p.add_argument("--gamma-max", type=_finite_float(), default=None)
    p.add_argument("--points", type=_int_at_least(1), default=201)

    p = sub.add_parser("simulate", help="simulate the optimal strategy, write summary.json")
    p.add_argument("--mode", choices=[INFO_FULL, INFO_PARTIAL], default=None)
    p.add_argument("--dynamics", choices=["physical", "innovation"],
                   default="physical")
    p.add_argument("--paths", type=_int_at_least(2), default=20000)
    p.add_argument("--dt", type=_finite_float(above=0.0), default=None,
                   help="time step (default T/5000)")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--store-paths", action="store_true",
                   help="also write paths.csv with stored trajectories")
    return parser


def _solve(mode: str, model, compat: bool):
    """The config as a model of information mode ``mode``, and its solution.

    A config of the other mode qualifies only if, converted, it passes
    :func:`~mvreins.model.validate`, which holds each mode's assumptions.
    """
    if model.info_mode != mode:
        model = dataclasses.replace(model, info_mode=mode)
        report = validate(model)
        if not report.ok:
            raise UsageError(f"the {mode}-information solver does not apply "
                             f"to this config: {report}")
    if mode == INFO_FULL:
        return model, fullinfo.compute_solution(model, compat=compat)
    return model, partialinfo.solve_partial(model)


def _cmd_validate(args, model, overrides) -> int:
    results = run_checks(model, compat=args.compat_paper_formulas,
                         overrides=overrides)
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 2


def _cmd_filter(args, model, out_dir: Path) -> int:
    T = model.objective.T
    steps = args.steps
    dt = T / steps
    grid = dt * np.arange(steps + 1)
    dr, sigma = model.drift, model.market.sigma
    n_curve = solve_variance(dr, sigma, T)
    coef = filter_coefficients(dr, sigma, n_curve, steps, dt)
    # One seeded filter-mean path driven by drawn innovation increments.
    incr = gaussian_increments(RngStream(args.seed), steps, dt)
    m_vals = np.empty(steps + 1)
    m_vals[0] = dr.m0
    for k in range(steps):
        m_vals[k + 1] = coef.advance(k, m_vals[k], incr[k])
    _write_csv(out_dir / "filter.csv", ["t", "m", "n"],
               [grid, m_vals, n_curve(grid)])
    print(f"wrote {out_dir / 'filter.csv'}")
    return 0


def _d_grid(args, vertex: float, model) -> np.ndarray:
    d_max = args.d_max
    if d_max is None:
        d_max = max(model.objective.d, vertex + 0.5 * max(1.0, abs(vertex)))
    if d_max < vertex:
        raise UsageError(f"--d-max {d_max} below the frontier vertex {vertex}")
    return np.linspace(vertex, d_max, args.points)


def _cmd_frontier(args, model, out_dir: Path, mode: str, compat: bool) -> int:
    _, sol = _solve(mode, model, compat)
    curve = efficient_frontier(sol, _d_grid(args, sol.vertex, model))
    label = sol.approximation_mode
    _write_csv(out_dir / "frontier.csv", ["d", "variance", "std_dev", "mode"],
               [curve.d, curve.variance, curve.std_dev, [label] * len(curve.d)])
    print(f"wrote {out_dir / 'frontier.csv'} ({label})")
    return 0


def _cmd_value_surface(args, model, out_dir: Path, compat: bool) -> int:
    model, sol = _solve(INFO_FULL, model, compat)
    ts = np.linspace(0.0, model.objective.T, args.nt)
    # default x range: the curve's span, widened on each side by its largest
    # distance from 0 (1 when the curve is identically 0)
    x_curve = fullinfo.switching_x(ts, sol, model)
    spread = float(np.max(np.abs(x_curve))) or 1.0
    lo = args.x_min if args.x_min is not None else float(x_curve.min()) - spread
    hi = args.x_max if args.x_max is not None else float(x_curve.max()) + spread
    _ordered(lo, hi, "--x-min", "--x-max")
    xs = np.linspace(lo, hi, args.nx)
    values = fullinfo.value_function(ts[:, None], xs, sol, model).ravel()
    regions = [r.value for r in fullinfo.region(ts[:, None], xs, sol, model).flat]
    _write_csv(out_dir / "value_surface.csv", ["t", "x", "V", "region"],
               [np.repeat(ts, xs.size), np.tile(xs, ts.size), values, regions])
    print(f"wrote {out_dir / 'value_surface.csv'}")
    return 0


def _cmd_dual_curve(args, model, out_dir: Path, compat: bool) -> int:
    _, sol = _solve(INFO_FULL, model, compat)
    gamma_star = sol.gamma_star
    span = 3.0 * max(1.0, abs(gamma_star))
    lo = args.gamma_min if args.gamma_min is not None else gamma_star - span
    hi = args.gamma_max if args.gamma_max is not None else gamma_star + span
    _ordered(lo, hi, "--gamma-min", "--gamma-max")
    gammas = np.linspace(lo, hi, args.points)
    _write_csv(out_dir / "dual_curve.csv", ["gamma", "dual_value"],
               [gammas, dual_value(sol, gammas)])
    print(f"wrote {out_dir / 'dual_curve.csv'} (gamma* = {gamma_star:.4f})")
    return 0


def _cmd_simulate(args, model, out_dir: Path, mode: str, compat: bool) -> int:
    sim_model, sol = _solve(mode, model, compat)
    T = model.objective.T
    d = model.objective.d
    dt = args.dt if args.dt is not None else T / 5000.0
    if mode == INFO_FULL:
        strategy = fullinfo.full_feedback_strategy(sol, sim_model)
    else:
        strategy = partialinfo.partial_feedback_strategy(sol, sim_model)

    cfg = montecarlo.SimConfig(n_paths=args.paths, dt=dt, seed=args.seed,
                               store_paths=args.store_paths)
    if args.dynamics == "physical":
        ensemble = montecarlo.simulate_physical(sim_model, strategy, cfg,
                                                workers=args.workers)
    else:
        ensemble = montecarlo.simulate_innovation(sim_model, strategy, cfg,
                                                  workers=args.workers)
    est = montecarlo.estimate(ensemble)

    summary = {
        "mode": mode,
        "dynamics": args.dynamics,
        "approximation_mode": sol.approximation_mode,
        "compat_paper_formulas": compat,
        "n_paths": cfg.n_paths,
        "n_flagged": ensemble.n_flagged,
        "dt": dt,
        "seed": cfg.seed,
        "mean": est.mean,
        "variance": est.variance,
        "se_mean": est.se_mean,
        "se_variance": est.se_variance,
        "analytic_mean_target": d,
        "analytic_variance": float(efficient_frontier(sol, [d]).variance[0]),
        "diagnostics": {
            "mean_int_q2": float(ensemble.int_q2.mean()),
            "mean_int_pi2": float(ensemble.int_pi2.mean()),
        },
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out_dir / 'summary.json'}")
    if sol.approximation_mode == partialinfo.MODE_PROJECTED:
        print(f"note: analytic variance {summary['analytic_variance']:.6g} is a "
              f"projected-drift approximation; realized {est.variance:.6g} "
              f"(se {est.se_variance:.2g})")

    if args.store_paths and ensemble.trajectories is not None:
        n_paths, n_times = ensemble.trajectories.shape
        _write_csv(out_dir / "paths.csv", ["path", "t", "X"],
                   [[str(pid) for pid in range(n_paths) for _ in range(n_times)],
                    np.tile(ensemble.times, n_paths), ensemble.trajectories.ravel()])
        print(f"wrote {out_dir / 'paths.csv'}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        model, overrides = load_config(args.config)
        report = validate(model)
        if not report.ok:
            print(f"error: invalid configuration: {report}", file=sys.stderr)
            return 1
        # information mode of the solver the subcommand runs; filter runs none
        mode = {"filter": None, "value-surface": INFO_FULL,
                "dual-curve": INFO_FULL}.get(
            args.command, getattr(args, "mode", None) or model.info_mode)
        compat = args.compat_paper_formulas
        if compat and (mode != INFO_FULL or not model.market.r.is_constant):
            raise UsageError("--compat-paper-formulas applies only to the "
                             "full-information solver, with a constant r")
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

        commands = {
            "validate": lambda: _cmd_validate(args, model, overrides),
            "filter": lambda: _cmd_filter(args, model, out_dir),
            "frontier": lambda: _cmd_frontier(args, model, out_dir, mode, compat),
            "value-surface": lambda: _cmd_value_surface(args, model, out_dir, compat),
            "dual-curve": lambda: _cmd_dual_curve(args, model, out_dir, compat),
            "simulate": lambda: _cmd_simulate(args, model, out_dir, mode, compat),
        }
        # an overflowing range is one _write_csv error, not a numpy warning per cell
        with np.errstate(over="ignore", invalid="ignore"):
            return commands[args.command]()
    except (ConfigError, UsageError, InfeasibleTargetError, ValueError,
            MvreinsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
