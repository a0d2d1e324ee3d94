"""Command-line interface: filter, frontier, value-surface, dual-curve, simulate, validate.

Exit codes: 0 success, 1 usage/configuration error, 2 validation-suite failure.
Bad arguments, configurations and simulation settings, and solves that fail on
a valid model (any :class:`~mvreins.errors.MvreinsError`), print one
``error: ...`` line and exit 1; counts that cannot work (``--steps 0``,
``--paths 1``, ...), non-finite float arguments and a time step that is not
positive are rejected while parsing; a CSV holding a non-finite number (a
finite argument range can overflow) is an error and is not written.  The
full-information subcommands accept a partial config only if it meets the
full-mode assumptions.
All numeric output is written in full double precision (shortest round-trip
decimal), so reruns with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fullinfo, montecarlo, partialinfo
from .config import ConfigError, load_config
from .errors import MvreinsError
from .filtering import filter_coefficients, solve_variance
from .frontier import InfeasibleTargetError
from .model import INFO_FULL, INFO_PARTIAL, validate
from .odekernel import RngStream, gaussian_increments
from .validation import format_table, run_checks


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
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


def _cell(path: Path, name: str, value) -> str:
    """One CSV cell; a non-finite number (finite ranges can overflow) is an error."""
    if isinstance(value, str):
        return value
    if not math.isfinite(value):
        raise UsageError(f"{path.name}: {name} = {float(value)!r} is not finite; "
                         "narrow the argument range")
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_cell(path, n, v) for n, v in zip(header, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mvreins",
                     description="Mean-variance reinsurance/investment toolkit")
    parser.add_argument("--config", required=True, help="model configuration file")
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument("--compat-paper-formulas", action="store_true",
                        help="use the historically published dual/frontier "
                             "constant instead of the corrected one")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the named-check validation suite")

    p = sub.add_parser("filter", help="write filter.csv (t, m, n)")
    p.add_argument("--steps", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("frontier", help="write frontier.csv")
    p.add_argument("--mode", choices=[INFO_FULL, INFO_PARTIAL], default=None,
                   help="solver to use (defaults to the config's info_mode)")
    p.add_argument("--d-max", type=_finite_float(), default=None,
                   help="largest target mean (default: max(objective d, 1.5 vertex))")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--store-paths", action="store_true",
                   help="also write paths.csv with stored trajectories")
    return parser


def _solver_mode(args, model) -> str:
    mode = getattr(args, "mode", None) or model.info_mode
    if mode == INFO_PARTIAL and model.info_mode == INFO_FULL:
        if model.claim.eta != model.claim.theta:
            raise UsageError("--mode partial requires cheap reinsurance "
                             "(eta = theta)")
    return mode


def _as_full_model(model):
    """The model for the full-information solvers, which need a known drift.

    A partial config qualifies only if it meets the full-mode assumptions
    (degenerate drift, h = 0, constant r and sigma, m0 > r).
    """
    if model.info_mode == INFO_FULL:
        return model
    full_model = dataclasses.replace(model, info_mode=INFO_FULL)
    report = validate(full_model)
    if not report.ok:
        raise UsageError(
            f"the full-information solver needs a known drift: {report}")
    return full_model


def _as_partial_model(model):
    if model.info_mode == INFO_PARTIAL:
        return model
    return dataclasses.replace(model, info_mode=INFO_PARTIAL)


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
    # One seeded filter-mean path under the observation filtration:
    # dm = h m dt + (l + n/sigma) dWbar.
    incr = gaussian_increments(RngStream(args.seed), steps, dt)
    m_vals = np.empty(steps + 1)
    m_vals[0] = dr.m0
    for k in range(steps):
        m_vals[k + 1] = m_vals[k] + coef.h[k] * m_vals[k] * dt + coef.vol[k] * incr[k]
    _write_csv(out_dir / "filter.csv", ["t", "m", "n"],
               zip(grid, m_vals, n_curve(grid)))
    print(f"wrote {out_dir / 'filter.csv'}")
    return 0


def _d_grid(args, vertex: float, model) -> np.ndarray:
    d_max = args.d_max
    if d_max is None:
        d_max = max(model.objective.d, 1.5 * vertex)
    if d_max < vertex:
        raise UsageError(f"--d-max {d_max} below the frontier vertex {vertex}")
    return np.linspace(vertex, d_max, args.points)


def _cmd_frontier(args, model, out_dir: Path, compat: bool) -> int:
    mode = _solver_mode(args, model)
    if mode == INFO_FULL:
        full_model = _as_full_model(model)
        vertex = fullinfo.vertex_constant(full_model, compat)
        curve = fullinfo.frontier_full(full_model, _d_grid(args, vertex, model),
                                       compat)
        label = "full"
    else:
        partial_model = _as_partial_model(model)
        sol = partialinfo.solve_partial(partial_model)
        curve = partialinfo.frontier_partial(sol.riccati, partial_model,
                                             _d_grid(args, sol.d0, model))
        label = sol.approximation_mode
    rows = [(d, v, s, label)
            for d, v, s in zip(curve.d, curve.variance, curve.std_dev)]
    _write_csv(out_dir / "frontier.csv", ["d", "variance", "std_dev", "mode"], rows)
    print(f"wrote {out_dir / 'frontier.csv'} ({label})")
    return 0


def _cmd_value_surface(args, model, out_dir: Path, compat: bool) -> int:
    full_model = _as_full_model(model)
    sol = fullinfo.compute_solution(full_model, compat=compat)
    T = model.objective.T
    ts = np.linspace(0.0, T, args.nt)
    x_curve = np.array([sol.switching_x(t) for t in ts])
    lo = args.x_min if args.x_min is not None else float(2.0 * x_curve.min())
    hi = args.x_max if args.x_max is not None else float(-x_curve.min())
    xs = np.linspace(lo, hi, args.nx)
    rows = []
    for t in ts:
        for x in xs:
            rows.append((t, x, fullinfo.value_function(t, x, sol),
                         sol.region(t, x).value))
    _write_csv(out_dir / "value_surface.csv", ["t", "x", "V", "region"], rows)
    print(f"wrote {out_dir / 'value_surface.csv'}")
    return 0


def _cmd_dual_curve(args, model, out_dir: Path, compat: bool) -> int:
    full_model = _as_full_model(model)
    d = model.objective.d
    gamma_star = fullinfo.gamma_star_full(full_model, d, compat)
    span = 3.0 * max(1.0, abs(gamma_star))
    lo = args.gamma_min if args.gamma_min is not None else gamma_star - span
    hi = args.gamma_max if args.gamma_max is not None else gamma_star + span
    gammas = np.linspace(lo, hi, args.points)
    rows = [(g, fullinfo.dual_value_full(full_model, d, g, compat))
            for g in gammas]
    _write_csv(out_dir / "dual_curve.csv", ["gamma", "dual_value"], rows)
    print(f"wrote {out_dir / 'dual_curve.csv'} (gamma* = {gamma_star:.4f})")
    return 0


def _cmd_simulate(args, model, out_dir: Path, compat: bool) -> int:
    mode = _solver_mode(args, model)
    T = model.objective.T
    d = model.objective.d
    dt = args.dt if args.dt is not None else T / 5000.0

    if mode == INFO_FULL:
        full_model = _as_full_model(model)
        sol = fullinfo.compute_solution(full_model, compat=compat)
        strategy = fullinfo.full_feedback_strategy(sol, full_model)
        frontier = fullinfo.frontier_full(full_model, [d], compat)
        approximation = "full"
        sim_model = full_model
    else:
        partial_model = _as_partial_model(model)
        sol = partialinfo.solve_partial(partial_model)
        strategy = partialinfo.partial_feedback_strategy(sol, partial_model)
        frontier = partialinfo.frontier_partial(sol.riccati, partial_model, [d])
        approximation = sol.approximation_mode
        sim_model = partial_model

    cfg = montecarlo.SimConfig(n_paths=args.paths, dt=dt, seed=args.seed,
                               mode=args.dynamics, store_paths=args.store_paths)
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
        "approximation_mode": approximation,
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
        "analytic_variance": float(frontier.variance[0]),
        "diagnostics": {
            "mean_int_q2": float(ensemble.int_q2.mean()),
            "mean_int_pi2": float(ensemble.int_pi2.mean()),
        },
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out_dir / 'summary.json'}")
    if approximation == "projected_drift":
        print(f"note: analytic variance {summary['analytic_variance']:.6g} is a "
              f"projected-drift approximation; realized {est.variance:.6g} "
              f"(se {est.se_variance:.2g})")

    if args.store_paths and ensemble.trajectories is not None:
        rows = ((str(pid), t, x)
                for pid in range(ensemble.trajectories.shape[0])
                for t, x in zip(ensemble.times, ensemble.trajectories[pid]))
        _write_csv(out_dir / "paths.csv", ["path", "t", "X"], rows)
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
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        compat = args.compat_paper_formulas

        commands = {
            "validate": lambda: _cmd_validate(args, model, overrides),
            "filter": lambda: _cmd_filter(args, model, out_dir),
            "frontier": lambda: _cmd_frontier(args, model, out_dir, compat),
            "value-surface": lambda: _cmd_value_surface(args, model, out_dir, compat),
            "dual-curve": lambda: _cmd_dual_curve(args, model, out_dir, compat),
            "simulate": lambda: _cmd_simulate(args, model, out_dir, compat),
        }
        # an overflowing range is one _cell error, not a numpy warning per cell
        with np.errstate(over="ignore", invalid="ignore"):
            return commands[args.command]()
    except (ConfigError, UsageError, InfeasibleTargetError, ValueError,
            MvreinsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
