"""Compare paired benchmark runs of a parent and a change, metric by metric.

Usage::

    python3 tools/bench_compare.py --parent P1 ... Pn --change C1 ... Cn --out BENCH_<n>.json

Each file holds the output of one ``python3 bench/run.py --workload all``
run; its last non-empty line is the result line (``correct``, ``attempted``,
``failed`` and ``metrics``, keyed ``<workload>.<metric>``).  Parent run i is
paired with change run i, so run the two sides alternately.  ``BENCHMARK.json``
at the repository root names the workloads and, for each end-to-end metric,
its ``bound`` (largest tolerated relative worsening) and ``better`` direction.

For each workload and end-to-end metric the output gives both sides' median
and quartiles, the change's wins over its pair (ties count for neither side),
the relative delta of the medians and one verdict:

* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``unresolved``: the parent's interquartile range, relative to its median,
  exceeds the bound, and not every change run beats every parent run;
* ``within bound``: neither.

Once per file it records each side's attempted and failed op counts and the
machine the comparison runs on (nproc, Python and numpy versions), which is
meant to be the machine that ran the benchmark.  The table goes to stdout and
the JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]


def result_line(text: str) -> dict:
    """The result of one run: the last non-empty line of its output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty benchmark output")
    return json.loads(lines[-1])


def _summary(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "runs": [float(v) for v in values]}


def compare_metric(parent, change, bound: float, better: str) -> dict:
    """Paired statistics and verdict of one metric on one workload."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0   # sign * value: smaller is better
    p, c = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    ps, cs = _summary(p), _summary(c)
    delta = (cs["median"] - ps["median"]) / ps["median"]
    spread = (ps["q3"] - ps["q1"]) / ps["median"]
    dominates = bool(np.max(sign * c) < np.min(sign * p))
    if sign * delta > bound:
        verdict = "worse"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": ps, "change": cs, "change_wins": int(np.sum(sign * c < sign * p)),
            "pairs": int(p.size), "delta": float(delta), "parent_iqr_rel": float(spread),
            "bound": bound, "better": better, "verdict": verdict}


def compare(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> dict:
    """The comparison of paired result lines under a BENCHMARK.json ``spec``."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError(f"need the same number of parent and change runs, got "
                         f"{len(parent_runs)} and {len(change_runs)}")
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        workloads[workload] = {}
        for metric in spec["end_to_end"]:
            key = f"{workload}.{metric['name']}"
            workloads[workload][metric["name"]] = compare_metric(
                [run["metrics"][key]["value"] for run in parent_runs],
                [run["metrics"][key]["value"] for run in change_runs],
                metric["bound"], metric["better"])
    sides = {name: {"runs": len(runs),
                    "attempted": sum(run["attempted"] for run in runs),
                    "failed": sum(run["failed"] for run in runs)}
             for name, runs in (("parent", parent_runs), ("change", change_runs))}
    return {"schema_version": 1, "machine": machine(), "sides": sides,
            "workloads": workloads}


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__}


def format_table(report: dict) -> str:
    rows = [f"{'workload':<18} {'metric':<12} {'parent median':>14} "
            f"{'change median':>14} {'delta':>8} {'wins':>6}  verdict"]
    for workload, metrics in report["workloads"].items():
        for name, m in metrics.items():
            rows.append(f"{workload:<18} {name:<12} {m['parent']['median']:>14.6g} "
                        f"{m['change']['median']:>14.6g} {m['delta']:>+8.1%} "
                        f"{m['change_wins']:>3}/{m['pairs']:<2}  {m['verdict']}")
    for name, side in report["sides"].items():
        rows.append(f"{name}: {side['runs']} runs, {side['attempted']} ops attempted, "
                    f"{side['failed']} failed")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    try:
        report = compare([result_line(p.read_text()) for p in args.parent],
                         [result_line(c.read_text()) for c in args.change], spec)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(format_table(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
