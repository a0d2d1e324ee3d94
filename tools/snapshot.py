"""Run a fixed list of mvreins CLI ops and keep everything they print and write.

Usage::

    python3 tools/snapshot.py OUT

Each op runs as ``python -m mvreins`` on this checkout's ``src/`` in its own
directory ``OUT/<op>/`` with ``--out-dir .``.  Next to the files the op writes
go ``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``.  The list covers
every subcommand: ``validate`` on the five configs, on one with a faulty
injected ``a1``, on a tiny-premium one, on a full one whose frontier vertex
is negative, on a tiny-rate one and on a short-horizon one; ``frontier`` in
full and partial mode, in partial mode on a tiny-premium twin and in full
mode on a twin whose target mean lies below the frontier vertex;
``value-surface``; ``dual-curve``; ``filter``; and ``simulate`` in full mode
and in partial physical and innovation dynamics, each at 1 and 2 workers,
plus a ``--store-paths`` run.  ``validate`` on paper44, full ``frontier``,
``value-surface``, ``dual-curve`` and a short full ``simulate`` also run
with the compat constant (``--compat-paper-formulas``); so do partial
``frontier``, ``validate`` and a short ``simulate``, and a short ``filter``,
where the flag has no solver to act on.  Partial ``frontier`` also runs on a
twin whose target mean lies below the frontier vertex.  ``value-surface`` and
full ``frontier`` also run with their default ranges on two twins with a
negative frontier vertex: one whose switching curve lies at or above 0, and
one whose target mean sits just above the vertex.  ``configs/knowndrift.cfg``,
full information off the paper's setting, runs ``validate``, ``frontier``,
``value-surface``, ``dual-curve`` and a short ``simulate``, and ``frontier``
with the compat constant, which its piecewise r refuses.
Two checkouts whose snapshots ``diff -r`` finds equal produce the same bytes
on all of them.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PAPER44 = REPO / "configs" / "paper44.cfg"
FILTERDEMO = REPO / "configs" / "filterdemo.cfg"
SCALED = REPO / "configs" / "scaled.cfg"
PARTIAL = REPO / "bench" / "configs" / "partial.cfg"
KNOWNDRIFT = REPO / "configs" / "knowndrift.cfg"
# Configs derived from paper44, written into the op's directory: (changed
# values, appended text).  The tiny-premium ones set a = 1e-9 and
# m0 - r = 1e-9; the partial twin also sets theta = eta.  eta = 0.5 and
# x0 = 1 put the full frontier's vertex at -213.39.  The tiny-rate one sets
# r = 1e-10 (d = 200), the short-horizon one T = 0.01 (d = 60).  The low-d
# one sets d = 2000, below the full frontier's vertex 2863.90; its partial
# twin (theta = eta = 0.2) puts d below the vertex 2729.91.  The two
# negative-vertex twins at d = -200 (switching curve at or above 0) and
# d = -213.39 (0.0026 above the vertex) exercise the default x and d ranges.
TINY = {"a": "1e-9", "m0": "0.040000001"}
DERIVED = {
    "a1-injected.cfg": ({}, "\n[overrides]\na1 = -0.5\n"),
    "tiny-premium-full.cfg": (TINY, ""),
    "tiny-premium-partial.cfg": ({**TINY, "theta": "0.2"}, ""),
    "negative-vertex-full.cfg": ({"eta": "0.5", "x0": "1.0"}, ""),
    "tiny-r-full.cfg": ({"r": "1e-10", "d": "200.0"}, ""),
    "short-horizon-full.cfg": ({"T": "0.01", "d": "60.0"}, ""),
    "low-d-full.cfg": ({"d": "2000.0"}, ""),
    "low-d-partial.cfg": ({"theta": "0.2", "d": "2000.0"}, ""),
    "curve-above-zero-full.cfg": ({"eta": "0.5", "x0": "1.0", "d": "-200.0"}, ""),
    "near-vertex-full.cfg": ({"eta": "0.5", "x0": "1.0", "d": "-213.39"}, ""),
}
COMPAT = ("--compat-paper-formulas",)

FULL_SIM = ("simulate", "--paths", "17000", "--dt", "0.01", "--seed", "7")
PARTIAL_SIM = ("simulate", "--paths", "17000", "--dt", "0.025", "--seed", "5")

# (op name, config, arguments after --config and --out-dir)
OPS = [
    ("validate-paper44", PAPER44, ("validate",)),
    ("validate-filterdemo", FILTERDEMO, ("validate",)),
    ("validate-scaled", SCALED, ("validate",)),
    ("validate-partial", PARTIAL, ("validate",)),
    ("validate-a1-injected", "a1-injected.cfg", ("validate",)),
    ("validate-tiny-premium-full", "tiny-premium-full.cfg", ("validate",)),
    ("validate-negative-vertex-full", "negative-vertex-full.cfg", ("validate",)),
    ("validate-tiny-r-full", "tiny-r-full.cfg", ("validate",)),
    ("validate-short-horizon-full", "short-horizon-full.cfg", ("validate",)),
    ("validate-paper44-compat", PAPER44, COMPAT + ("validate",)),
    ("frontier-full", PAPER44, ("frontier", "--mode", "full")),
    ("frontier-full-compat", PAPER44, COMPAT + ("frontier", "--mode", "full")),
    ("frontier-full-low-d", "low-d-full.cfg", ("frontier", "--mode", "full")),
    ("frontier-partial", PARTIAL, ("frontier", "--mode", "partial")),
    ("frontier-tiny-premium-partial", "tiny-premium-partial.cfg",
     ("frontier", "--mode", "partial")),
    ("frontier-partial-low-d", "low-d-partial.cfg",
     ("frontier", "--mode", "partial")),
    ("frontier-partial-compat", PARTIAL,
     COMPAT + ("frontier", "--mode", "partial")),
    ("validate-partial-compat", PARTIAL, COMPAT + ("validate",)),
    ("value-surface", PAPER44, ("value-surface",)),
    ("value-surface-compat", PAPER44, COMPAT + ("value-surface",)),
    ("value-surface-curve-above-zero", "curve-above-zero-full.cfg", ("value-surface",)),
    ("value-surface-near-vertex", "near-vertex-full.cfg", ("value-surface",)),
    ("frontier-full-curve-above-zero", "curve-above-zero-full.cfg",
     ("frontier", "--mode", "full")),
    ("frontier-full-near-vertex", "near-vertex-full.cfg",
     ("frontier", "--mode", "full")),
    ("dual-curve-compat", PAPER44, COMPAT + ("dual-curve",)),
    ("dual-curve", PAPER44, ("dual-curve",)),
    ("filter", PARTIAL, ("filter", "--steps", "2000", "--seed", "5")),
    ("filter-compat", PARTIAL,
     COMPAT + ("filter", "--steps", "200", "--seed", "5")),
    ("simulate-full-w1", SCALED, FULL_SIM + ("--workers", "1")),
    ("simulate-full-w2", SCALED, FULL_SIM + ("--workers", "2")),
    ("simulate-full-compat", SCALED, COMPAT + (
        "simulate", "--paths", "2000", "--dt", "0.01", "--seed", "3")),
    ("simulate-physical-w1", PARTIAL, PARTIAL_SIM + ("--workers", "1")),
    ("simulate-physical-w2", PARTIAL, PARTIAL_SIM + ("--workers", "2")),
    ("simulate-innovation-w1", PARTIAL,
     PARTIAL_SIM + ("--dynamics", "innovation", "--workers", "1")),
    ("simulate-innovation-w2", PARTIAL,
     PARTIAL_SIM + ("--dynamics", "innovation", "--workers", "2")),
    ("simulate-partial-compat", PARTIAL, COMPAT + (
        "simulate", "--paths", "2000", "--dt", "0.025", "--seed", "3")),
    ("simulate-store-paths", SCALED,
     ("simulate", "--paths", "5", "--dt", "0.05", "--seed", "1", "--store-paths")),
    ("validate-knowndrift", KNOWNDRIFT, ("validate",)),
    ("frontier-knowndrift", KNOWNDRIFT, ("frontier",)),
    ("value-surface-knowndrift", KNOWNDRIFT, ("value-surface",)),
    ("dual-curve-knowndrift", KNOWNDRIFT, ("dual-curve",)),
    ("simulate-knowndrift", KNOWNDRIFT,
     ("simulate", "--paths", "4000", "--dt", "0.01", "--seed", "3")),
    ("frontier-knowndrift-compat", KNOWNDRIFT, COMPAT + ("frontier",)),
]


def _derived_text(changes: dict, extra: str) -> str:
    text = PAPER44.read_text()
    for key, value in changes.items():
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        if n != 1:
            raise ValueError(f"{PAPER44} has {n} lines for {key!r}")
    return text + extra


def _run(out: Path, name: str, config, args) -> int:
    where = out / name
    where.mkdir(parents=True)
    if config in DERIVED:
        (where / config).write_text(_derived_text(*DERIVED[config]))
    argv = [sys.executable, "-m", "mvreins", "--config", str(config),
            "--out-dir", "."] + list(args)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(argv, cwd=where, env=env, capture_output=True)
    (where / "stdout.txt").write_bytes(proc.stdout)
    (where / "stderr.txt").write_bytes(proc.stderr)
    (where / "exit_code.txt").write_text(f"{proc.returncode}\n")
    return proc.returncode


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/snapshot.py OUT", file=sys.stderr)
        return 1
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} exists and is not empty", file=sys.stderr)
        return 1
    for name, config, args in OPS:
        code = _run(out, name, config, args)
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
