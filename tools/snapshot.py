"""Run a fixed list of mvreins CLI ops and keep everything they print and write.

Usage::

    python3 tools/snapshot.py OUT

Each op runs as ``python -m mvreins`` on this checkout's ``src/`` in its own
directory ``OUT/<op>/`` with ``--out-dir .``.  Next to the files the op writes
go ``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``.  The list covers
every subcommand: ``validate`` on the four configs and on one with a faulty
injected ``a1``; ``frontier`` in full and partial mode; ``value-surface``;
the compat ``dual-curve``; ``filter``; and ``simulate`` in full mode and in
partial physical and innovation dynamics, each at 1 and 2 workers, plus a
``--store-paths`` run.  Two checkouts whose snapshots ``diff -r`` finds equal
produce the same bytes on all of them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PAPER44 = REPO / "configs" / "paper44.cfg"
FILTERDEMO = REPO / "configs" / "filterdemo.cfg"
SCALED = REPO / "configs" / "scaled.cfg"
PARTIAL = REPO / "bench" / "configs" / "partial.cfg"
INJECTED = "a1-injected.cfg"  # paper44 with a faulty a1, written into the op's directory

FULL_SIM = ("simulate", "--paths", "17000", "--dt", "0.01", "--seed", "7")
PARTIAL_SIM = ("simulate", "--paths", "17000", "--dt", "0.025", "--seed", "5")

# (op name, config, arguments after --config and --out-dir)
OPS = [
    ("validate-paper44", PAPER44, ("validate",)),
    ("validate-filterdemo", FILTERDEMO, ("validate",)),
    ("validate-scaled", SCALED, ("validate",)),
    ("validate-partial", PARTIAL, ("validate",)),
    ("validate-a1-injected", INJECTED, ("validate",)),
    ("frontier-full", PAPER44, ("frontier", "--mode", "full")),
    ("frontier-partial", PARTIAL, ("frontier", "--mode", "partial")),
    ("value-surface", PAPER44, ("value-surface",)),
    ("dual-curve-compat", PAPER44, ("--compat-paper-formulas", "dual-curve")),
    ("filter", PARTIAL, ("filter", "--steps", "2000", "--seed", "5")),
    ("simulate-full-w1", SCALED, FULL_SIM + ("--workers", "1")),
    ("simulate-full-w2", SCALED, FULL_SIM + ("--workers", "2")),
    ("simulate-physical-w1", PARTIAL, PARTIAL_SIM + ("--workers", "1")),
    ("simulate-physical-w2", PARTIAL, PARTIAL_SIM + ("--workers", "2")),
    ("simulate-innovation-w1", PARTIAL,
     PARTIAL_SIM + ("--dynamics", "innovation", "--workers", "1")),
    ("simulate-innovation-w2", PARTIAL,
     PARTIAL_SIM + ("--dynamics", "innovation", "--workers", "2")),
    ("simulate-store-paths", SCALED,
     ("simulate", "--paths", "5", "--dt", "0.05", "--seed", "1", "--store-paths")),
]


def _run(out: Path, name: str, config, args) -> int:
    where = out / name
    where.mkdir(parents=True)
    if config == INJECTED:
        (where / INJECTED).write_text(PAPER44.read_text() + "\n[overrides]\na1 = -0.5\n")
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
