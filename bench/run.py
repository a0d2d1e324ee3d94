"""mvreins benchmark: CLI workloads timed end to end, plus a traced per-layer split.

Run from the repository root::

    python3 bench/run.py --workload closed-form-full --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40
    python3 bench/selftest.py

One process, one closed-loop client: each op calls ``mvreins.cli.main(argv)``
in-process and the next op starts when it returns, so the ~0.5 s import of
numpy and scipy is paid once (and measured on its own as ``setup_s``).  The
ops of a workload (``workloads.py``) run back to back as a pass; the first
pass is a warm-up, and passes repeat until ``--seconds`` would be exceeded.
Every op's outputs are checked; an op that raises, exits non-zero, fails its
check or writes different bytes than in the first pass counts as failed, and
the run goes on.

``--trace 0`` reports the end-to-end metrics (medians over the timed passes).
``--trace 1`` alternates untraced passes with traced ones, in which
``tracer.py`` wraps the public functions of each module from outside, and
reports the per-layer metrics (medians over the traced passes).  The last
line of stdout is one JSON object: correct, attempted, failed and metrics.
Readable report lines come before it; the full report and the spans are
written under ``.bench_run/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_run"
SETUP_SAMPLES = 6

# name, unit: reported with --trace 0, bounded in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),        # import mvreins (numpy, scipy) + load and validate the config
    ("pass_s", "s"),         # sum of the op wall times of one pass
    ("peak_rss_mb", "MB"),   # peak resident set of the benchmark process
)
# Per-op median wall times: in the report of every run, and as op.* layers.
OP_METRICS = ("validate_s", "frontier_s", "value_surface_s", "dual_curve_s",
              "filter_s", "simulate_s", "simulate_serial_s",
              "simulate_innovation_s")

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mvreins
from mvreins.config import load_config
from mvreins.model import validate
model, _ = load_config(sys.argv[2])
if not validate(model).ok:
    raise SystemExit("invalid config " + sys.argv[2])
print(time.perf_counter() - t0)
"""


def _s(summary, span, field="s"):
    return summary.get(span, {}).get(field, 0)


def _per_path_step(summary, seconds):
    steps = _s(summary, "montecarlo.strategy", "n")
    return seconds * 1e9 / steps if steps else 0.0


def _update_s(summary):
    return (_s(summary, "montecarlo.block") - _s(summary, "montecarlo.rng")
            - _s(summary, "montecarlo.strategy"))


# name, unit, better, spans it needs, value from (span summary of one traced pass).
# Time metrics are inclusive span seconds per pass unless named self.  The
# montecarlo ns metrics divide thread-summed block, RNG and strategy time by
# the path-steps of the pass (paths handed to the strategy, summed over steps);
# the update share is the block time left after RNG and strategy.
SPAN_METRICS = (
    ("config.load_s", "s", "lower", ("config.load_config",),
     lambda s: _s(s, "config.load_config")),
    ("model.validate_s", "s", "lower", ("model.validate",),
     lambda s: _s(s, "model.validate")),
    ("model.riskless_ode_s", "s", "lower", ("model.riskless_ode",),
     lambda s: _s(s, "model.riskless_ode")),
    ("odekernel.integrate_s", "s", "lower", ("odekernel.integrate",),
     lambda s: _s(s, "odekernel.integrate")),
    ("odekernel.calls", "count", "lower", ("odekernel.integrate",),
     lambda s: _s(s, "odekernel.integrate", "calls")),
    ("odekernel.steps", "count", "lower", ("odekernel.integrate",),
     lambda s: _s(s, "odekernel.integrate", "n")),
    ("conelq.riccati_s", "s", "lower", ("conelq.riccati",),
     lambda s: _s(s, "conelq.riccati")),
    ("conelq.riccati_calls", "count", "lower", ("conelq.riccati",),
     lambda s: _s(s, "conelq.riccati", "calls")),
    ("filtering.variance_s", "s", "lower", ("filtering.variance",),
     lambda s: _s(s, "filtering.variance")),
    ("filtering.variance_calls", "count", "lower", ("filtering.variance",),
     lambda s: _s(s, "filtering.variance", "calls")),
    ("filtering.projected_mean_s", "s", "lower", ("filtering.projected_mean",),
     lambda s: _s(s, "filtering.projected_mean")),
    ("partialinfo.solve_s", "s", "lower", ("partialinfo.solve",),
     lambda s: _s(s, "partialinfo.solve")),
    ("fullinfo.compute_solution_s", "s", "lower", ("fullinfo.compute_solution",),
     lambda s: _s(s, "fullinfo.compute_solution")),
    ("fullinfo.hjb_s", "s", "lower", ("fullinfo.hjb",),
     lambda s: _s(s, "fullinfo.hjb")),
    ("fullinfo.viscosity_s", "s", "lower", ("fullinfo.viscosity",),
     lambda s: _s(s, "fullinfo.viscosity")),
    ("fullinfo.value_function_calls", "count", "lower", ("fullinfo.value_function",),
     lambda s: _s(s, "fullinfo.value_function", "calls")),
    ("fullinfo.dual_value_calls", "count", "lower", ("fullinfo.dual_value",),
     lambda s: _s(s, "fullinfo.dual_value", "calls")),
    ("fullinfo.dual_value_s", "s", "lower", ("fullinfo.dual_value",),
     lambda s: _s(s, "fullinfo.dual_value")),
    ("validation.self_s", "s", "lower", ("validation.run_checks",),
     lambda s: _s(s, "validation.run_checks", "self_s")),
    ("montecarlo.simulate_s", "s", "lower", ("montecarlo.simulate",),
     lambda s: _s(s, "montecarlo.simulate")),
    ("montecarlo.estimate_s", "s", "lower", ("montecarlo.estimate",),
     lambda s: _s(s, "montecarlo.estimate")),
    ("montecarlo.path_steps", "count", "lower", ("montecarlo.strategy",),
     lambda s: _s(s, "montecarlo.strategy", "n")),
    ("montecarlo.blocks", "count", "lower", ("montecarlo.block",),
     lambda s: _s(s, "montecarlo.block", "calls")),
    ("montecarlo.ns_per_path_step", "ns", "lower",
     ("montecarlo.block", "montecarlo.strategy"),
     lambda s: _per_path_step(s, _s(s, "montecarlo.block"))),
    ("montecarlo.rng_ns_per_path_step", "ns", "lower",
     ("montecarlo.rng", "montecarlo.strategy"),
     lambda s: _per_path_step(s, _s(s, "montecarlo.rng"))),
    ("montecarlo.normals_per_path_step", "count", "lower",
     ("montecarlo.rng", "montecarlo.strategy"),
     lambda s: _per_path_step(s, _s(s, "montecarlo.rng", "n")) * 1e-9),
    ("montecarlo.strategy_ns_per_path_step", "ns", "lower", ("montecarlo.strategy",),
     lambda s: _per_path_step(s, _s(s, "montecarlo.strategy"))),
    ("montecarlo.update_ns_per_path_step", "ns", "lower",
     ("montecarlo.block", "montecarlo.rng", "montecarlo.strategy"),
     lambda s: _per_path_step(s, _update_s(s))),
    ("cli.self_s", "s", "lower", ("cli.main",),
     lambda s: _s(s, "cli.main", "self_s")),
)
# name, unit, better: per-layer metrics taken from the passes, not the spans.
PASS_METRICS = (
    ("montecarlo.speedup_2w", "ratio", "higher"),   # simulate_serial_s / simulate_s
    ("montecarlo.flagged_ratio", "ratio", "lower"),  # n_flagged / n_paths
    ("cli.bytes_written", "bytes", "lower"),         # output bytes of one pass
    ("trace.overhead_ratio", "ratio", "lower"),      # traced / untraced pass_s
) + tuple((f"op.{m}", "s", "lower") for m in OP_METRICS)
PER_LAYER = tuple(m[:3] for m in SPAN_METRICS) + PASS_METRICS


def median(values):
    return statistics.median(values) if values else 0.0


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "config": {workload.config.name:
                   hashlib.sha256(workload.config.read_bytes()).hexdigest()},
        "why": workload.why,
        "loop": "closed loop, 1 client, ops in-process one at a time, <= 2 worker threads",
    }


def measure_setup(config: Path) -> float:
    """Seconds to import mvreins and load and validate the config, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


class Runner:
    """Runs the passes of one workload and keeps everything the report needs."""

    def __init__(self, workload, model, seed: int, out_dir: Path):
        from mvreins import cli
        self.cli = cli
        self.workload = workload
        self.model = model
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failures = []      # (pass index, op metric, message)
        self.first_digest = {}  # op metric -> outputs digest of the first pass
        self.check_cache = {}   # (metric, stdout, digest) -> failure messages
        self.passes = []        # one dict per pass
        self.tracer = tracing.Tracer()

    def _run_op(self, op) -> workloads.OpResult:
        out = self.out_dir / op.metric
        out.mkdir(parents=True, exist_ok=True)
        for name in op.outputs:
            (out / name).unlink(missing_ok=True)
        argv = ["--config", str(self.workload.config), "--out-dir", str(out)]
        argv += [a.replace("{seed}", str(self.seed)) for a in op.args]
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op; go on
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        outputs = {name: (out / name).read_bytes()
                   for name in op.outputs if (out / name).is_file()}
        return workloads.OpResult(code, error, stdout.getvalue(), stderr.getvalue(),
                                  outputs, wall)

    def _check_op(self, op, res) -> list[str]:
        if res.error is not None:
            return [res.error]
        if res.code != 0:
            return [f"exit code {res.code}: {res.stderr.strip()[-200:]}"]
        missing = [n for n in op.outputs if n not in res.outputs]
        if missing:
            return [f"missing outputs {missing}"]
        digest = hashlib.sha256(b"".join(
            hashlib.sha256(res.outputs[n]).digest() for n in op.outputs)).hexdigest()
        fails = []
        first = self.first_digest.setdefault(op.metric, digest)
        if digest != first:
            fails.append("outputs differ from the first pass")
        key = (op.metric, res.stdout, digest)
        if key not in self.check_cache:
            try:
                self.check_cache[key] = op.check(res, self.model)
            except Exception as exc:  # malformed output is a failed check
                self.check_cache[key] = [f"check raised {type(exc).__name__}: {exc}"]
        return fails + self.check_cache[key]

    def run_pass(self, kind: str) -> dict:
        """One pass; ``kind`` is warmup, untraced or traced."""
        index = len(self.passes)
        span_start = len(self.tracer.spans)
        results, failed = {}, {}
        if kind == "traced":
            self.tracer.install()
        try:
            for op in self.workload.ops:
                self.tracer.op += 1
                results[op.metric] = self._run_op(op)
        finally:
            self.tracer.restore()
        for op in self.workload.ops:
            self.attempted += 1
            fails = self._check_op(op, results[op.metric])
            if fails:
                failed[op.metric] = fails
        if not failed and self.workload.pass_check is not None:
            try:
                extra = self.workload.pass_check(results, self.model)
            except Exception as exc:  # malformed output is a failed check
                extra = [(self.workload.ops[-1].metric, f"pass check raised {exc!r}")]
            for metric, msg in extra:
                failed.setdefault(metric, []).append(msg)
        for metric, msgs in failed.items():
            self.failures.extend((index, metric, m) for m in msgs)
        record = {
            "kind": kind,
            "wall": sum(r.wall for r in results.values()),
            "ops": {m: r.wall for m, r in results.items()},
            "bytes": sum(len(b) for r in results.values() for b in r.outputs.values()),
            "failed": len(failed),
            "spans": (span_start, len(self.tracer.spans)),
        }
        sims = [workloads.summary(r) for m, r in results.items()
                if m.startswith("simulate") and "summary.json" in r.outputs]
        if sims:
            record["flagged_ratio"] = (sum(s["n_flagged"] for s in sims)
                                       / sum(s["n_paths"] for s in sims))
        if "simulate_innovation_s" in results and not failed:
            record["projected_drift_gap"] = workloads.projected_drift_gap(
                results, self.model)
        self.passes.append(record)
        return record

    def walls(self, kinds) -> list[float]:
        return [p["wall"] for p in self.passes if p["kind"] in kinds]

    def op_medians(self, kinds) -> dict:
        return {op.metric: median([p["ops"][op.metric] for p in self.passes
                                   if p["kind"] in kinds])
                for op in self.workload.ops}

    @property
    def failed(self) -> int:
        return sum(p["failed"] for p in self.passes)


def schedule(runner: Runner, seconds: float, kinds: tuple, setup=None) -> None:
    """Warm-up, then passes cycling through ``kinds`` while the next one fits.

    At least one pass of each kind runs, whatever ``seconds`` says.  With a
    ``setup`` list, set-up samples are taken between passes, about
    ``SETUP_SAMPLES`` of them spread over the run like the passes are.
    """
    start = time.perf_counter()
    last = 0.0
    next_setup = start
    for i in itertools.count(-1):
        if i >= len(kinds) and time.perf_counter() - start + last > seconds:
            break
        t0 = time.perf_counter()
        if setup is not None and t0 >= next_setup:
            setup.append(measure_setup(runner.workload.config))
            next_setup = t0 + seconds / SETUP_SAMPLES
        runner.run_pass("warmup" if i < 0 else kinds[i % len(kinds)])
        last = time.perf_counter() - t0


def end_to_end(runner: Runner, setup: list[float]) -> dict:
    return {
        "setup_s": median(setup),
        "pass_s": median(runner.walls(("timed",))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner) -> tuple[dict, list]:
    traced = [p for p in runner.passes if p["kind"] == "traced"]
    summaries = [tracing.summarize(runner.tracer.spans[slice(*p["spans"])])
                 for p in traced]
    absent_spans = runner.tracer.absent_spans()
    values = {}
    absent = []
    for name, _unit, _better, spans, fn in SPAN_METRICS:
        if absent_spans.intersection(spans):
            absent.append(name)
            values[name] = 0.0
        else:
            values[name] = median([fn(s) for s in summaries])
    ops = runner.op_medians(("untraced",))
    serial, parallel = ops.get("simulate_serial_s"), ops.get("simulate_s")
    values["montecarlo.speedup_2w"] = serial / parallel if serial and parallel else 0.0
    values["montecarlo.flagged_ratio"] = median(
        [p["flagged_ratio"] for p in runner.passes if "flagged_ratio" in p])
    values["cli.bytes_written"] = median([p["bytes"] for p in traced])
    values["trace.overhead_ratio"] = (median(runner.walls(("traced",)))
                                      / median(runner.walls(("untraced",))))
    for m in OP_METRICS:
        values[f"op.{m}"] = ops.get(m, 0.0)
    return values, absent


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the passes and return the report."""
    from mvreins.config import load_config
    out_dir = OUT_ROOT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    model, _ = load_config(workload.config)
    runner = Runner(workload, model, seed, out_dir)
    setup = []
    if trace:
        schedule(runner, seconds, ("untraced", "traced"))
    else:
        schedule(runner, seconds, ("timed",), setup)

    report = {"workload": workload.name, "trace": int(trace),
              "provenance": provenance(workload, seed),
              "attempted": runner.attempted, "failed": runner.failed,
              "error_rate": runner.failed / runner.attempted,
              "failures": runner.failures, "passes": runner.passes}
    kinds = ("untraced",) if trace else ("timed",)
    report["op_medians"] = runner.op_medians(kinds)
    report["samples"] = {"passes": len(runner.walls(kinds)), "setup": len(setup),
                         "traced_passes": len(runner.walls(("traced",)))}
    if trace:
        values, absent = per_layer(runner)
        units = {name: unit for name, unit, _ in PER_LAYER}
        report["absent"] = absent
        report["span_calls"] = {name: agg["calls"] for name, agg in
                                tracing.summarize(runner.tracer.spans).items()}
        runner.tracer.write_spans(out_dir / "spans.csv")
    else:
        values = end_to_end(runner, setup)
        units = dict(END_TO_END)
        report["setup_samples"] = setup
    report["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units}
    report["correct"] = runner.failed == 0
    (out_dir / f"report-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    return report


def print_report(report: dict) -> None:
    prov = report["provenance"]
    samples = report["samples"]
    print(f"mvreins benchmark: workload {report['workload']}, seed {prov['seed']}, "
          f"trace {report['trace']}")
    print(f"  why: {prov['why']}")
    print(f"  {prov['loop']}")
    print(f"  nproc {prov['nproc']}, python {prov['python']}, numpy {prov['numpy']}, "
          f"scipy {prov['scipy']}, commit {prov['commit']}")
    for name, digest in prov["config"].items():
        print(f"  config {name} sha256 {digest}")
    print(f"  {'metric':<38} {'value':>14}  {'unit':<6} samples")
    for name, m in report["metrics"].items():
        n = samples["setup"] if name == "setup_s" else (
            samples["traced_passes"] if report["trace"] else samples["passes"])
        print(f"  {name:<38} {m['value']:>14.6g}  {m['unit']:<6} {n}")
    if not report["trace"]:
        for name, value in report["op_medians"].items():
            print(f"  {name:<38} {value:>14.6g}  {'s':<6} {samples['passes']}")
    print(f"  {'error_rate':<38} {report['error_rate']:>14.6g}  {'ratio':<6} "
          f"{report['attempted']}")
    for p in report["passes"]:
        if "projected_drift_gap" in p:
            gap = p["projected_drift_gap"]
            print(f"  projected-drift gap (not a failure): E[X(T)] - d = "
                  f"{gap['mean_minus_d']:.4g} ({gap['mean_gap_in_se']:.1f} SE), "
                  f"Var/analytic = {gap['variance_over_analytic']:.4g}")
            break
    for name in report.get("absent", []):
        print(f"  absent: {name} (its hooks are missing at this commit)")
    for index, metric, msg in report["failures"]:
        print(f"  FAILED pass {index} {metric}: {msg}")


def result_line(report: dict) -> dict:
    """The last stdout line: correct, attempted, failed and metrics."""
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": report["metrics"]}


def run_all(args) -> int:
    """Each workload in its own process (so setup and peak RSS stay per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "mvreins" / "__init__.py").is_file():
        print(f"error: no mvreins sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import mvreins
    if not Path(mvreins.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: mvreins imported from {mvreins.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    report = run_workload(workloads.build(args.workload), args.seed, args.seconds,
                          bool(args.trace))
    print_report(report)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
