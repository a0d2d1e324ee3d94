"""Self-tests of the benchmark at tiny sizes.  Run from the repository root::

    python3 bench/selftest.py

It checks that:

* ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py`` reports;
* a config carrying ``[overrides] a1`` (the validation suite's fault-injection
  hook) makes ``validate`` exit 2, and the benchmark counts that op as failed;
* a traced run of each workload records spans at every hook expected on it,
  every hook is expected on some workload, none is absent, the traced outputs
  are byte-identical to the untraced ones, and no wrapper is left behind;
* a hook whose function does not exist is reported absent, not raised;
* without the sources next to it, the benchmark exits non-zero and prints no
  result.

Prints one line per problem and exits 1 if there is any, else exits 0.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracer as tracing
import workloads

# Small enough for a quick run; every check still holds at these sizes.
TINY_SIZES = {
    "closed-form-full": {"frontier_points": 1001, "nt": 21, "nx": 21,
                         "dual_points": 2001},
    "projected-partial": {"filter_steps": 500, "paths": 4096, "dt": 0.1},
    "mc-full": {"paths": 32768, "dt": 0.01},
}
EXPECTED_SPANS = {
    "closed-form-full": {
        "cli.main", "config.load_config", "model.validate", "model.riskless_ode",
        "odekernel.integrate", "conelq.riccati", "filtering.projected_mean",
        "fullinfo.compute_solution", "fullinfo.hjb", "fullinfo.viscosity",
        "fullinfo.value_function", "fullinfo.dual_value", "validation.run_checks"},
    "projected-partial": {
        "cli.main", "config.load_config", "model.validate", "model.riskless_ode",
        "odekernel.integrate", "conelq.riccati", "filtering.variance",
        "filtering.projected_mean", "partialinfo.solve", "validation.run_checks",
        "montecarlo.simulate", "montecarlo.estimate", "montecarlo.strategy",
        "montecarlo.block", "montecarlo.rng"},
    "mc-full": {
        "cli.main", "config.load_config", "model.validate", "odekernel.integrate",
        "filtering.variance", "fullinfo.compute_solution", "montecarlo.simulate",
        "montecarlo.estimate", "montecarlo.strategy", "montecarlo.block",
        "montecarlo.rng"},
}


def check_spec() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [(w["name"], w["why"]) for w in spec["workloads"]] != \
            [(n, workloads.WHY[n]) for n in workloads.NAMES]:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != \
            list(run.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return problems


def check_fault_injection() -> list[str]:
    source = workloads.CONFIG_DIR / "paper44.cfg"
    bad = run.OUT_ROOT / "selftest" / "paper44_bad_a1.cfg"
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text(source.read_text() + "\n[overrides]\na1 = -0.05\n")
    workload = workloads.Workload(
        "selftest-fault-injection", "fault injection", bad,
        (workloads.Op("validate_s", ("validate",), (), workloads.check_validate),))
    report = run.run_workload(workload, seed=1, seconds=0, trace=False)
    problems = []
    if report["failed"] != report["attempted"] or report["correct"]:
        problems.append(f"fault injection: {report['failed']} of "
                        f"{report['attempted']} validate ops counted as failed")
    if not all("exit code 2" in msg for _, _, msg in report["failures"]):
        problems.append(f"fault injection: unexpected failures {report['failures']}")
    return problems


def check_traced_runs() -> list[str]:
    problems = []
    hooks = {span for span, _, _ in tracing.TARGETS} | set(tracing.HOOKS)
    unexpected = hooks - set().union(*EXPECTED_SPANS.values())
    if unexpected:
        problems.append(f"hooks expected on no workload: {sorted(unexpected)}")
    for name in workloads.NAMES:
        workload = workloads.build(name, TINY_SIZES[name])
        report = run.run_workload(workload, seed=1, seconds=0, trace=True)
        if not report["correct"]:
            problems.append(f"{name}: traced run failed: {report['failures']}")
        if report["absent"]:
            problems.append(f"{name}: absent metrics {report['absent']}")
        calls = report["span_calls"]
        missed = sorted(s for s in EXPECTED_SPANS[name] if not calls.get(s))
        if missed:
            problems.append(f"{name}: no spans recorded at {missed}")
        left = tracing.leftover_wrappers()
        if left:
            problems.append(f"{name}: wrappers left after the run: {left}")
    return problems


def check_absent() -> list[str]:
    """A hook whose function is gone is reported absent, not raised."""
    saved = tracing.TARGETS
    tracing.TARGETS = saved + (("selftest.missing", "model", "no_such_function"),)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        absent = tracer.absent_spans()
    finally:
        tracer.restore()
        tracing.TARGETS = saved
    if absent != {"selftest.missing"}:
        return [f"absent hooks reported as {sorted(absent)}"]
    return []


def check_no_sources() -> list[str]:
    """The benchmark alone (no src/) must fail without printing a result."""
    bare = run.OUT_ROOT / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "mc-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    if not (run.SRC / "mvreins" / "__init__.py").is_file():
        print(f"error: no mvreins sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    problems = (check_spec() + check_no_sources() + check_absent()
                + check_fault_injection() + check_traced_runs())
    for p in problems:
        print(f"FAIL {p}")
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
