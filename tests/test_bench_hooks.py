"""The benchmark's tracer finds every function it hooks, and removes every wrapper.

``bench/tracer.py`` wraps mvreins functions by home module and name; a rename
or a move would drop that layer from the benchmark's per-layer split without
failing anything else.
"""

import importlib.util
from pathlib import Path

import mvreins  # noqa: F401  (the tracer patches the modules already imported)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_hook_is_present_and_restored():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
        assert tracer.patched
    finally:
        tracer.restore()
    assert tracing.leftover_wrappers() == []
