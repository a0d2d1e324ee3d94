"""Outside-in tracing of mvreins, installed and removed from the benchmark's files.

No file under ``src/`` knows about tracing.  :meth:`Tracer.install` replaces
each traced function in every ``mvreins`` module that binds it (a
``from .x import f`` makes a copy of the name, so the home module alone is not
enough) with a wrapper that records a span, and :meth:`Tracer.restore` puts
every original back.  A traced name that no longer exists is recorded in
``absent`` instead of raising, so the benchmark keeps working across refactors.

A span is ``(id, name, start, end, parent, op, n)``: perf_counter seconds, the
id of the enclosing span (0 for none), the benchmark's op id, and a work count
taken at the same boundary (ODE steps, normals drawn, paths evaluated, or 1).
Spans stay in memory until :meth:`write_spans`.

The Monte Carlo engine is split from outside as well: ``montecarlo.RngStream``
is swapped for a subclass whose generators time ``standard_normal``, the
strategies built by the two feedback factories are wrapped, and the block
function handed to ``montecarlo._run_blocks`` is wrapped so that each path
block becomes a span on the worker thread that ran it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import time

# (span name, home module, function): every binding of the function in any
# mvreins module is wrapped under the span name.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("config.load_config", "config", "load_config"),
    ("model.validate", "model", "validate"),
    ("model.riskless_ode", "model", "riskless_terminal_wealth_ode"),
    ("odekernel.integrate", "odekernel", "integrate_backward"),
    ("odekernel.integrate", "odekernel", "integrate_forward"),
    ("conelq.riccati", "conelq", "solve_riccati_pair"),
    ("filtering.variance", "filtering", "solve_variance"),
    ("filtering.projected_mean", "filtering", "projected_mean_curve"),
    ("partialinfo.solve", "partialinfo", "solve_partial"),
    ("fullinfo.compute_solution", "fullinfo", "compute_solution"),
    ("fullinfo.hjb", "fullinfo", "hjb_residual"),
    ("fullinfo.viscosity", "fullinfo", "viscosity_check"),
    ("fullinfo.value_function", "fullinfo", "value_function"),
    ("fullinfo.dual_value", "fullinfo", "dual_value_full"),
    ("validation.run_checks", "validation", "run_checks"),
    ("montecarlo.simulate", "montecarlo", "simulate_physical"),
    ("montecarlo.simulate", "montecarlo", "simulate_innovation"),
    ("montecarlo.estimate", "montecarlo", "estimate"),
)
# Span name -> home functions of its hooks that are not plain wrappers.
HOOKS = {
    "montecarlo.strategy": (("fullinfo", "full_feedback_strategy"),
                            ("partialinfo", "partial_feedback_strategy")),
    "montecarlo.block": (("montecarlo", "_run_blocks"),),
    "montecarlo.rng": (("montecarlo", "RngStream"),),
}
PACKAGE = "mvreins"


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _steps_counter(fn):
    """Work count of an ODE solve: its ``steps`` argument, defaults applied."""
    sig = inspect.signature(fn)

    def count(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments.get("steps", 1))

    return count


def _normals_counter(args, kwargs):
    size = args[0] if args else kwargs.get("size")
    if size is None:
        return 1
    return math.prod(size) if isinstance(size, tuple) else int(size)


def _paths_counter(args, kwargs):
    return int(getattr(args[1], "size", 1))


class _TimedGenerator:
    """Proxy of a numpy Generator whose ``standard_normal`` records spans."""

    def __init__(self, generator, tracer):
        self._generator = generator
        self.standard_normal = tracer.wrap_call(
            "montecarlo.rng", generator.standard_normal, _normals_counter)

    def __getattr__(self, attr):
        return getattr(self._generator, attr)


class Tracer:
    """Span recorder plus the patch list that :meth:`restore` undoes."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self.absent = []  # "module.function" names not found at install
        self.patched = []  # (owner, attribute, original)
        self._ids = itertools.count(1)
        self._main_ident = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap_call(self, name, fn, counter=None):
        """Return ``fn`` wrapped so every call records a span named ``name``.

        A call on a worker thread with no open span of its own takes the main
        thread's innermost open span as parent (the call that started the pool).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                n = counter(args, kwargs) if counter else 1
                tracer.spans.append((sid, name, start, end, parent, tracer.op, n))

        return traced

    def _replace(self, home, func, replacement):
        """Rebind ``home.func`` in every mvreins module that holds the original."""
        try:
            original = getattr(importlib.import_module(f"{PACKAGE}.{home}"), func)
        except (ImportError, AttributeError):
            self.absent.append(f"{home}.{func}")
            return None
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    wrapped = replacement(original)
                    wrapped.__bench_traced__ = True
                    self.patched.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self):
        self.absent = []
        for span, home, func in TARGETS:
            counted = span == "odekernel.integrate"
            self._replace(home, func, lambda fn, span=span, counted=counted:
                          self.wrap_call(span, fn, _steps_counter(fn) if counted else None))

        def strategy_factory(factory):
            @functools.wraps(factory)
            def build(*args, **kwargs):
                return self.wrap_call("montecarlo.strategy", factory(*args, **kwargs),
                                      _paths_counter)
            return build

        for home, func in HOOKS["montecarlo.strategy"]:
            self._replace(home, func, strategy_factory)

        def run_blocks(original):
            @functools.wraps(original)
            def traced_run_blocks(*args, **kwargs):
                args = [self.wrap_call("montecarlo.block", a) if callable(a) else a
                        for a in args]
                return original(*args, **kwargs)
            return traced_run_blocks

        for home, func in HOOKS["montecarlo.block"]:
            self._replace(home, func, run_blocks)
        self._replace_rng()

    def _replace_rng(self):
        """Swap ``HOOKS["montecarlo.rng"]`` in montecarlo only: the CLI filter
        draws from the same class and is not part of the Monte Carlo split."""
        try:
            montecarlo = importlib.import_module(f"{PACKAGE}.montecarlo")
            base = montecarlo.RngStream
        except (ImportError, AttributeError):
            self.absent.append("montecarlo.RngStream")
            return
        tracer = self

        class TracedRngStream(base):
            def substream(self, k):
                return TracedRngStream(self.master_seed, k)

            def generator(self):
                return _TimedGenerator(super().generator(), tracer)

        TracedRngStream.__bench_traced__ = True
        self.patched.append((montecarlo, "RngStream", base))
        montecarlo.RngStream = TracedRngStream

    def restore(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def absent_spans(self):
        """Span names none of whose hooks could be installed."""
        missing = set(self.absent)
        hooks = {}
        for span, home, func in TARGETS:
            hooks.setdefault(span, []).append(f"{home}.{func}")
        for span, pairs in HOOKS.items():
            hooks[span] = [f"{home}.{func}" for home, func in pairs]
        return {span for span, names in hooks.items()
                if all(name in missing for name in names)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,op,n\n")
            for sid, name, start, end, parent, op, n in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{op},{n}\n")


def leftover_wrappers():
    """Names in mvreins modules still bound to a tracing wrapper (should be none)."""
    left = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, "__bench_traced__", False):
                left.append(f"{mod.__name__}.{attr}")
    return left


def summarize(spans):
    """Per span name: total seconds, call count, work count and self seconds.

    Self time is the span minus the union of its direct children's intervals,
    so overlapping children on worker threads are not subtracted twice.
    """
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for sid, name, start, end, _parent, _op, n in spans:
        agg = out.setdefault(name, {"s": 0.0, "calls": 0, "n": 0, "self_s": 0.0})
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        agg["s"] += end - start
        agg["calls"] += 1
        agg["n"] += n
        agg["self_s"] += (end - start) - covered
    return out
