"""Span tracer that times the layers of ``joneses`` from outside the package.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces every
module-level name that is bound to a layer's public function with a timing
wrapper.  The search covers every loaded ``joneses`` module, so names
imported by value into another module (``gini`` and ``tax_rates`` in
``equilibrium``, ``build_schedule`` in ``scenario``) are wrapped as well.
A function that no longer exists under its name is reported as absent.

Each call records one span: name, start, end and the index of the span that
was open when it started.  Spans stay in memory; :meth:`Tracer.summary`
turns them into per-function call counts and self times (duration minus the
time covered by direct child spans), and :meth:`Tracer.dump_spans` writes
them out when the caller is done measuring.  The tracer keeps one stack, so
it assumes the traced calls run on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

# Span name -> (module, function).  The span name doubles as the metric prefix.
LAYERS = {
    "core.tax_rates": ("joneses.core", "tax_rates"),
    "core.factor_prices": ("joneses.core", "factor_prices"),
    "envy.gini": ("joneses.envy", "gini"),
    "envy.as_distribution": ("joneses.envy", "as_distribution"),
    "equilibrium.simulate": ("joneses.equilibrium", "simulate"),
    "equilibrium.solve_temporary": ("joneses.equilibrium", "solve_temporary"),
    "equilibrium.fixed_point_active_set": ("joneses.equilibrium", "fixed_point_active_set"),
    "equilibrium.fixed_point_bisection": ("joneses.equilibrium", "fixed_point_bisection"),
    "equilibrium.classify": ("joneses.equilibrium", "classify"),
    "equilibrium.detect_convergence": ("joneses.equilibrium", "detect_convergence"),
    "policy.plan_reform": ("joneses.policy", "plan_reform"),
    "policy.build_schedule": ("joneses.policy", "build_schedule"),
    "scenario.parse_scenario": ("joneses.scenario", "parse_scenario"),
    "scenario.load_scenario": ("joneses.scenario", "load_scenario"),
    "sweep.run_sweep": ("joneses.sweep", "run_sweep"),
    "output.write_trajectory_csv": ("joneses.output", "write_trajectory_csv"),
    "output.render_phase_plot": ("joneses.output", "render_phase_plot"),
    "output.render_savings_step_plot": ("joneses.output", "render_savings_step_plot"),
}

# Counters read off the arguments and results of traced calls.
COUNTERS = (
    "equilibrium.periods",
    "equilibrium.active_dynasties",
    "sweep.cells",
    "sweep.error_cells",
    "output.bytes_written",
)


def _count_period(tracer, bound, result):
    tracer.counts["equilibrium.periods"] += 1
    tracer.counts["equilibrium.active_dynasties"] += int(result.m_count)


def _count_sweep(tracer, bound, result):
    tracer.counts["sweep.cells"] += len(result)
    tracer.counts["sweep.error_cells"] += sum(1 for r in result if r.regime == "error")
    path = os.path.join(bound.arguments["out_dir"], "sweep.csv")
    tracer.counts["output.bytes_written"] += os.path.getsize(path)


def _count_file(tracer, bound, result):
    tracer.counts["output.bytes_written"] += os.path.getsize(bound.arguments["path"])


# Span name -> (counters it feeds, function that updates them after a call).
OBSERVERS = {
    "equilibrium.solve_temporary": (
        ("equilibrium.periods", "equilibrium.active_dynasties"),
        _count_period,
    ),
    "sweep.run_sweep": (("sweep.cells", "sweep.error_cells", "output.bytes_written"), _count_sweep),
    "output.write_trajectory_csv": (("output.bytes_written",), _count_file),
    "output.render_phase_plot": (("output.bytes_written",), _count_file),
    "output.render_savings_step_plot": (("output.bytes_written",), _count_file),
}


def _joneses_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "joneses" or name.startswith("joneses."))
    ]


class Tracer:
    """Wraps the layer functions while installed and records one span per call."""

    def __init__(self):
        self.names = list(LAYERS)
        self.absent = set()
        self._patched = []
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self._stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    def reset(self):
        """Drop recorded spans and counts; installed wrappers keep working."""
        for spans in (self.span_name, self.span_start, self.span_end, self.span_parent):
            spans.clear()
        self._stack.clear()
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, name_id, fn, observe):
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, stack = self.span_parent, self._stack
        signature = inspect.signature(fn) if observe else None
        tracer = self

        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                tracer._observe(observe, signature, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _observe(self, observe, signature, args, kwargs, result):
        counters, update = observe
        try:
            update(self, signature.bind(*args, **kwargs), result)
        except (AttributeError, KeyError, TypeError, OSError):
            self.absent.update(counters)

    def install(self):
        """Wrap every module-level binding of each layer function."""
        modules = _joneses_modules()
        for name_id, (span, (module_name, attr)) in enumerate(LAYERS.items()):
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.add(span)
                self.absent.update(OBSERVERS.get(span, ((), None))[0])
                continue
            wrapper = self._wrap(name_id, fn, OBSERVERS.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched = []

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the counters."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - covered[i]
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
            "spans": n,
        }

    def dump_spans(self, path) -> None:
        """Write the recorded spans as CSV: id,name,start,end,parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i]!r},"
                    f"{self.span_end[i]!r},{self.span_parent[i]}\n"
                )
