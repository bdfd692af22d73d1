"""Span tracer for the benchmark's traced runs.

The tracer wraps public ``rss_policy`` functions from the outside (the
library is not edited) and records one span per call at each layer
boundary. A span's self time is its duration minus the time covered by
the spans it encloses, so the self times of all layers add up to the
duration of the root span the benchmark opens around each instance.

Two kinds of calls are too frequent to keep as span records and are
accumulated instead ("leaves"):

* the per-state closures returned by ``CycleCostEngine.cycle_hp_fn``
  (over a million calls per long-horizon instance);
* convolutions (``numpy.convolve`` and the ``scipy.signal`` convolution
  functions), counted with their multiply-accumulate count computed from
  the operand lengths and attributed to the enclosing layer span.

A leaf's duration is added to its own layer and subtracted from the
enclosing span like any child span. Every wrapper passes straight
through while the tracer is inactive, so the untraced half of a traced
run pays only a flag test per call.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

_clock = time.perf_counter

# Span name -> the self-time metric its self time is added to.
SELF_METRIC = {
    "bench.instance": "bench.self_s",
    "solver.context": "solver.context_s",
    "solver.build_grid": "solver.build_grid_s",
    "solver.solve": "solver.solve_self_s",
    "demand.discretize": "demand.discretize_s",
    "demand.cumulative": "demand.cumulative_s",
    "costs.cycle_hp_fn": "costs.cycle_hp_fn_s",
    "exact.enumerate": "exact.enumerate_self_s",
    "exact.scarf": "exact.enumerate_self_s",
    "evaluate.expected_cost": "evaluate.expected_cost_s",
    "evaluate.simulate": "evaluate.simulate_self_s",
}


class Tracer:
    """Span stack, per-layer self times and work counters of one process.

    Single-threaded: the benchmark is a closed loop with one client.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.wall_s = 0.0  # summed duration of the root spans
        self.instances = 0
        self._stack: list[list[Any]] = []  # open [name, start, child_s, index]
        self._in_conv = False
        self._cum_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    def begin(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name, _clock(), 0.0, len(self.spans)])
        self.spans.append([name, 0.0, 0.0, parent])

    def end(self) -> float:
        """Close the innermost span; returns its duration."""
        t1 = _clock()
        name, t0, child_s, index = self._stack.pop()
        duration = t1 - t0
        record = self.spans[index]
        record[1], record[2] = t0, t1
        self.self_s[SELF_METRIC[name]] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def leaf(self, metric: str, duration: float) -> None:
        """Account a call too frequent to keep as a span record."""
        self._stack[-1][2] += duration
        self.self_s[metric] += duration

    @contextmanager
    def instance(self) -> Iterator[None]:
        """Trace one instance under a root span."""
        self.active = True
        self.begin("bench.instance")
        try:
            yield
        finally:
            self.wall_s += self.end()
            self.instances += 1
            self.active = False

    # ------------------------------------------------------------------
    def span_wrapper(self, name: str, fn: Callable, inclusive: Optional[str] = None) -> Callable:
        """``inclusive`` names a counter that also receives the whole duration."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.end()
                if inclusive is not None:
                    self.counts[inclusive] += duration

        return traced

    def cumulative_wrapper(self, fn: Callable) -> Callable:
        """``CumulativeDemandCache.cumulative`` with hit counting. The cache
        never evicts, so a (t, j) asked of the same cache before is a hit."""

        @functools.wraps(fn)
        def traced(cache, t, j):
            if not self.active:
                return fn(cache, t, j)
            seen = self._cum_seen.setdefault(cache, set())
            self.counts["demand.cumulative_calls"] += 1
            if (t, j) in seen:
                self.counts["demand.cumulative_hits"] += 1
            self.begin("demand.cumulative")
            try:
                pmf = fn(cache, t, j)
            finally:
                self.end()
            seen.add((t, j))
            return pmf

        return traced

    def cycle_hp_fn_wrapper(self, fn: Callable) -> Callable:
        """Times the factory (which builds engine levels lazily) as a span
        and every call of the per-state closure it returns as a leaf."""

        @functools.wraps(fn)
        def traced(engine, t, r):
            if not self.active:
                return fn(engine, t, r)
            self.begin("costs.cycle_hp_fn")
            try:
                el = fn(engine, t, r)
            finally:
                self.end()
            stack, self_s, counts = self._stack, self.self_s, self.counts

            def el_traced(y):
                t0 = _clock()
                value = el(y)
                duration = _clock() - t0
                stack[-1][2] += duration
                self_s["costs.cycle_hp_fn_s"] += duration
                counts["costs.cycle_hp_fn_calls"] += 1
                return value

            return el_traced

        return traced

    def conv_wrapper(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(a, v, *args, **kwargs):
            if not self.active or self._in_conv:
                return fn(a, v, *args, **kwargs)
            self._in_conv = True
            t0 = _clock()
            try:
                out = fn(a, v, *args, **kwargs)
            finally:
                duration = _clock() - t0
                self._in_conv = False
            self.leaf("conv.s", duration)
            layer = self._stack[-1][0].split(".", 1)[0]  # of the enclosing span
            self.counts[f"conv.{layer}_s"] += duration
            self.counts["conv.calls"] += 1
            self.counts["conv.macs"] += len(a) * len(v)
            return out

        return traced


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------

class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install_conv_hooks(tracer: Tracer, patches: Patches) -> None:
    """Wrap the convolution entry points. Call before importing
    ``rss_policy`` so that a module binding them by name at import time
    gets the wrapped versions."""
    import numpy
    import scipy.signal

    patches.set(numpy, "convolve", tracer.conv_wrapper(numpy.convolve))
    for name in ("convolve", "fftconvolve", "oaconvolve"):
        patches.set(scipy.signal, name, tracer.conv_wrapper(getattr(scipy.signal, name)))


def install_api_hooks(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public ``rss_policy`` functions at the names through which
    the solvers, the evaluator and the benchmark call them."""
    from rss_policy import costs, demand, evaluate, exact, solver

    span = tracer.span_wrapper
    patches.set(solver.SolveContext, "__init__",
                span("solver.context", solver.SolveContext.__init__))
    patches.set(solver, "discretize", span("demand.discretize", solver.discretize))
    patches.set(solver, "build_grid", span("solver.build_grid", solver.build_grid))
    for name in ("solve_kconvex", "solve_plain", "solve_lost_sales"):
        patches.set(solver, name, span("solver.solve", getattr(solver, name)))
    patches.set(demand.CumulativeDemandCache, "cumulative",
                tracer.cumulative_wrapper(demand.CumulativeDemandCache.cumulative))
    patches.set(costs.CycleCostEngine, "cycle_hp_fn",
                tracer.cycle_hp_fn_wrapper(costs.CycleCostEngine.cycle_hp_fn))
    patches.set(exact, "enumerate_optimal", span("exact.enumerate", exact.enumerate_optimal))
    patches.set(exact, "scarf_fixed_R",
                span("exact.scarf", exact.scarf_fixed_R, inclusive="exact.scarf_s"))
    patches.set(evaluate, "expected_cost",
                span("evaluate.expected_cost", evaluate.expected_cost))
    patches.set(evaluate, "simulate", span("evaluate.simulate", evaluate.simulate))
