"""Spans around the public entry points of each layer, recorded from outside.

:func:`instrument` replaces selected methods of the program's classes with
wrappers that record one span per call: name, start, end and parent (the
span open when the call began).  Spans stay in memory, in flat arrays,
and are written out once the run is over.  A layer's self time is the
time its spans cover minus the time their child spans cover.

The boundaries are coarse where a coarse one exists (an engine iteration,
a scheduler pass, a fleet event), so that the tracing overhead stays
small; ``trace.overhead_ratio`` reports what it costs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

# (module, class, methods, span-name prefix).  The layer is the prefix's
# first component.  A subclass is listed only for methods it defines
# itself; each wrapper replaces exactly the function it was given.
ENTRY_POINTS = (
    ("repro.serving.engine", "ServingEngine",
     ("submit", "step", "advance_window", "run"), "serving.engine"),
    ("repro.serving.scheduler", "Scheduler", ("schedule",),
     "serving.scheduler"),
    ("repro.serving.kv_cache", "PagedKVCache",
     ("allocate", "append_slots", "try_append_slot", "free"), "serving.kv"),
    ("repro.serving.prefix_cache", "PrefixCachingKVCache",
     ("allocate_with_prefix", "free"), "serving.kv"),
    ("repro.perfmodel.phases", "StepModel",
     ("step_breakdown", "prefill_time", "decode_step_time",
      "vision_encode_time"), "perfmodel.steps"),
    ("repro.perfmodel.vectorized", "VectorizedStepModel",
     ("step_totals", "step_total_one", "prefill_totals", "decode_totals"),
     "perfmodel.vectorized"),
    ("repro.perfmodel.inference", "InferencePerfModel",
     ("ttft", "decode_time", "generate"), "perfmodel.inference"),
    ("repro.moe.router", "TopKRouter", ("route", "route_counts"),
     "moe.router"),
    ("repro.obs.trace", "SpanTracer", ("begin", "end", "instant", "counter"),
     "obs.tracer"),
    ("repro.obs.reqtrace", "RequestTracer",
     ("on_admit", "on_prefill", "on_first_token", "on_decode", "on_preempt",
      "on_fault_kill", "on_finish", "on_fail"), "obs.reqtrace"),
    ("repro.obs.metrics", "MetricsRegistry", ("counter", "gauge", "histogram"),
     "obs.metrics"),
    ("repro.obs.metrics", "Counter", ("inc",), "obs.metrics"),
    ("repro.obs.metrics", "Gauge", ("set", "inc", "dec"), "obs.metrics"),
    ("repro.obs.metrics", "Histogram", ("observe",), "obs.metrics"),
    ("repro.obs.slo", "SloTracker", ("on_request_terminal", "report"),
     "obs.slo"),
    ("repro.obs.alerts", "AlertMonitor", ("on_iteration", "on_run_end"),
     "obs.alerts"),
    ("repro.obs.routing", "EngineRoutingProbe", ("on_tokens",), "obs.routing"),
    ("repro.fleet.simulator", "FleetSimulator", ("run",), "fleet.simulator"),
    ("repro.fleet.replica", "Replica", ("advance_to", "kill"),
     "fleet.replica"),
    ("repro.fleet.router", "RoundRobinRouter", ("choose",), "fleet.router"),
    ("repro.fleet.router", "LeastLoadedKVRouter", ("choose",), "fleet.router"),
    ("repro.fleet.router", "PrefixAffinityRouter", ("choose",),
     "fleet.router"),
    ("repro.fleet.admission", "AdmissionController", ("decide",),
     "fleet.admission"),
    ("repro.fleet.autoscaler", "Autoscaler", ("evaluate",),
     "fleet.autoscaler"),
)


def _count_window(counters: dict, args: tuple, result) -> None:
    counters["serving.window_iterations"] += result


def _count_step(counters: dict, args: tuple, result) -> None:
    counters["serving.step_iterations"] += bool(result)


def _count_tokens(counters: dict, args: tuple, result) -> None:
    counters["moe.tokens_routed"] += len(args[1])


COUNTS = {
    "serving.engine.advance_window": _count_window,
    "serving.engine.step": _count_step,
    "moe.router.route": _count_tokens,
    "moe.router.route_counts": _count_tokens,
}
"""Work counts read off a call's arguments or result, keyed by span name."""


class Tracer:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self._wrapped: list[tuple[type, str, object]] = []
        self.counters = {"serving.window_iterations": 0,
                         "serving.step_iterations": 0,
                         "moe.tokens_routed": 0}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, cls: type, method: str, name: str) -> None:
        fn = cls.__dict__[method]
        if not inspect.isfunction(fn):
            raise TypeError(f"{cls.__name__}.{method} is not a plain method")
        name_id = self._intern(name)
        count = COUNTS.get(name)
        open_, close, counters = self._open, self._close, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if count is not None:
                count(counters, args, result)
            return result

        setattr(cls, method, traced)
        self._wrapped.append((cls, method, fn))

    def restore(self) -> None:
        """Put every wrapped method back, so later calls record nothing."""
        for cls, method, fn in reversed(self._wrapped):
            setattr(cls, method, fn)
        self._wrapped.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names),
                "name": np.frombuffer(self.name, dtype=np.int64).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy()}

    def write(self, path) -> None:
        """Write every span (times in seconds on the ``perf_counter``
        clock; ``parent`` is a span index, -1 for none)."""
        np.savez_compressed(path, **self.arrays())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, and
        entries (calls whose parent span is in another layer)."""
        a = self.arrays()
        if len(a["start"]) == 0:
            return {}
        duration = a["end"] - a["start"]
        parent = a["parent"]
        nested = parent >= 0
        covered = np.zeros_like(duration)
        np.add.at(covered, parent[nested], duration[nested])
        own = duration - covered
        layers = np.array([n.split(".")[0] for n in self.names])
        name = a["name"]
        parent_layer = np.where(nested, layers[name[np.maximum(parent, 0)]],
                                "")
        entry = layers[name] != parent_layer
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        inclusive = np.bincount(name, weights=duration, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        entries = np.bincount(name, weights=entry, minlength=k)
        return {n: {"calls": int(calls[j]), "total_s": float(inclusive[j]),
                    "self_s": float(self_s[j]), "entries": int(entries[j])}
                for j, n in enumerate(self.names) if calls[j]}


def instrument(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS`."""
    for module, cls_name, methods, prefix in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            tracer.wrap(cls, method, f"{prefix}.{method}")
