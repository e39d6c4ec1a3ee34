"""Request-scoped causal tracing: follow one request through the engine.

The span tracer (:mod:`repro.obs.trace`) records what the *engine* did per
iteration; this module records what each *request* experienced — the
causally-linked lifecycle the paper's serving metrics (TTFT/ITL/E2E,
Figs. 16-18) are percentiles of:

    admit → queue.wait → prefill.chunk… → first_token → decode.step… →
    finish  (with preempt → requeue.wait and fault → fault.backoff →
    queue.wait detours spliced in where the scheduler or the fault
    injector interrupted the request)

Every entry is stamped on the simulated clock, each span names the event
that *caused* it, and every request carries a stable ``trace id``
(``req-000042``) — the same id histogram exemplars attach to bucket
samples, so an outlier p99 TTFT bucket resolves to the offending
request's timeline here.

Exports: a deterministic per-request timeline table
(:meth:`RequestTracer.timeline`), a rendered text table
(:meth:`RequestTracer.render_timeline`), and Chrome Trace Event JSON with
one track per request (:meth:`RequestTracer.to_chrome_trace`), mergeable
with the engine tracer's events for one combined Perfetto view.

Like every observability hook, call sites guard with ``obs is not None``
and the recorder never perturbs the simulation — results
stay bit-identical whether or not it is attached.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.trace import TRACE_PID, _SECONDS_TO_US

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.request import Request

__all__ = ["trace_id_for", "TimelineEntry", "RequestTrace", "RequestTracer"]


def trace_id_for(request_id: int) -> str:
    """The stable trace id of a request (also the exemplar id format)."""
    return f"req-{request_id:06d}"


@dataclass
class TimelineEntry:
    """One span or instant in a request's lifecycle."""

    seq: int
    kind: str  # "span" | "instant"
    name: str
    t0: float
    t1: float | None = None
    cause: str = ""
    """The lifecycle event this entry is a causal consequence of."""
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        if self.t1 is None:
            return 0.0
        return self.t1 - self.t0

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq, "kind": self.kind, "name": self.name,
            "t0": self.t0, "t1": self.t1, "duration_s": self.duration_s,
            "cause": self.cause, "attrs": dict(self.attrs),
        }


@dataclass
class RequestTrace:
    """The recorded lifecycle of one request."""

    request_id: int
    trace_id: str
    entries: list[TimelineEntry] = field(default_factory=list)
    _open: TimelineEntry | None = field(default=None, repr=False)

    def _last_name(self) -> str:
        return self.entries[-1].name if self.entries else ""

    def add_instant(self, name: str, ts: float, cause: str = "",
                    **attrs: Any) -> TimelineEntry:
        entry = TimelineEntry(
            seq=len(self.entries), kind="instant", name=name, t0=ts, t1=ts,
            cause=cause or self._last_name(), attrs=attrs)
        self.entries.append(entry)
        return entry

    def add_span(self, name: str, t0: float, t1: float, cause: str = "",
                 **attrs: Any) -> TimelineEntry:
        entry = TimelineEntry(
            seq=len(self.entries), kind="span", name=name, t0=t0, t1=t1,
            cause=cause or self._last_name(), attrs=attrs)
        self.entries.append(entry)
        return entry

    def open_span(self, name: str, t0: float, cause: str = "",
                  **attrs: Any) -> TimelineEntry:
        """Begin a span whose end is not yet known (a wait)."""
        self.close_open(t0)
        entry = TimelineEntry(
            seq=len(self.entries), kind="span", name=name, t0=t0, t1=None,
            cause=cause or self._last_name(), attrs=attrs)
        self.entries.append(entry)
        self._open = entry
        return entry

    def close_open(self, ts: float) -> None:
        """Close the currently open wait span (no-op when none is open)."""
        if self._open is not None:
            self._open.t1 = ts
            self._open = None

    @property
    def is_complete(self) -> bool:
        """The request reached a terminal instant (finish or fail)."""
        return bool(self.entries) and self.entries[-1].name in (
            "finish", "fail")


class RequestTracer:
    """Per-request lifecycle recorder, hooked from engine/scheduler/faults.

    ``coalesce_decode`` merges back-to-back ``decode.step`` spans into one
    entry counting its steps — 64 decode iterations stay legible as a
    single timeline row — while preserving exact start/end times.  Set it
    False to keep one entry per decode step batch.
    """

    def __init__(self, coalesce_decode: bool = True) -> None:
        self.coalesce_decode = coalesce_decode
        self.traces: dict[int, RequestTrace] = {}

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def trace(self, request_id: int) -> RequestTrace:
        trace = self.traces.get(request_id)
        if trace is None:
            trace = RequestTrace(request_id=request_id,
                                 trace_id=trace_id_for(request_id))
            self.traces[request_id] = trace
        return trace

    def trace_id(self, request_id: int) -> str:
        return self.trace(request_id).trace_id

    def request_for(self, trace_id: str) -> int:
        """Resolve a trace id (e.g. from a histogram exemplar) back to its
        request id."""
        for trace in self.traces.values():
            if trace.trace_id == trace_id:
                return trace.request_id
        raise KeyError(f"no trace with id {trace_id!r}")

    # ------------------------------------------------------------------ #
    # lifecycle hooks (called by the engine / scheduler / fault injector)
    # ------------------------------------------------------------------ #

    def on_admit(self, req: "Request", ts: float) -> None:
        """Request (re-)entered admission: open the queue wait."""
        trace = self.trace(req.request_id)
        if not trace.entries:
            trace.add_instant("admit", ts, cause="arrival",
                              arrival_time=req.arrival_time,
                              prompt_tokens=req.prompt_tokens,
                              max_tokens=req.sampling.max_tokens)
            cause = "admit"
        else:
            # only fault retries re-enter admission (preemptions requeue
            # inside the scheduler), so the cause is the backoff just ended
            trace.add_instant("admit", ts, retry=req.fault_retries)
            cause = "admit"
        trace.open_span("queue.wait", ts, cause=cause)

    def on_prefill(self, req: "Request", t0: float, t1: float,
                   tokens: int) -> None:
        """One prefill chunk of this request ran in [t0, t1]."""
        trace = self.trace(req.request_id)
        trace.close_open(t0)
        chunk = sum(1 for e in trace.entries if e.name == "prefill.chunk")
        trace.add_span("prefill.chunk", t0, t1, tokens=tokens, chunk=chunk)

    def on_first_token(self, req: "Request", ts: float) -> str:
        """First token sampled; returns the trace id (for exemplars)."""
        trace = self.trace(req.request_id)
        trace.add_instant("first_token", ts,
                          ttft_s=None if req.ttft is None else req.ttft)
        return trace.trace_id

    def on_decode(self, req: "Request", t0: float, t1: float,
                  batch_size: int) -> None:
        """This request advanced one token in a decode step batch."""
        trace = self.trace(req.request_id)
        last = trace.entries[-1] if trace.entries else None
        if (self.coalesce_decode and last is not None
                and last.name == "decode.step" and last.t1 is not None
                and abs(last.t1 - t0) < 1e-12):
            last.t1 = t1
            last.attrs["steps"] = last.attrs.get("steps", 1) + 1
            last.attrs["last_batch_size"] = batch_size
            return
        trace.add_span("decode.step", t0, t1, steps=1,
                       last_batch_size=batch_size)

    def on_preempt(self, req: "Request", ts: float) -> None:
        """KV-pressure preemption: the request loses its slots and waits
        for readmission (recompute policy)."""
        trace = self.trace(req.request_id)
        trace.close_open(ts)
        trace.add_instant("preempt", ts,
                          num_preemptions=req.num_preemptions)
        trace.open_span("requeue.wait", ts, cause="preempt")

    def on_fault_kill(self, req: "Request", ts: float, reason: str,
                      retry_at: float) -> None:
        """Fault killed the request; it backs off until ``retry_at`` and
        then re-enters admission (a fresh ``admit``/``queue.wait`` pair)."""
        trace = self.trace(req.request_id)
        trace.close_open(ts)
        trace.add_instant("fault.kill", ts, cause=f"fault:{reason}",
                          reason=reason)
        trace.add_span("fault.backoff", ts, retry_at, cause="fault.kill",
                       retry=req.fault_retries)

    def on_finish(self, req: "Request", ts: float) -> str:
        """Terminal success; returns the trace id (for exemplars)."""
        trace = self.trace(req.request_id)
        trace.close_open(ts)
        trace.add_instant("finish", ts,
                          e2e_s=None if req.e2e_latency is None
                          else req.e2e_latency,
                          generated_tokens=req.generated_tokens,
                          preemptions=req.num_preemptions,
                          fault_retries=req.fault_retries)
        return trace.trace_id

    def on_fail(self, req: "Request", ts: float, reason: str) -> None:
        """Terminal failure with its recorded reason."""
        trace = self.trace(req.request_id)
        trace.close_open(ts)
        trace.add_instant("fail", ts, reason=reason)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def timeline(self, request_id: int) -> list[dict[str, Any]]:
        """Deterministic timeline table of one request (list of dict rows,
        in causal order)."""
        trace = self.traces.get(request_id)
        if trace is None:
            raise KeyError(f"no trace recorded for request {request_id}")
        return [e.to_dict() for e in trace.entries]

    def render_timeline(self, request_id: int) -> str:
        """The timeline as an aligned text table (CLI / docs output)."""
        trace = self.traces.get(request_id)
        if trace is None:
            raise KeyError(f"no trace recorded for request {request_id}")
        lines = [f"request {request_id} ({trace.trace_id})",
                 f"{'#':>3} {'t0 (s)':>12} {'dur (s)':>12} "
                 f"{'event':<16} {'cause':<14} detail"]
        for e in trace.entries:
            detail = ", ".join(f"{k}={v}" for k, v in e.attrs.items())
            dur = "" if e.kind == "instant" else f"{e.duration_s:.6f}"
            lines.append(f"{e.seq:>3} {e.t0:>12.6f} {dur:>12} "
                         f"{e.name:<16} {e.cause:<14} {detail}")
        return "\n".join(lines)

    def chrome_events(self) -> list[dict[str, Any]]:
        """Chrome Trace Event dicts: one track (thread) per request.

        Track tids start at 1000 so they sort after the engine tracer's
        tracks when the two event lists are merged into one trace file.
        """
        events: list[dict[str, Any]] = []
        for rid in sorted(self.traces):
            trace = self.traces[rid]
            tid = 1000 + rid
            events.append({
                "name": "thread_name", "ph": "M", "pid": TRACE_PID,
                "tid": tid, "args": {"name": f"req {rid:04d}"},
            })
            for e in trace.entries:
                args = {"request_id": rid, "trace_id": trace.trace_id,
                        "cause": e.cause, **e.attrs}
                if e.kind == "instant":
                    events.append({
                        "name": e.name, "cat": "request", "ph": "i",
                        "s": "t", "pid": TRACE_PID, "tid": tid,
                        "ts": e.t0 * _SECONDS_TO_US, "args": args,
                    })
                    continue
                t1 = e.t0 if e.t1 is None else e.t1
                events.append({
                    "name": e.name, "cat": "request", "ph": "B",
                    "pid": TRACE_PID, "tid": tid,
                    "ts": e.t0 * _SECONDS_TO_US, "args": args,
                })
                events.append({
                    "name": e.name, "cat": "request", "ph": "E",
                    "pid": TRACE_PID, "tid": tid,
                    "ts": t1 * _SECONDS_TO_US,
                })
        return events

    def to_chrome_trace(self) -> dict[str, Any]:
        """Chrome Trace Event JSON (``traceEvents`` wrapper) of every
        request track."""
        return {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.reqtrace"},
        }

    def write(self, path: str | pathlib.Path) -> pathlib.Path:
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.to_chrome_trace()))
        return out
