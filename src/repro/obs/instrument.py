"""The single optional handle instrumented components share.

Every instrumented call site in the serving/perf-model stack takes an
optional :class:`Instrumentation` (default ``None``) and guards its hooks
with ``if obs is not None`` — so the unobserved path costs one comparison
and produces byte-identical results to uninstrumented code.

``Instrumentation.on()`` builds a live tracer + metrics registry (and,
given a MoE model, an expert-routing probe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import RequestTracer
from repro.obs.routing import EngineRoutingProbe
from repro.obs.trace import SpanTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.alerts import AlertMonitor
    from repro.obs.cluster import ClusterTelemetry
    from repro.obs.slo import SloTracker

__all__ = ["Instrumentation"]


@dataclass
class Instrumentation:
    """Tracer + metrics registry + optional routing probe, as one handle."""

    tracer: SpanTracer = field(default_factory=SpanTracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    routing: EngineRoutingProbe | None = None
    alerts: "AlertMonitor | None" = None
    """Optional alert rules engine (see :mod:`repro.obs.alerts`): evaluated
    once per engine iteration and at run end; dumps a flight-recorder
    bundle when a rule trips."""
    reqtrace: RequestTracer | None = None
    """Optional request-scoped tracer (see :mod:`repro.obs.reqtrace`):
    records one causal lifecycle timeline per request on the simulated
    clock."""
    slo: "SloTracker | None" = None
    """Optional SLO error-budget tracker (see :mod:`repro.obs.slo`):
    scores every terminal request against declared objectives so
    burn-rate alert rules can page."""
    cluster: "ClusterTelemetry | None" = None
    """Optional device-and-link telemetry (see :mod:`repro.obs.cluster`):
    per-device occupancy lanes, per-link interconnect accounting, expert
    heat windows, and MoE-CAP Sparse-MBU/MFU gauges.  Attach after
    construction — it needs the deployment's perf model:
    ``obs.cluster = ClusterTelemetry(perf, routing=obs.routing)``."""
    now: float = 0.0
    """Mirror of the owning engine's simulated clock, updated each
    iteration so clock-less components (scheduler, KV cache) can stamp
    spans at the current simulated time."""

    @classmethod
    def on(cls, model=None, routing_rng: np.random.Generator | None = None,
           alerts: "AlertMonitor | None" = None,
           reqtrace: bool = True,
           slo: "SloTracker | None" = None,
           **probe_kwargs) -> "Instrumentation":
        """Fully-enabled instrumentation.

        ``model`` (a :class:`~repro.models.config.ModelConfig` with MoE
        layers) additionally attaches an expert-routing probe; ``alerts``
        attaches an :class:`~repro.obs.alerts.AlertMonitor`; ``reqtrace``
        (default on) attaches a per-request lifecycle tracer; ``slo``
        attaches an :class:`~repro.obs.slo.SloTracker`, which also pins
        its latency thresholds onto exact histogram bucket edges.
        """
        routing = None
        if model is not None and getattr(model, "moe", None) is not None:
            routing = EngineRoutingProbe(model, rng=routing_rng, **probe_kwargs)
        obs = cls(routing=routing, alerts=alerts,
                  reqtrace=RequestTracer() if reqtrace else None, slo=slo)
        if slo is not None:
            slo.align_buckets(obs.metrics)
        return obs
