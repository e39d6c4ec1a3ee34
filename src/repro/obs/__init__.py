"""Observability for the simulated serving stack (spans, metrics, routing).

Three pillars, one optional handle:

* :mod:`repro.obs.trace` — nested spans on the simulated clock, exported
  as Chrome Trace Event JSON (open in Perfetto / ``chrome://tracing``).
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket histograms
  with Prometheus text exposition and a JSON snapshot.
* :mod:`repro.obs.routing` — live expert-activation telemetry subscribed
  to routers, regenerating Fig. 15-style data from engine runs.

On top of the pillars sit the continuous-performance tools:

* :mod:`repro.obs.fingerprint` / :mod:`repro.obs.regress` — deterministic
  experiment fingerprints, ``BENCH_<figure>.json`` baselines and drift
  detection (``repro bench --record/--check/--trend``).
* :mod:`repro.obs.profile` — cost-attribution profiler folding the span
  stream into per-phase × per-component tables, folded-stack flamegraph
  export and roofline-backed speedup advice (``repro profile``).
* :mod:`repro.obs.alerts` — alert rules over live engine state with
  flight-recorder bundles for postmortems.
* :mod:`repro.obs.reqtrace` — request-scoped causal lifecycle timelines
  (admit → queue → prefill chunks → decode → preempt/retry → finish),
  linked to histogram buckets through exemplar trace IDs.
* :mod:`repro.obs.slo` — declarative SLOs, error-budget accounting and
  SRE-style multi-window burn-rate alert rules (``repro slo``).
* :mod:`repro.obs.cluster` — device-and-link telemetry: per-simulated-GPU
  occupancy lanes, per-link interconnect accounting, expert-heat windows
  and MoE-CAP Sparse-MFU/MBU gauges (``repro report``, ``repro trace
  --cluster``).
* :mod:`repro.obs.report` — the flight-recorder/run-report renderer
  folding metrics, timelines, heat and SLO budgets into one
  deterministic markdown/HTML document.

Thread an :class:`Instrumentation` through
:class:`~repro.serving.engine.ServingEngine` /
:class:`~repro.perfmodel.inference.InferencePerfModel` to record; leave it
``None`` (the default) for byte-identical uninstrumented behaviour.  See
``docs/observability.md``.
"""

from repro.obs.alerts import (
    Alert,
    AlertMonitor,
    AlertRule,
    DeviceSaturationRule,
    FlightRecorder,
    default_rules,
)
from repro.obs.cluster import (
    ClusterTelemetry,
    HeatWindow,
    LinkSpec,
    StepShape,
    step_cost_totals,
    step_utilization,
)
from repro.obs.fingerprint import Fingerprint, fingerprint_result
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    MetricsRegistry,
    buckets_with_edges,
)
from repro.obs.reqtrace import RequestTrace, RequestTracer, trace_id_for
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLO,
    BurnRateRule,
    ErrorBudget,
    SloTracker,
    sre_burn_rules,
)
from repro.obs.profile import CostProfile, ProfileReport, profile_serving_run
from repro.obs.regress import (
    BaselineStore,
    Drift,
    Tolerance,
    compare_fingerprints,
)
from repro.obs.report import (
    render_bundle_report,
    render_run_report,
    render_scenario_report,
    report_html,
)
from repro.obs.routing import EngineRoutingProbe, RoutingTelemetry
from repro.obs.trace import SpanTracer

__all__ = [
    "Instrumentation",
    "SpanTracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Exemplar",
    "buckets_with_edges",
    "DEFAULT_LATENCY_BUCKETS",
    "RequestTrace",
    "RequestTracer",
    "trace_id_for",
    "SLO",
    "SloTracker",
    "ErrorBudget",
    "BurnRateRule",
    "sre_burn_rules",
    "DEFAULT_SLOS",
    "RoutingTelemetry",
    "EngineRoutingProbe",
    "Fingerprint",
    "fingerprint_result",
    "BaselineStore",
    "Tolerance",
    "Drift",
    "compare_fingerprints",
    "CostProfile",
    "ProfileReport",
    "profile_serving_run",
    "Alert",
    "AlertRule",
    "AlertMonitor",
    "DeviceSaturationRule",
    "FlightRecorder",
    "default_rules",
    "ClusterTelemetry",
    "StepShape",
    "LinkSpec",
    "HeatWindow",
    "step_cost_totals",
    "step_utilization",
    "render_run_report",
    "render_scenario_report",
    "render_bundle_report",
    "report_html",
]
