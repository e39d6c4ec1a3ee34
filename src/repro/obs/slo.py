"""Declarative SLOs, error budgets and multi-window burn-rate alerts.

Serving quality is judged the SRE way: an :class:`SLO` declares an
objective over request outcomes (``p99 ttft < 0.5s``,
``availability >= 99.9%``), the :class:`SloTracker` scores every terminal
request against each objective on the simulated timeline, and
:class:`BurnRateRule` pages through the existing alert/flight-recorder
machinery when the error budget burns too fast over *two* windows at once
(Google SRE workbook chapter 5: a long window for significance, a short
window for freshness, so pages are neither noisy nor stale).

Wall-clock SRE windows scale onto simulated time through one knob:
``hour_s``, the simulated seconds standing in for one wall hour.  The
classic 30-day-budget policy (page at 14.4x over 1h+5m, ticket at 6x over
6h+30m) then transfers verbatim.

Everything here is a pure function of the simulated run: reports and
alert times replay bit-identically, which `repro slo --check` and the
flight-recorder property tests assert.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.obs.alerts import Alert, AlertRule
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    buckets_with_edges,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.engine import ServingEngine
    from repro.serving.request import Request

__all__ = [
    "SLO",
    "ErrorBudget",
    "SloTracker",
    "BurnRateRule",
    "sre_burn_rules",
    "fault_storm_config",
    "run_slo_scenario",
    "DEFAULT_SLOS",
]

#: request-outcome metrics an SLO can target, and the histogram each
#: aligns its threshold with (so exemplars and budgets read off the same
#: bucket edges)
_METRIC_HISTOGRAMS = {
    "ttft": "ttft_seconds",
    "itl": "itl_seconds",
    "e2e": "e2e_latency_seconds",
}

_SPEC_RE = re.compile(
    r"^\s*p(?P<pct>\d+(?:\.\d+)?)\s+(?P<metric>ttft|itl|e2e)\s*"
    r"(?:<|<=)\s*(?P<threshold>\d+(?:\.\d+)?)\s*(?:s|sec|seconds)?\s*$",
    re.IGNORECASE,
)
_AVAIL_RE = re.compile(
    r"^\s*availability\s*(?:>=|≥)\s*(?P<target>\d+(?:\.\d+)?)\s*%?\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class SLO:
    """One declarative service-level objective over request outcomes.

    ``metric`` is ``availability`` (request finished at all) or a latency
    view (``ttft``/``itl``/``e2e``, threshold in seconds); ``target`` is
    the attainment objective — ``p99 ttft < 2s`` means metric ``ttft``,
    ``threshold_s`` 2.0, ``target`` 0.99, and the error budget is the
    remaining 1%.
    """

    name: str
    metric: str
    target: float
    threshold_s: float | None = None

    def __post_init__(self) -> None:
        if self.metric not in ("availability", *_METRIC_HISTOGRAMS):
            raise ValueError(f"unknown SLO metric {self.metric!r}")
        if not (0.0 < self.target < 1.0):
            raise ValueError(
                f"target must be a fraction in (0, 1), got {self.target}")
        if self.metric == "availability":
            if self.threshold_s is not None:
                raise ValueError("availability SLOs take no threshold")
        elif self.threshold_s is None or self.threshold_s <= 0:
            raise ValueError(
                f"latency SLO {self.name!r} needs a positive threshold_s")

    @classmethod
    def parse(cls, spec: str) -> "SLO":
        """Parse a declarative spec: ``"p99 ttft < 0.5s"``,
        ``"availability >= 99.9%"``."""
        m = _SPEC_RE.match(spec)
        if m:
            pct = float(m.group("pct"))
            if not (0.0 < pct < 100.0):
                raise ValueError(f"percentile out of range in {spec!r}")
            metric = m.group("metric").lower()
            name = f"{metric}_p{m.group('pct').replace('.', '_')}"
            return cls(name=name, metric=metric, target=pct / 100.0,
                       threshold_s=float(m.group("threshold")))
        m = _AVAIL_RE.match(spec)
        if m:
            target = float(m.group("target"))
            if target > 1.0:  # given as a percentage
                target /= 100.0
            return cls(name="availability", metric="availability",
                       target=target)
        raise ValueError(
            f"cannot parse SLO spec {spec!r} (expected e.g. "
            "'p99 ttft < 0.5s' or 'availability >= 99.9%')")

    @property
    def budget_fraction(self) -> float:
        """Allowed bad fraction: the error budget, 1 - target."""
        return 1.0 - self.target

    def describe(self) -> str:
        if self.metric == "availability":
            return f"availability >= {self.target * 100:g}%"
        return (f"p{self.target * 100:g} {self.metric} < "
                f"{self.threshold_s:g}s")

    def is_good(self, req: "Request") -> bool:
        """Score one terminal request against this objective.

        Unfinished/failed requests are bad under every objective (a
        request that never produced its tokens met no latency target).
        """
        if not req.is_finished:
            return False
        if self.metric == "availability":
            return True
        if self.metric == "ttft":
            return req.ttft is not None and req.ttft <= self.threshold_s
        if self.metric == "e2e":
            return (req.e2e_latency is not None
                    and req.e2e_latency <= self.threshold_s)
        # itl: mean inter-token latency; single-token outputs have none
        from repro.serving.engine import ServingResult

        itl = ServingResult._mean_itl(req)
        return itl is None or itl <= self.threshold_s


DEFAULT_SLOS: tuple[SLO, ...] = (
    SLO(name="ttft_p99", metric="ttft", target=0.99, threshold_s=0.5),
    SLO(name="availability", metric="availability", target=0.999),
)
"""Default objectives for the canonical chaos scenario: p99 TTFT within
half a simulated second, three-nines availability."""


@dataclass(frozen=True)
class ErrorBudget:
    """Error-budget accounting of one SLO over a (partial) run."""

    slo: str
    objective: str
    total: int
    bad: int
    target: float

    @property
    def attainment(self) -> float:
        """Good fraction so far (1.0 before any sample)."""
        if self.total == 0:
            return 1.0
        return (self.total - self.bad) / self.total

    @property
    def budget_consumed(self) -> float:
        """Fraction of the error budget burnt: 1.0 = budget exhausted.

        ``bad / (total * (1 - target))`` — the standard request-based
        budget; >1 means the objective is already violated for this run.
        """
        if self.total == 0:
            return 0.0
        allowed = self.total * (1.0 - self.target)
        if allowed <= 0:
            return float(self.bad)
        return self.bad / allowed

    @property
    def budget_remaining(self) -> float:
        return 1.0 - self.budget_consumed

    def to_dict(self) -> dict[str, Any]:
        return {
            "slo": self.slo, "objective": self.objective,
            "target": self.target, "total": self.total, "bad": self.bad,
            "attainment": self.attainment,
            "budget_consumed": self.budget_consumed,
            "budget_remaining": self.budget_remaining,
        }


class _WindowIndex:
    """Sub-linear trailing-window counts over one append-only sample list.

    ``counts(cutoff)`` equals scanning the samples newest-first and
    stopping at the first one with ``t < cutoff`` — also when terminal
    times arrive out of order, as fleet replicas report them.  That
    sample is the latest one below the cutoff, and it is always a strict
    suffix minimum (older than everything after it), so a stack of suffix
    minima — ascending in both index and time — is bisected on the
    cutoff; prefix sums of the bad flags give the bad count.  The index
    catches up with samples appended since the last query, so it works
    over the tracker's plain sample list.
    """

    def __init__(self, samples: list[tuple[float, bool]]) -> None:
        self.samples = samples
        self._min_t: list[float] = []
        self._min_i: list[int] = []
        self._bad_prefix = [0]

    def counts(self, cutoff: float) -> tuple[int, int]:
        samples, min_t, min_i = self.samples, self._min_t, self._min_i
        bad_prefix = self._bad_prefix
        for i in range(len(bad_prefix) - 1, len(samples)):
            t, is_bad = samples[i]
            while min_t and min_t[-1] >= t:
                min_t.pop()
                min_i.pop()
            min_t.append(t)
            min_i.append(i)
            bad_prefix.append(bad_prefix[-1] + is_bad)
        n = len(samples)
        below = bisect.bisect_left(min_t, cutoff)
        start = min_i[below - 1] + 1 if below else 0
        return n - start, bad_prefix[n] - bad_prefix[start]


class SloTracker:
    """Scores terminal requests against each SLO on the simulated clock.

    Hangs off :class:`~repro.obs.instrument.Instrumentation` (``obs.slo``);
    the engine and fault injector report every terminal request once, and
    burn-rate rules query the sample windows each iteration.
    """

    def __init__(self, slos: Sequence[SLO] = DEFAULT_SLOS) -> None:
        slos = tuple(slos)
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        if not slos:
            raise ValueError("SloTracker needs at least one SLO")
        self.slos = slos
        # per SLO: time-ordered (terminal_time, is_bad) samples, with a
        # running bad count so budget() is O(1) instead of a rescan (the
        # fleet admission controller reads budgets on every policy tick)
        self._samples: dict[str, list[tuple[float, bool]]] = {
            s.name: [] for s in slos}
        self._bad: dict[str, int] = {s.name: 0 for s in slos}
        self._windows: dict[str, _WindowIndex] = {
            name: _WindowIndex(samples)
            for name, samples in self._samples.items()}

    def align_buckets(self, metrics: MetricsRegistry) -> None:
        """Pin each latency SLO threshold onto an exact histogram bucket
        edge (see :func:`repro.obs.metrics.buckets_with_edges`) so budget
        math never pays quantile-interpolation error."""
        edges: dict[str, list[float]] = {}
        for slo in self.slos:
            hist = _METRIC_HISTOGRAMS.get(slo.metric)
            if hist is not None and slo.threshold_s is not None:
                edges.setdefault(hist, []).append(slo.threshold_s)
        for name, thresholds in sorted(edges.items()):
            metrics.set_buckets(
                name, buckets_with_edges(DEFAULT_LATENCY_BUCKETS,
                                         *thresholds))

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def on_request_terminal(self, req: "Request", now: float) -> None:
        """Score one finished/failed request at its terminal time."""
        for slo in self.slos:
            bad = not slo.is_good(req)
            self._samples[slo.name].append((now, bad))
            self._bad[slo.name] += bad

    # ------------------------------------------------------------------ #
    # budgets and burn rates
    # ------------------------------------------------------------------ #

    def _slo(self, name: str) -> SLO:
        for slo in self.slos:
            if slo.name == name:
                return slo
        raise KeyError(f"unknown SLO {name!r}")

    def budget(self, name: str) -> ErrorBudget:
        slo = self._slo(name)
        samples = self._samples[name]
        return ErrorBudget(
            slo=name, objective=slo.describe(), total=len(samples),
            bad=self._bad[name], target=slo.target)

    def window_counts(self, name: str, now: float,
                      window_s: float) -> tuple[int, int]:
        """(total, bad) over the newest samples back to, not including,
        the latest one older than ``now - window_s`` — all samples with
        terminal time in ``[now - window_s, now]`` when times are fed in
        order.  O(log n) per query (see :class:`_WindowIndex`)."""
        return self._windows[name].counts(now - window_s)

    def burn_rate(self, name: str, now: float, window_s: float) -> float:
        """Error-budget burn rate over the trailing window: the bad
        fraction divided by the budget fraction.  1.0 = burning exactly
        the sustainable rate; 14.4 = the whole budget gone in 1/14.4 of
        the period."""
        slo = self._slo(name)
        total, bad = self.window_counts(name, now, window_s)
        if total == 0:
            return 0.0
        return (bad / total) / slo.budget_fraction

    def report(self, now: float) -> dict[str, Any]:
        """Deterministic JSON-able error-budget report."""
        return {
            "time": now,
            "budgets": [self.budget(s.name).to_dict() for s in self.slos],
        }


class BurnRateRule(AlertRule):
    """Multi-window burn-rate page over one SLO's error budget.

    Fires when the burn rate exceeds ``factor`` over *both* the long and
    the short window — the long window makes the page statistically
    significant, the short window makes sure the burn is still happening
    (SRE workbook multiwindow policy).  ``min_samples`` long-window
    samples are required so a single early failure cannot page on its
    own.
    """

    def __init__(self, slo: SLO, long_window_s: float,
                 short_window_s: float, factor: float,
                 min_samples: int = 4) -> None:
        if long_window_s <= 0 or short_window_s <= 0:
            raise ValueError("burn-rate windows must be positive")
        if short_window_s > long_window_s:
            raise ValueError("short window must not exceed the long window")
        if factor <= 0:
            raise ValueError("burn-rate factor must be positive")
        self.slo = slo
        self.long_window_s = long_window_s
        self.short_window_s = short_window_s
        self.factor = factor
        self.min_samples = min_samples
        self.name = (f"slo_burn_{slo.name}_"
                     f"{long_window_s:g}s")

    def check(self, engine: "ServingEngine") -> Alert | None:
        obs = engine.obs
        tracker = getattr(obs, "slo", None) if obs is not None else None
        if tracker is None or self.slo.name not in tracker._samples:
            return None
        now = engine.clock
        total, _ = tracker.window_counts(self.slo.name, now,
                                         self.long_window_s)
        if total < self.min_samples:
            return None
        long_burn = tracker.burn_rate(self.slo.name, now, self.long_window_s)
        if long_burn < self.factor:
            return None
        short_burn = tracker.burn_rate(self.slo.name, now,
                                       self.short_window_s)
        if short_burn < self.factor:
            return None
        budget = tracker.budget(self.slo.name)
        return Alert(
            self.name, now,
            f"error budget of '{self.slo.describe()}' burning at "
            f"{long_burn:.1f}x over {self.long_window_s:g}s and "
            f"{short_burn:.1f}x over {self.short_window_s:g}s "
            f"(page threshold {self.factor:g}x); "
            f"{budget.budget_consumed:.2f} of the run budget consumed",
            {"slo": self.slo.name, "objective": self.slo.describe(),
             "long_window_s": self.long_window_s,
             "long_burn_rate": long_burn,
             "short_window_s": self.short_window_s,
             "short_burn_rate": short_burn,
             "factor": self.factor,
             "budget": budget.to_dict()},
        )


def fault_storm_config():
    """The canonical ``ext_slo`` fault-storm deployment: the chaos
    workload grown (64 requests x 128 output tokens) and flapped hard
    (8 faults/s) so retries and terminal failures land while requests are
    still in flight — the regime where error budgets actually burn."""
    from repro.faults.harness import ChaosConfig

    return ChaosConfig(num_requests=64, output_tokens=128, fault_rate=8.0)


def run_slo_scenario(config=None, slos: Sequence[SLO] = DEFAULT_SLOS,
                     hour_s: float = 1.0,
                     out_dir=None, cluster: bool = False) -> dict[str, Any]:
    """Run the canonical chaos fault storm with SLO burn-rate paging armed.

    The ``ext_slo`` reference scenario behind ``repro slo``: the
    :func:`repro.faults.harness.chaos_serving_run` workload instrumented
    with an :class:`SloTracker` and :func:`sre_burn_rules` (flight-recorder
    bundles under ``out_dir`` when given).  Returns a deterministic
    JSON-able report — budgets, fired alerts, run summary — that replays
    byte-identically for a fixed :class:`ChaosConfig`.

    ``cluster=True`` additionally arms device/link telemetry on the chaos
    deployment (adding a ``"cluster"`` key to the report and a
    ``cluster.json`` to any flight-recorder bundle) — the source for the
    CI slo-gate run report.
    """
    from repro.faults.harness import ChaosRun, build_chaos_engine
    from repro.obs.alerts import AlertMonitor, FlightRecorder
    from repro.obs.cluster import ClusterTelemetry
    from repro.obs.instrument import Instrumentation

    tracker = SloTracker(slos)
    recorder = FlightRecorder(out_dir) if out_dir is not None else None
    monitor = AlertMonitor(rules=sre_burn_rules(slos, hour_s=hour_s),
                           recorder=recorder)
    obs = Instrumentation.on(alerts=monitor, slo=tracker)
    engine, injector = build_chaos_engine(config, instrumentation=obs)
    if cluster:
        obs.cluster = ClusterTelemetry(engine.perf, routing=obs.routing)
    run = ChaosRun(result=engine.run(), injector=injector,
                   schedule=injector.schedule)
    report = {
        "scenario": "chaos_fault_storm",
        "hour_s": hour_s,
        "slos": [s.describe() for s in tracker.slos],
        "summary": run.summary,
        "budgets": tracker.report(run.result.makespan)["budgets"],
        "alerts": monitor.summary(),
        "bundles": [str(b) for b in monitor.bundles],
    }
    if cluster:
        report["cluster"] = obs.cluster.summary()
    return report


def sre_burn_rules(slos: Sequence[SLO] = DEFAULT_SLOS,
                   hour_s: float = 1.0,
                   min_samples: int = 4) -> list[AlertRule]:
    """The SRE-workbook multiwindow policy scaled to simulated time.

    ``hour_s`` simulated seconds stand in for one wall hour; each SLO
    gets the fast page (14.4x over 1h + 5m, budget gone in ~2 days) and
    the slow page (6x over 6h + 30m, gone in ~5 days).
    """
    rules: list[AlertRule] = []
    for slo in slos:
        rules.append(BurnRateRule(
            slo, long_window_s=1.0 * hour_s,
            short_window_s=hour_s / 12.0, factor=14.4,
            min_samples=min_samples))
        rules.append(BurnRateRule(
            slo, long_window_s=6.0 * hour_s,
            short_window_s=hour_s / 2.0, factor=6.0,
            min_samples=min_samples))
    return rules
