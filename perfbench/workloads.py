"""The benchmark's workloads: seeded inputs, deployments, runs and checks.

Each workload has four steps, kept apart so the harness can time them
separately:

* ``setup(seed)`` builds the deployment (model, perf model, engine or
  fleet, instrumentation).  It runs inside ``setup_s``.
* ``inputs(seed)`` generates the inputs the program receives: a
  ``Request`` list, or the experiment ids.  It runs outside every timer.
* ``run(state, inputs)`` hands the inputs over (request submission
  included) and returns when the program's result is back.  It is
  ``wall_s``.
* ``check(state, out)`` audits the result.  It runs outside every timer.

The inputs are generated here, from the seed, with the benchmark's own
code, so a change to the program's workload helpers cannot change what is
measured.  Arrivals are open-loop: the whole schedule is fixed before the
run starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import pathlib
import statistics
import time

import numpy as np

from repro.core.registry import list_experiments, run_experiment
from repro.faults.invariants import InvariantViolation, check_final_invariants
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.fleet.admission import AdmissionConfig
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.invariants import check_fleet_invariants, fleet_digest
from repro.fleet.simulator import FleetConfig, FleetSimulator
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.moe.router import TopKRouter
from repro.obs.alerts import AlertMonitor, default_rules
from repro.obs.instrument import Instrumentation
from repro.obs.regress import BaselineStore, compare_fingerprints
from repro.obs.slo import DEFAULT_SLOS, SloTracker, sre_burn_rules
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine
from repro.serving.request import Request, SamplingParams
from repro.serving.scheduler import SchedulerConfig
from run import PAPER_FIGURES

MODEL = "OLMoE-1B-7B"
"""A MoE model that fits one simulated H100."""

# serve_steady / serve_observed: one engine, Poisson arrivals below the
# knee.  At these lengths p99 TTFT stays near 20 ms up to ~50 req/s and
# jumps past 1 s by 60 req/s, so 32 req/s keeps the engine busy without a
# growing backlog.
SERVE_RATE_RPS = 32.0
SERVE_STEADY_REQUESTS = 4000
SERVE_OBSERVED_REQUESTS = 300
SERVE_MEAN_PROMPT = 512
SERVE_MEAN_OUTPUT = 128
SERVE_SIGMA = 0.4
SERVE_MAX_NUM_SEQS = 128
SERVE_KV_POOL_TOKENS = 262_144

# fleet_templated: one simulated "day" of diurnal traffic over a
# prefix-affinity fleet, with replica kills throughout.
FLEET_REQUESTS = 6000
FLEET_DAY_S = 40.0
FLEET_BASE_RPS = 30.0
FLEET_PEAK_RPS = 240.0
FLEET_MEAN_PROMPT = 192
FLEET_MEAN_OUTPUT = 48
FLEET_SIGMA = 0.35
FLEET_TEMPLATES = 6
FLEET_TEMPLATED_FRACTION = 0.8
FLEET_PREFIX_TOKENS = 128
FLEET_BLOCK_SIZE = 16
FLEET_KILLS = 20
FLEET_MEAN_OUTAGE_S = 2.0
FLEET_PERMANENT_KILLS = 5
FLEET_INITIAL_REPLICAS = 4
FLEET_AUTOSCALER = AutoscalerConfig(min_replicas=2, max_replicas=8,
                                    interval_s=0.5)

_NORMAL = statistics.NormalDist()

CEILING_DEFECT = "autoscaler scaled above the ceiling"
"""Message prefix of the fleet audit's ceiling check.  Heals spawn
replacement replicas without regard to ``max_replicas``; the benchmark
reports this defect as found instead of counting it as a failed check
(see README.md)."""


class Checks:
    """Named pass/fail results of one run, plus known defects found,
    keyed by the per-layer metric that reports them."""

    def __init__(self) -> None:
        self.run = 0
        self.failures: list[str] = []
        self.known_defects: dict[str, str] = {}

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.run += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def audit(self, name: str, fn, *args) -> None:
        """Run one of the program's invariant audits as a check."""
        try:
            fn(*args)
        except InvariantViolation as exc:
            self.expect(name, False, str(exc))
        else:
            self.expect(name, True)


def _hex(x: float | None) -> str:
    return "None" if x is None else float(x).hex()


def outcome_digest(requests: list[Request]) -> str:
    """SHA-256 over each request's state, first-token time, finish time and
    token count, with times as hex floats, in request-id order."""
    h = hashlib.sha256()
    for r in sorted(requests, key=lambda r: r.request_id):
        h.update(repr((r.request_id, r.state.value, _hex(r.first_token_time),
                       _hex(r.finish_time), r.generated_tokens)).encode())
    return h.hexdigest()


def _lengths(rng: np.random.Generator, n: int, mean: float, sigma: float,
             low: int, high: int) -> np.ndarray:
    """Log-normal token counts with the given mean, clipped to [low, high].

    Stratified: the ``i``-th draw falls in the ``perm[i]``-th of ``n``
    equal-probability slices of the distribution, so each seed deals the
    same token totals to a different order of requests.  The host work of
    a run then varies little with the seed."""
    mu = math.log(mean) - sigma * sigma / 2.0
    u = (rng.permutation(n) + rng.random(n)) / n
    z = np.array([_NORMAL.inv_cdf(x) for x in u])
    return np.clip(np.rint(np.exp(mu + sigma * z)), low, high) \
        .astype(np.int64)


def _poisson_schedule(rng: np.random.Generator, n: int,
                      rate_rps: float) -> np.ndarray:
    """``n`` arrivals of a Poisson process at ``rate_rps``, conditioned on
    all ``n`` falling in ``[0, n / rate_rps)``: sorted uniform points.
    Conditioning fixes the span of the trace, so the amount of simulated
    work does not vary with the seed."""
    return np.sort(rng.uniform(0.0, n / rate_rps, n))


def _diurnal_rate(t: np.ndarray) -> np.ndarray:
    swing = 0.5 * (1.0 - np.cos(2.0 * np.pi * t / FLEET_DAY_S))
    return FLEET_BASE_RPS + (FLEET_PEAK_RPS - FLEET_BASE_RPS) * swing


def _diurnal_schedule(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` arrivals of a nonhomogeneous Poisson process over one day,
    conditioned on all ``n`` falling in the day: points drawn with density
    proportional to the diurnal rate (rejection sampling), sorted."""
    kept: list[np.ndarray] = []
    have = 0
    while have < n:
        t = rng.uniform(0.0, FLEET_DAY_S, 2 * n)
        accept = rng.uniform(0.0, FLEET_PEAK_RPS, 2 * n) < _diurnal_rate(t)
        kept.append(t[accept])
        have += int(accept.sum())
    return np.sort(np.concatenate(kept)[:n])


def serve_requests(seed: int, n: int) -> list[Request]:
    rng = np.random.default_rng(seed)
    arrivals = _poisson_schedule(rng, n, SERVE_RATE_RPS)
    prompts = _lengths(rng, n, SERVE_MEAN_PROMPT, SERVE_SIGMA, 8, 4096)
    outputs = _lengths(rng, n, SERVE_MEAN_OUTPUT, SERVE_SIGMA, 8, 1024)
    return [Request(request_id=i, prompt_tokens=int(p),
                    sampling=SamplingParams(max_tokens=int(o)),
                    arrival_time=float(t))
            for i, (t, p, o) in enumerate(zip(arrivals, prompts, outputs))]


def fleet_requests(seed: int) -> list[Request]:
    """Templated prompts: a share of requests starts with one of a few
    shared preambles, whose full KV blocks carry content hashes (block
    ``i`` of template ``t`` hashes to ``((t + 1) << 32) + i``)."""
    n = FLEET_REQUESTS
    rng = np.random.default_rng(seed)
    arrivals = _diurnal_schedule(rng, n)
    prompts = _lengths(rng, n, FLEET_MEAN_PROMPT, FLEET_SIGMA, 8, 4096)
    outputs = _lengths(rng, n, FLEET_MEAN_OUTPUT, FLEET_SIGMA, 8, 1024)
    templated = rng.random(n) < FLEET_TEMPLATED_FRACTION
    template = rng.integers(FLEET_TEMPLATES, size=n)
    blocks = FLEET_PREFIX_TOKENS // FLEET_BLOCK_SIZE
    requests = []
    for i in range(n):
        prompt, hashes = int(prompts[i]), ()
        if templated[i]:
            prompt = max(prompt, FLEET_PREFIX_TOKENS + 1)
            base = (int(template[i]) + 1) << 32
            hashes = tuple(base + b for b in range(blocks))
        requests.append(Request(
            request_id=i, prompt_tokens=prompt,
            sampling=SamplingParams(max_tokens=int(outputs[i])),
            arrival_time=float(arrivals[i]), prompt_block_hashes=hashes))
    return requests


def replica_kills(seed: int) -> FaultSchedule:
    """A replica storm with a fixed number of kills at uniform times over
    the day; outages are exponential, and a fixed share never heals."""
    rng = np.random.default_rng([seed, 1])
    times = np.sort(rng.uniform(0.0, FLEET_DAY_S, FLEET_KILLS))
    outages = rng.exponential(FLEET_MEAN_OUTAGE_S, FLEET_KILLS)
    permanent = set(rng.choice(FLEET_KILLS, FLEET_PERMANENT_KILLS,
                               replace=False).tolist())
    targets = rng.integers(0, 1 << 16, FLEET_KILLS)
    return FaultSchedule(events=tuple(
        FaultEvent(time=float(times[i]), kind=FaultKind.REPLICA_LOSS,
                   duration_s=math.inf if i in permanent
                   else float(outages[i]),
                   target=int(targets[i]))
        for i in range(FLEET_KILLS)))


def _serving_engine(instrumentation: Instrumentation | None) -> ServingEngine:
    perf = InferencePerfModel(get_model(MODEL), H100_SXM,
                              instrumentation=instrumentation)
    return ServingEngine(
        perf, scheduler_config=SchedulerConfig(max_num_seqs=SERVE_MAX_NUM_SEQS),
        kv_pool_tokens=SERVE_KV_POOL_TOKENS, instrumentation=instrumentation)


def _full_instrumentation() -> Instrumentation:
    """Tracer, metrics, request traces, routing probe, SLO tracker, and
    the default plus burn-rate alert rules."""
    return Instrumentation.on(
        model=get_model(MODEL), slo=SloTracker(DEFAULT_SLOS),
        alerts=AlertMonitor(rules=default_rules()
                            + sre_burn_rules(DEFAULT_SLOS)))


def _check_serving(checks: Checks, engine: ServingEngine, result) -> None:
    checks.audit("final invariants", check_final_invariants, result, engine)
    unfinished = [r.request_id for r in result.requests if not r.is_finished]
    checks.expect("every request finished", not unfinished,
                  f"{len(unfinished)} did not, first {unfinished[:4]}")
    values = {
        "makespan": result.makespan,
        "throughput_tok_s": result.throughput_tok_s,
        "mean_ttft": result.mean_ttft(), "p50_ttft": result.p50_ttft(),
        "p99_ttft": result.p99_ttft(), "p99_e2e": result.p99_e2e(),
        "p50_itl": result.p50_itl, "p99_itl": result.p99_itl,
    }
    bad = {k: v for k, v in values.items() if not math.isfinite(v)}
    checks.expect("metrics finite", not bad, repr(bad))


def _generated_tokens(requests: list[Request]) -> int:
    return sum(r.generated_tokens for r in requests if r.is_finished)


class ServeSteady:
    """One engine, no instrumentation: submission, the scheduler, decode
    windows and vectorized pricing do the work."""

    requests = SERVE_STEADY_REQUESTS

    def setup(self, seed: int):
        return _serving_engine(None)

    def inputs(self, seed: int):
        return serve_requests(seed, self.requests)

    def run(self, engine: ServingEngine, requests: list[Request]):
        for request in requests:
            engine.submit(request)
        return engine.run()

    def summary(self, engine, result) -> dict:
        return {"sim_tokens": _generated_tokens(result.requests),
                "digest": outcome_digest(result.requests),
                "preemptions": result.num_preemptions,
                "prefix_hit_rate": result.kv_hit_rate}

    def check(self, engine, result, seed: int) -> Checks:
        checks = Checks()
        _check_serving(checks, engine, result)
        return checks


class ServeObserved(ServeSteady):
    """The ``serve_steady`` generator with fewer requests, fully observed.
    The observation products a user reads (SLO report, alerts, metrics
    snapshot, routing summary) are part of the result, so they are timed."""

    requests = SERVE_OBSERVED_REQUESTS

    def setup(self, seed: int):
        obs = _full_instrumentation()
        return obs, _serving_engine(obs)

    def run(self, state, requests: list[Request]):
        obs, engine = state
        result = super().run(engine, requests)
        report = {
            "slo": obs.slo.report(result.makespan),
            "alerts": obs.alerts.summary(),
            "metrics": obs.metrics.snapshot(),
            "routing": obs.routing.telemetry.summary(),
        }
        return result, report

    def summary(self, state, out) -> dict:
        return super().summary(state[1], out[0])

    def check(self, state, out, seed: int) -> Checks:
        obs, engine = state
        result, report = out
        checks = Checks()
        _check_serving(checks, engine, result)
        n = len(result.requests)
        totals = [b["total"] for b in report["slo"]["budgets"]]
        checks.expect("every request scored against every SLO",
                      totals == [n] * len(DEFAULT_SLOS), repr(totals))
        checks.expect("every request traced", len(obs.reqtrace.traces) == n,
                      f"{len(obs.reqtrace.traces)} of {n}")
        checks.expect("routing probe saw tokens",
                      report["routing"].get("activations", 0) > 0)
        unobserved = super().run(_serving_engine(None), self.inputs(seed))
        checks.expect("observed outcomes equal unobserved outcomes",
                      outcome_digest(unobserved.requests)
                      == outcome_digest(result.requests))
        return checks


class FleetTemplated:
    """A prefix-affinity fleet with prefix caching, the autoscaler and a
    replica storm, under diurnal templated traffic."""

    def setup(self, seed: int):
        config = FleetConfig(
            model_name=MODEL, num_replicas=FLEET_INITIAL_REPLICAS,
            policy="prefix_affinity", kv_pool_tokens=32_768,
            max_num_seqs=16, enable_prefix_caching=True,
            admission=AdmissionConfig(max_backlog_per_replica=48),
            autoscaler=FLEET_AUTOSCALER, replica_kills=replica_kills(seed))
        return FleetSimulator(config)

    def inputs(self, seed: int):
        return fleet_requests(seed)

    def run(self, sim: FleetSimulator, requests: list[Request]):
        return sim.run(requests)

    def summary(self, sim, result) -> dict:
        kills = sim.config.replica_kills
        heals = sum(1 for e in kills if not e.is_permanent)
        return {
            "sim_tokens": _generated_tokens(result.requests),
            "digest": fleet_digest(result),
            "preemptions": sum(r.num_preemptions for r in result.requests),
            "prefix_hit_rate": result.kv_hit_rate,
            "fleet.events": (len(result.requests) + len(kills) + heals
                             + len(result.scale_decisions)),
            "fleet.reroutes": result.num_rerouted,
            "fleet.shed": result.num_shed,
            "fleet.peak_replicas": result.peak_replicas,
            "fleet.max_replicas": FLEET_AUTOSCALER.max_replicas,
            "fleet.replicas_spawned": len(result.replicas),
            "faults.replica_kills": result.num_kills,
        }

    def check(self, sim, result, seed: int) -> Checks:
        checks = Checks()
        checks.audit("fleet invariants", check_fleet_invariants, result)
        try:
            check_fleet_invariants(result, FLEET_AUTOSCALER)
        except InvariantViolation as exc:
            if str(exc).startswith(CEILING_DEFECT):
                checks.known_defects["fleet.audit_ceiling_found"] = \
                    f"the fleet audit raised: {exc}"
            else:
                checks.expect("autoscaler bounds", False, str(exc))
        else:
            checks.expect("autoscaler bounds", True)
        ceiling = FLEET_AUTOSCALER.max_replicas
        if result.peak_replicas > ceiling:
            checks.known_defects["fleet.ceiling_breached"] = (
                f"fleet peak_replicas {result.peak_replicas} is above the "
                f"configured ceiling {ceiling}")
        values = {"availability": result.availability,
                  "p99_ttft": result.p99_ttft(),
                  "kv_hit_rate": result.kv_hit_rate,
                  "makespan": result.makespan}
        bad = {k: v for k, v in values.items() if not math.isfinite(v)}
        checks.expect("metrics finite", not bad, repr(bad))
        return checks


class PaperFigures:
    """``run_experiment`` over the paper's table and figures.  The grids
    are the paper's, so the seed is unused.

    No serving engine runs at scale here; the only token-level simulation
    is the functional MoE router (fig15), so the simulated tokens of this
    workload are the tokens routed through ``TopKRouter``."""

    span = staticmethod(lambda name: contextlib.nullcontext())
    """Span factory around each experiment; the traced run replaces it."""

    def setup(self, seed: int):
        missing = set(PAPER_FIGURES) - set(list_experiments())
        if missing:
            raise KeyError(f"experiments not registered: {sorted(missing)}")
        routed = {"tokens": 0}
        for name in ("route", "route_counts"):
            def counted(router, x, _fn=getattr(TopKRouter, name)):
                routed["tokens"] += len(x)
                return _fn(router, x)
            setattr(TopKRouter, name, counted)
        return routed

    def inputs(self, seed: int):
        return PAPER_FIGURES

    def run(self, routed, exp_ids):
        results, walls = [], {}
        for exp_id in exp_ids:
            t0 = time.perf_counter()
            with self.span(f"experiments.{exp_id}"):
                results.append(run_experiment(exp_id))
            walls[exp_id] = time.perf_counter() - t0
        return results, walls

    def summary(self, routed, out) -> dict:
        results, walls = out
        h = hashlib.sha256()
        for result in results:
            for name, digest in sorted(result.fingerprint().digests.items()):
                h.update(f"{result.exp_id}/{name}/{digest}".encode())
        summary = {"sim_tokens": routed["tokens"], "digest": h.hexdigest(),
                   "preemptions": 0, "prefix_hit_rate": 0.0}
        summary.update({f"experiments.{k}.wall_s": v
                        for k, v in walls.items()})
        return summary

    def check(self, routed, out, seed: int) -> Checks:
        store = BaselineStore(pathlib.Path(__file__).resolve().parents[1])
        checks = Checks()
        for result in out[0]:
            baseline = store.latest_fingerprint(result.exp_id)
            if baseline is None:
                checks.expect(f"{result.exp_id} fingerprint", False,
                              "no committed baseline")
                continue
            drifts = compare_fingerprints(baseline, result.fingerprint())
            checks.expect(f"{result.exp_id} fingerprint", not drifts,
                          "; ".join(d.describe() for d in drifts[:3]))
        return checks


WORKLOADS = {
    "serve_steady": ServeSteady,
    "serve_observed": ServeObserved,
    "fleet_templated": FleetTemplated,
    "paper_figures": PaperFigures,
}
