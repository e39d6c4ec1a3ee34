"""Observed-run golden: every telemetry sink of four instrumented runs.

``tests/data/observed_run_golden.json`` holds sha256 digests of what an
observed serving run produces — the Chrome trace, the metrics snapshot,
every request timeline, the routing and cluster summaries, the SLO
report, the fired alerts, every flight-recorder bundle file and the
engine's ``run_digest`` — over four workloads:

* ``traced``: the reference burst under full instrumentation;
* ``clustered``: the TP4·EP4 cluster-telemetry run with a flight
  recorder on the default alert rules;
* ``slo_load``: the ``ext_slo`` 2 req/s load point (lean SLO
  instrumentation, tracer off);
* ``kv_high_water``: the 8 req/s Poisson run under full instrumentation
  with an SLO tracker and a KV high-water rule whose first trip lands on
  an iteration the unobserved twin advances inside a decode window.

The digests were recorded from an engine whose observed runs took only
scalar ``step()`` iterations; they must hold with decode windows on and
under ``REPRO_NO_VECTORIZE_ENGINE=1``.  The same-path test checks that an
observed run and its unobserved twin advance the same iterations through
``advance_window`` and make the same number of ``step()`` calls.

Re-record only for an intentional telemetry change::

    PYTHONPATH=src python tests/test_observed_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from repro.experiments.slo import LOAD_SLOS, _lean_slo_obs
from repro.faults.invariants import run_digest
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.obs.alerts import AlertMonitor, FlightRecorder, KvHighWaterRule
from repro.obs.harness import (
    REFERENCE_MODEL,
    REFERENCE_PLAN,
    clustered_serving_run,
    poisson_serving_run,
    reference_serving_run,
    traced_serving_run,
)
from repro.obs.instrument import Instrumentation
from repro.obs.slo import DEFAULT_SLOS, SloTracker
from repro.perfmodel import stepcache
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine
from repro.serving.events import EventType
from repro.serving.scheduler import SchedulerConfig
from repro.workloads.generator import LengthDistribution
from repro.workloads.traces import poisson_arrivals

GOLDEN = pathlib.Path(__file__).parent / "data" / "observed_run_golden.json"

WORKLOADS = ("traced", "clustered", "slo_load", "kv_high_water")

KV_HIGH_WATER = 0.0314
"""KV utilization threshold of the ``kv_high_water`` workload: the 8 req/s
run peaks at 3.14% of its 262,144-token pool, and the first iteration at
or above this mark is a quiet decode step (asserted below)."""


@contextlib.contextmanager
def _engine_mode(vectorize: bool):
    """Set/clear ``REPRO_NO_VECTORIZE_ENGINE`` around a run."""
    saved = os.environ.get("REPRO_NO_VECTORIZE_ENGINE")
    if vectorize:
        os.environ.pop("REPRO_NO_VECTORIZE_ENGINE", None)
    else:
        os.environ["REPRO_NO_VECTORIZE_ENGINE"] = "1"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_VECTORIZE_ENGINE", None)
        else:
            os.environ["REPRO_NO_VECTORIZE_ENGINE"] = saved


def _observed(name: str, bundle_dir: pathlib.Path):
    """Run workload ``name`` observed; returns ``(result, obs)``."""
    if name == "traced":
        return traced_serving_run(num_requests=6, input_tokens=128,
                                  output_tokens=32)
    if name == "clustered":
        monitor = AlertMonitor(recorder=FlightRecorder(bundle_dir))
        return clustered_serving_run(alerts=monitor)
    if name == "slo_load":
        obs = _lean_slo_obs(LOAD_SLOS)
        return poisson_serving_run(arrival_rate_rps=2.0, num_requests=120,
                                   instrumentation=obs), obs
    if name == "kv_high_water":
        monitor = AlertMonitor(rules=[KvHighWaterRule(KV_HIGH_WATER)],
                               recorder=FlightRecorder(bundle_dir))
        obs = Instrumentation.on(model=get_model(REFERENCE_MODEL),
                                 alerts=monitor,
                                 slo=SloTracker(DEFAULT_SLOS))
        return poisson_serving_run(8.0, instrumentation=obs), obs
    raise KeyError(name)


def _clustered_twin():
    """:func:`clustered_serving_run`'s deployment and requests, unobserved."""
    rng = np.random.default_rng(11)
    perf = InferencePerfModel(get_model(REFERENCE_MODEL), H100_SXM,
                              plan=REFERENCE_PLAN)
    engine = ServingEngine(perf,
                           scheduler_config=SchedulerConfig(max_num_seqs=128),
                           kv_pool_tokens=262_144)
    arrivals = poisson_arrivals(8.0, 48, rng)
    dist = LengthDistribution(mean_input=512, mean_output=128, sigma=0.4)
    for req in dist.requests(48, rng, arrival_times=arrivals):
        engine.submit(req)
    return engine.run()


def _unobserved(name: str):
    """The same requests on the same deployment, with no instrumentation."""
    if name == "traced":
        return reference_serving_run(num_requests=6, input_tokens=128,
                                     output_tokens=32)
    if name == "clustered":
        return _clustered_twin()
    if name == "slo_load":
        return poisson_serving_run(arrival_rate_rps=2.0, num_requests=120)
    if name == "kv_high_water":
        return poisson_serving_run(8.0)
    raise KeyError(name)


def _sha(payload: str | bytes) -> str:
    if isinstance(payload, str):
        payload = payload.encode()
    return hashlib.sha256(payload).hexdigest()


def _sha_json(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True, default=repr))


def digests(name: str) -> dict[str, str]:
    """Digest every sink of one observed run of workload ``name``."""
    with tempfile.TemporaryDirectory() as tmp:
        bundle_dir = pathlib.Path(tmp)
        stepcache.clear()
        result, obs = _observed(name, bundle_dir)
        out = {
            "trace": _sha_json(obs.tracer.to_chrome_trace()),
            "metrics": _sha(obs.metrics.to_json()),
            "run_digest": run_digest(result),
        }
        if obs.reqtrace is not None:
            out["timelines"] = _sha_json(
                [[rid, obs.reqtrace.timeline(rid)]
                 for rid in sorted(obs.reqtrace.traces)])
        if obs.routing is not None:
            out["routing"] = _sha_json(obs.routing.telemetry.summary())
        if obs.cluster is not None:
            out["cluster"] = _sha_json(obs.cluster.summary())
        if obs.slo is not None:
            out["slo"] = _sha_json(obs.slo.report(result.makespan))
        if obs.alerts is not None:
            out["alerts"] = _sha_json(obs.alerts.summary())
        for path in sorted(p for p in bundle_dir.rglob("*") if p.is_file()):
            out["bundle:" + path.relative_to(bundle_dir).as_posix()] = \
                _sha(path.read_bytes())
    return out


def record() -> dict[str, dict[str, str]]:
    return {name: digests(name) for name in WORKLOADS}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("vectorize", [True, False],
                         ids=["windows", "scalar"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_observed_run_matches_golden(golden, name, vectorize):
    with _engine_mode(vectorize):
        got = digests(name)
    assert got == golden[name]


class _PathCounter:
    """Counts ``step()`` calls and window-advanced iterations, and the log
    indices of the iterations each window advanced."""

    def __init__(self, monkeypatch) -> None:
        self.steps = 0
        self.window_iterations = 0
        self.windowed: set[int] = set()
        step, advance = ServingEngine.step, ServingEngine.advance_window

        def counted_step(engine):
            self.steps += 1
            return step(engine)

        def counted_advance(engine, horizon=float("inf")):
            first = engine.log.num_iterations
            advanced = advance(engine, horizon)
            self.window_iterations += advanced
            self.windowed.update(range(first, first + advanced))
            return advanced

        monkeypatch.setattr(ServingEngine, "step", counted_step)
        monkeypatch.setattr(ServingEngine, "advance_window", counted_advance)


@pytest.mark.parametrize("name", WORKLOADS)
def test_observed_run_takes_the_unobserved_path(monkeypatch, tmp_path, name):
    """Observation changes no iteration's path: the observed run and its
    unobserved twin window the same iterations and call ``step()`` the
    same number of times."""
    with _engine_mode(True), monkeypatch.context() as patch:
        twin = _PathCounter(patch)
        stepcache.clear()
        _unobserved(name)
    with _engine_mode(True), monkeypatch.context() as patch:
        observed = _PathCounter(patch)
        stepcache.clear()
        _observed(name, tmp_path)
    assert twin.window_iterations > 0
    assert observed.window_iterations == twin.window_iterations
    assert observed.steps == twin.steps


def test_kv_high_water_trips_inside_a_window(monkeypatch, tmp_path):
    """The ``kv_high_water`` rule first fires on an iteration the
    unobserved twin advances inside a decode window, so its flight-recorder
    bundle snapshots the engine mid-window."""
    with _engine_mode(True), monkeypatch.context() as patch:
        twin = _PathCounter(patch)
        stepcache.clear()
        twin_result = _unobserved("kv_high_water")
    stepcache.clear()
    _, obs = _observed("kv_high_water", tmp_path)
    fired = [a for a in obs.alerts.fired if a.rule == "kv_high_water"]
    assert len(fired) == 1
    iterations = [e for e in twin_result.log.events
                  if e.type in (EventType.PREFILL, EventType.DECODE)]
    index = next(i for i, e in enumerate(iterations)
                 if e.time == fired[0].time)
    assert iterations[index].type is EventType.DECODE
    assert index in twin.windowed
    assert index - 1 in twin.windowed  # not the window's first iteration


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_observed_golden.py "
                 "--record")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
