"""Request-scoped tracing: causal timelines, exemplars, Chrome export."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.faults.invariants import run_digest
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.obs.harness import reference_serving_run, traced_serving_run
from repro.obs.instrument import Instrumentation
from repro.obs.reqtrace import RequestTracer, trace_id_for
from repro.obs.trace import filter_trace_events
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine
from repro.serving.request import Request, SamplingParams

MODEL = "OLMoE-1B-7B"


@pytest.fixture(scope="module")
def traced():
    return traced_serving_run(num_requests=6, input_tokens=128,
                              output_tokens=32)


@pytest.fixture(scope="module")
def preempting():
    """The KV-pressure run of test_serving_engine, instrumented."""
    obs = Instrumentation.on()
    perf = InferencePerfModel(get_model(MODEL), H100_SXM,
                              instrumentation=obs)
    engine = ServingEngine(perf, kv_pool_tokens=2048, instrumentation=obs,
                           rng=np.random.default_rng(0))
    for i in range(8):
        engine.submit(Request(
            request_id=i, prompt_tokens=400,
            sampling=SamplingParams(max_tokens=200), arrival_time=0.0,
        ))
    return engine.run(), obs


@pytest.fixture(scope="module")
def chaotic():
    """A fault storm traced end to end (kills, backoffs, readmissions)."""
    from repro.faults.harness import chaos_serving_run
    from repro.obs.slo import fault_storm_config

    obs = Instrumentation.on()
    run = chaos_serving_run(fault_storm_config(), instrumentation=obs)
    return run, obs


def _names(timeline):
    return [row["name"] for row in timeline]


class TestLifecycleTimeline:
    def test_every_finished_request_has_a_complete_causal_chain(self, traced):
        result, obs = traced
        for req in result.requests:
            rows = obs.reqtrace.timeline(req.request_id)
            names = _names(rows)
            assert names[0] == "admit"
            assert names[1] == "queue.wait"
            assert "prefill.chunk" in names
            assert "first_token" in names
            assert "decode.step" in names
            assert names[-1] == "finish"
            # causal order: seq dense, timestamps monotone
            assert [row["seq"] for row in rows] == list(range(len(rows)))
            assert all(a["t0"] <= b["t0"] for a, b in zip(rows, rows[1:]))
            # every span closed; no dangling waits
            assert all(row["t1"] is not None for row in rows)

    def test_admit_attrs_and_first_token_carry_request_facts(self, traced):
        result, obs = traced
        req = result.requests[0]
        rows = obs.reqtrace.timeline(req.request_id)
        admit = rows[0]
        assert admit["attrs"]["prompt_tokens"] == req.prompt_tokens
        assert admit["attrs"]["arrival_time"] == req.arrival_time
        first = next(r for r in rows if r["name"] == "first_token")
        assert first["attrs"]["ttft_s"] == pytest.approx(req.ttft)
        assert first["t0"] == pytest.approx(req.arrival_time + req.ttft)

    def test_causes_link_each_entry_to_its_trigger(self, traced):
        result, obs = traced
        rows = obs.reqtrace.timeline(result.requests[0].request_id)
        by_name = {row["name"]: row for row in rows}
        assert by_name["admit"]["cause"] == "arrival"
        assert by_name["queue.wait"]["cause"] == "admit"

    def test_unknown_request_raises(self, traced):
        _, obs = traced
        with pytest.raises(KeyError):
            obs.reqtrace.timeline(10_000)
        with pytest.raises(KeyError):
            obs.reqtrace.render_timeline(10_000)
        with pytest.raises(KeyError):
            obs.reqtrace.request_for("req-999999")

    def test_render_timeline_is_an_aligned_table(self, traced):
        result, obs = traced
        rid = result.requests[0].request_id
        text = obs.reqtrace.render_timeline(rid)
        assert f"request {rid} ({trace_id_for(rid)})" in text
        assert "finish" in text and "queue.wait" in text


class TestExemplarChain:
    def test_p99_ttft_exemplar_resolves_to_a_traced_request(self, traced):
        result, obs = traced
        hist = obs.metrics.histogram("ttft_seconds")
        exemplar = hist.exemplar_for_quantile(0.99)
        assert exemplar is not None
        rid = obs.reqtrace.request_for(exemplar.trace_id)
        req = next(r for r in result.requests if r.request_id == rid)
        # the exemplar's value is that request's recorded TTFT, and its
        # timeline is complete — the outlier-bucket -> timeline hook
        assert exemplar.value == pytest.approx(req.ttft)
        assert _names(obs.reqtrace.timeline(rid))[-1] == "finish"

    def test_every_latency_exemplar_points_at_a_real_trace(self, traced):
        _, obs = traced
        for name in ("ttft_seconds", "e2e_latency_seconds", "itl_seconds"):
            for exemplar in obs.metrics.histogram(name).exemplars():
                rid = obs.reqtrace.request_for(exemplar.trace_id)
                assert obs.reqtrace.trace_id(rid) == exemplar.trace_id


class TestPreemptionAndFaults:
    def test_preempted_request_records_preempt_and_requeue(self, preempting):
        result, obs = preempting
        preempted = [r for r in result.requests if r.num_preemptions > 0]
        assert preempted  # the scenario must actually preempt
        for req in preempted:
            names = _names(obs.reqtrace.timeline(req.request_id))
            assert "preempt" in names
            idx = names.index("preempt")
            assert names[idx + 1] == "requeue.wait"
            assert names[-1] == "finish"

    def test_fault_killed_request_records_backoff_and_readmission(
            self, chaotic):
        run, obs = chaotic
        retried = [r for r in run.result.requests if r.fault_retries > 0]
        assert retried  # the storm must actually kill and retry
        for req in retried:
            names = _names(obs.reqtrace.timeline(req.request_id))
            assert "fault.kill" in names
            idx = names.index("fault.kill")
            assert names[idx + 1] == "fault.backoff"
            # the retry re-enters admission: a second admit/queue.wait pair
            assert names.count("admit") >= 2

    def test_terminal_failures_record_their_reason(self, chaotic):
        run, obs = chaotic
        failed = [r for r in run.result.requests if r.is_failed]
        assert failed
        for req in failed:
            rows = obs.reqtrace.timeline(req.request_id)
            assert rows[-1]["name"] == "fail"
            assert rows[-1]["attrs"]["reason"] == req.failure_reason


class TestDecodeCoalescing:
    def _req(self, rid=0):
        return Request(request_id=rid, prompt_tokens=8,
                       sampling=SamplingParams(max_tokens=4))

    def test_contiguous_steps_merge(self):
        tracer = RequestTracer()
        req = self._req()
        tracer.on_decode(req, 0.0, 0.1, batch_size=4)
        tracer.on_decode(req, 0.1, 0.2, batch_size=5)
        tracer.on_decode(req, 0.2, 0.3, batch_size=5)
        (entry,) = tracer.trace(0).entries
        assert entry.name == "decode.step"
        assert entry.attrs["steps"] == 3
        assert entry.attrs["last_batch_size"] == 5
        assert (entry.t0, entry.t1) == (0.0, 0.3)

    def test_gap_splits_the_span(self):
        tracer = RequestTracer()
        req = self._req()
        tracer.on_decode(req, 0.0, 0.1, batch_size=4)
        tracer.on_decode(req, 0.5, 0.6, batch_size=4)  # non-contiguous
        assert len(tracer.trace(0).entries) == 2

    def test_coalescing_can_be_disabled(self):
        tracer = RequestTracer(coalesce_decode=False)
        req = self._req()
        tracer.on_decode(req, 0.0, 0.1, batch_size=4)
        tracer.on_decode(req, 0.1, 0.2, batch_size=4)
        assert len(tracer.trace(0).entries) == 2


class TestChromeExport:
    def test_one_track_per_request_with_balanced_spans(self, traced, tmp_path):
        result, obs = traced
        path = obs.reqtrace.write(tmp_path / "reqtrace.json")
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(metas) == result.num_requests
        assert {e["tid"] for e in metas} == {
            1000 + r.request_id for r in result.requests}
        begins = sum(1 for e in events if e["ph"] == "B")
        ends = sum(1 for e in events if e["ph"] == "E")
        assert begins == ends > 0

    def test_filter_by_request_id_keeps_one_lifecycle(self, traced):
        result, obs = traced
        rid = result.requests[0].request_id
        events = filter_trace_events(obs.reqtrace.chrome_events(),
                                     request_id=rid)
        tids = {e["tid"] for e in events if e["ph"] != "M"}
        assert tids == {1000 + rid}
        assert any(e["name"] == "finish" for e in events)

    def test_filter_by_span_name_regex(self, traced):
        _, obs = traced
        events = filter_trace_events(obs.reqtrace.chrome_events(),
                                     match="prefill")
        payload = [e for e in events if e["ph"] not in ("M",)]
        assert payload
        assert all("prefill" in e["name"] for e in payload
                   if e["ph"] == "B")


class TestDisabledPathIdentity:
    def test_reqtrace_and_slo_do_not_perturb_the_run(self):
        from repro.obs.slo import DEFAULT_SLOS, SloTracker

        def run(instrumentation):
            return reference_serving_run(
                num_requests=6, input_tokens=128, output_tokens=32,
                arrival_interval=0.002, instrumentation=instrumentation)

        bare = run_digest(run(None))
        full = run_digest(run(Instrumentation.on(
            slo=SloTracker(DEFAULT_SLOS))))
        assert bare == full
