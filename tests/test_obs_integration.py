"""End-to-end observability tests: instrumented engine runs, trace
validity, disable-mode identity, and Fig. 15 regeneration from a live run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.cli import main
from repro.models.zoo import get_model
from repro.obs.harness import reference_serving_run, traced_serving_run
from repro.obs.instrument import Instrumentation
from repro.obs.routing import EngineRoutingProbe
from repro.serving.events import EventType
from repro.workloads.multimodal import (
    MMEStream,
    build_layer_routers,
    run_activation_study,
)


@pytest.fixture(scope="module")
def traced():
    return traced_serving_run(num_requests=6, input_tokens=128,
                              output_tokens=32)


class TestTracedEngineRun:
    def test_trace_has_nested_engine_spans(self, traced):
        _, obs = traced
        events = obs.tracer.to_chrome_trace()["traceEvents"]
        names = {e["name"] for e in events}
        assert {"engine.step", "engine.prefill", "engine.decode",
                "scheduler.schedule", "perfmodel.iteration_cost",
                "kv.allocate", "kv.append", "kv.free"} <= names
        assert obs.tracer.open_spans() == []  # every span closed

    def test_trace_json_round_trips(self, traced, tmp_path):
        _, obs = traced
        path = obs.tracer.write(tmp_path / "trace.json")
        data = json.loads(path.read_text())
        begins = sum(1 for e in data["traceEvents"] if e["ph"] == "B")
        ends = sum(1 for e in data["traceEvents"] if e["ph"] == "E")
        assert begins == ends > 0

    def test_phase_spans_cover_the_makespan(self, traced):
        result, obs = traced
        totals = obs.tracer.span_totals("engine")
        step_total, step_count = totals["engine.step"]
        assert step_total == pytest.approx(result.makespan, rel=1e-9)
        assert step_count == result.log.num_iterations
        phase_total = totals["engine.prefill"][0] + totals["engine.decode"][0]
        assert phase_total == pytest.approx(result.makespan, rel=1e-9)

    def test_metrics_match_run_outcome(self, traced):
        result, obs = traced
        reg = obs.metrics
        assert reg.counter("requests_finished_total").value == result.num_requests
        ttft = reg.histogram("ttft_seconds")
        assert ttft.count == result.num_requests
        assert ttft.mean == pytest.approx(result.mean_ttft())
        e2e = reg.histogram("e2e_latency_seconds")
        assert e2e.mean == pytest.approx(result.mean_e2e())
        steps = reg.counter("engine_iterations_total",
                            labels={"phase": "decode"})
        assert steps.value == result.log.count(EventType.DECODE)

    def test_queue_wait_histogram_populated(self, traced):
        _, obs = traced
        qw = obs.metrics.histogram("queue_wait_seconds")
        assert qw.count == 6  # one admission per request

    def test_routing_probe_saw_all_tokens(self, traced):
        result, obs = traced
        assert obs.routing is not None
        assert obs.routing.tokens_seen == sum(
            e.num_tokens for e in result.log.events
        )


class TestDisableModeIdentity:
    """With instrumentation on or None, results are bit-identical."""

    @staticmethod
    def _fingerprint(result):
        return (
            result.makespan,
            result.kv_hit_rate,
            tuple((e.time, e.type, e.request_ids, e.num_tokens, e.duration_s,
                   e.kv_utilization) for e in result.log.events),
            tuple((r.request_id, r.first_scheduled_time, r.first_token_time,
                   r.finish_time, r.generated_tokens, r.num_preemptions)
                  for r in result.requests),
        )

    def test_none_and_on_agree(self):
        kwargs = dict(num_requests=5, input_tokens=96, output_tokens=24,
                      arrival_interval=0.001)
        baseline = self._fingerprint(reference_serving_run(**kwargs))
        on = self._fingerprint(reference_serving_run(
            instrumentation=Instrumentation.on(
                model=get_model("OLMoE-1B-7B")), **kwargs))
        assert on == baseline  # observation must never perturb the sim


class TestFig15Reproduction:
    """The routing probe on a live engine run reproduces the Fig. 15
    per-expert activation-frequency ordering."""

    def test_live_engine_ordering_matches_activation_study(self):
        model = get_model("MolmoE-1B")
        study = run_activation_study(
            model, MMEStream(), np.random.default_rng(7),
            max_routed_tokens=60_000,
        )
        ref_counts = study.heatmap().sum(axis=0)
        ref_order = list(np.argsort(-ref_counts))

        # identical rng advancement -> identical calibrated routers
        rng = np.random.default_rng(7)
        MMEStream().total_tokens(rng)
        routers = build_layer_routers(model, 128, rng)
        probe = EngineRoutingProbe(model, rng=np.random.default_rng(123),
                                   routers=routers)
        reference_serving_run(
            "MolmoE-1B", num_requests=32, input_tokens=512, output_tokens=64,
            instrumentation=Instrumentation(routing=probe),
        )
        live_counts = probe.telemetry.heatmap().sum(axis=0)
        live_order = probe.telemetry.activation_ordering()

        assert live_order[0] == ref_order[0]
        assert set(live_order[:8]) == set(ref_order[:8])
        # rank-correlate the full frequency map (Spearman)
        def ranks(c):
            r = np.empty(len(c))
            r[np.argsort(-c)] = np.arange(len(c))
            return r
        rho = np.corrcoef(ranks(ref_counts), ranks(live_counts))[0, 1]
        assert rho > 0.9


class TestCLI:
    def test_trace_subcommand_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.prom"
        rc = main(["trace", "OLMoE-1B-7B", "--requests", "3",
                   "--output-tokens", "8", "--out", str(out),
                   "--metrics-out", str(metrics_out)])
        assert rc == 0
        data = json.loads(out.read_text())
        names = {e["name"] for e in data["traceEvents"]}
        assert {"engine.step", "engine.prefill", "engine.decode",
                "scheduler.schedule", "kv.allocate"} <= names
        assert "# TYPE ttft_seconds histogram" in metrics_out.read_text()
        stdout = capsys.readouterr().out
        assert "Where the time went" in stdout
        assert "Expert routing" in stdout

    def test_metrics_subcommand_prometheus(self, capsys):
        rc = main(["metrics", "--requests", "2", "--output-tokens", "8"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "# TYPE step_time_seconds histogram" in stdout
        assert "requests_finished_total 2.0" in stdout

    def test_metrics_subcommand_json(self, capsys):
        rc = main(["metrics", "--requests", "2", "--output-tokens", "8",
                   "--json"])
        assert rc == 0
        parsed = json.loads(capsys.readouterr().out)
        assert any(m["name"] == "ttft_seconds" for m in parsed["metrics"])
