"""Tests for repro.serving.engine (discrete-event simulation)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware.gpus import H100_SXM
from repro.models.zoo import MIXTRAL_8X7B, OLMOE_1B_7B, get_model
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import (
    MAX_STALLED_ITERATIONS,
    EngineStalledError,
    ServingEngine,
    serve_static_batch,
)
from repro.serving.events import Event, EventType
from repro.serving.request import Request, SamplingParams
from repro.serving.scheduler import SchedulerConfig


@pytest.fixture(scope="module")
def olmoe_pm():
    return InferencePerfModel(OLMOE_1B_7B, H100_SXM)


def make_request(rid, prompt=128, out=32, arrival=0.0):
    return Request(request_id=rid, prompt_tokens=prompt,
                   sampling=SamplingParams(max_tokens=out), arrival_time=arrival)


class TestBasicRuns:
    def test_single_request(self, olmoe_pm):
        eng = ServingEngine(olmoe_pm)
        eng.submit(make_request(0))
        res = eng.run()
        req = res.requests[0]
        assert req.is_finished
        assert req.generated_tokens == 32
        assert 0 < req.ttft < req.e2e_latency
        assert res.makespan == pytest.approx(req.e2e_latency)

    def test_batch_all_finish(self, olmoe_pm):
        eng = ServingEngine(olmoe_pm)
        for i in range(8):
            eng.submit(make_request(i))
        res = eng.run()
        assert all(r.is_finished for r in res.requests)
        assert res.total_tokens == 8 * 160

    def test_event_log_ordering(self, olmoe_pm):
        eng = ServingEngine(olmoe_pm)
        eng.submit(make_request(0, out=4))
        res = eng.run()
        times = [e.time for e in res.log.events]
        assert times == sorted(times)
        kinds = [e.type for e in res.log.events]
        assert kinds[0] is EventType.ARRIVAL
        assert EventType.PREFILL in kinds
        assert kinds[-1] is EventType.FINISH

    def test_decode_iterations_counted(self, olmoe_pm):
        eng = ServingEngine(olmoe_pm)
        eng.submit(make_request(0, out=10))
        res = eng.run()
        decodes = res.log.of_type(EventType.DECODE)
        assert len(decodes) == 9  # first token comes from prefill

    def test_max_tokens_one_finishes_at_prefill(self, olmoe_pm):
        eng = ServingEngine(olmoe_pm)
        eng.submit(make_request(0, out=1))
        res = eng.run()
        assert res.requests[0].is_finished
        assert res.log.of_type(EventType.DECODE) == []


class TestAgainstClosedForm:
    def test_static_batch_matches_closed_form(self, olmoe_pm):
        """No contention: engine == analytical model within 2%."""
        metrics, _ = serve_static_batch(olmoe_pm, 16, 256, 64)
        closed = olmoe_pm.generate(16, 256, 64)
        assert metrics.ttft_s == pytest.approx(closed.ttft_s, rel=0.02)
        assert metrics.e2e_latency_s == pytest.approx(closed.e2e_latency_s, rel=0.02)


class TestArrivalsAndContention:
    def test_staggered_arrivals_preserve_order(self, olmoe_pm):
        eng = ServingEngine(olmoe_pm)
        eng.submit(make_request(0, arrival=0.0, out=64))
        eng.submit(make_request(1, arrival=10.0, out=4))
        res = eng.run()
        r0, r1 = res.requests
        assert r0.first_token_time < 10.0
        assert r1.first_token_time > 10.0
        assert res.makespan > 10.0

    def test_idle_gap_advances_clock(self, olmoe_pm):
        eng = ServingEngine(olmoe_pm)
        eng.submit(make_request(0, arrival=5.0, out=2))
        res = eng.run()
        assert res.requests[0].first_scheduled_time >= 5.0

    def test_kv_pressure_causes_preemption_but_completes(self):
        pm = InferencePerfModel(OLMOE_1B_7B, H100_SXM)
        eng = ServingEngine(pm, kv_pool_tokens=2048)
        for i in range(8):
            eng.submit(make_request(i, prompt=400, out=200))
        res = eng.run()
        assert all(r.is_finished for r in res.requests)
        assert res.num_preemptions > 0
        assert all(r.generated_tokens == 200 for r in res.requests)

    def test_oversized_request_rejected_at_submit(self, olmoe_pm):
        eng = ServingEngine(olmoe_pm, kv_pool_tokens=1024)
        with pytest.raises(ValueError, match="KV slots"):
            eng.submit(make_request(0, prompt=2000, out=100))

    def test_engine_requires_room_for_cache(self):
        pm = InferencePerfModel(MIXTRAL_8X7B, H100_SXM)  # weights > 80GB
        with pytest.raises(ValueError, match="OOM"):
            ServingEngine(pm)

    def test_early_eos(self, olmoe_pm):
        eng = ServingEngine(olmoe_pm, rng=np.random.default_rng(0))
        eng.submit(Request(
            request_id=0, prompt_tokens=64,
            sampling=SamplingParams(max_tokens=500, ignore_eos=False,
                                    eos_probability=0.2),
        ))
        res = eng.run()
        assert res.requests[0].is_finished
        assert res.requests[0].generated_tokens < 500


class TestThroughputAccounting:
    def test_throughput_definitions(self, olmoe_pm):
        _, res = serve_static_batch(olmoe_pm, 4, 100, 50)
        assert res.throughput_tok_s == pytest.approx(
            4 * 150 / res.makespan
        )
        assert res.generation_throughput_tok_s == pytest.approx(
            4 * 50 / res.makespan
        )

    def test_percentiles(self, olmoe_pm):
        _, res = serve_static_batch(olmoe_pm, 8, 64, 16)
        assert res.p99_ttft() >= res.mean_ttft() * 0.99

    def test_vlm_requests_cost_more(self):
        pm = InferencePerfModel(get_model("DeepSeek-VL2-Tiny"), H100_SXM)
        eng_text = ServingEngine(pm)
        eng_text.submit(make_request(0, prompt=128, out=8))
        plain = eng_text.run().makespan

        pm2 = InferencePerfModel(get_model("DeepSeek-VL2-Tiny"), H100_SXM)
        eng_img = ServingEngine(pm2)
        eng_img.submit(Request(request_id=0, prompt_tokens=128,
                               sampling=SamplingParams(max_tokens=8),
                               num_images=1))
        with_img = eng_img.run().makespan
        assert with_img > plain


class TestChunkedPrefillThroughEngine:
    def test_long_prompt_chunks_into_iterations(self, olmoe_pm):
        from repro.serving.events import EventType

        eng = ServingEngine(
            olmoe_pm,
            scheduler_config=SchedulerConfig(enable_chunked_prefill=True,
                                             chunk_size=256),
        )
        eng.submit(make_request(0, prompt=1000, out=4))
        res = eng.run()
        prefills = res.log.of_type(EventType.PREFILL)
        assert len(prefills) == 4  # 256+256+256+232
        assert sum(e.num_tokens for e in prefills) == 1000
        assert res.requests[0].is_finished

    def test_first_token_only_after_last_chunk(self, olmoe_pm):
        from repro.serving.events import EventType

        eng = ServingEngine(
            olmoe_pm,
            scheduler_config=SchedulerConfig(enable_chunked_prefill=True,
                                             chunk_size=128),
        )
        eng.submit(make_request(0, prompt=500, out=2))
        res = eng.run()
        prefills = res.log.of_type(EventType.PREFILL)
        assert res.requests[0].first_token_time == pytest.approx(
            prefills[-1].time
        )

    def test_chunked_matches_whole_prompt_token_totals(self, olmoe_pm):
        whole = ServingEngine(olmoe_pm)
        whole.submit(make_request(0, prompt=700, out=8))
        r_whole = whole.run()

        pm2 = InferencePerfModel(OLMOE_1B_7B, H100_SXM)
        chunked = ServingEngine(
            pm2, scheduler_config=SchedulerConfig(enable_chunked_prefill=True,
                                                  chunk_size=200),
        )
        chunked.submit(make_request(0, prompt=700, out=8))
        r_chunked = chunked.run()
        assert r_whole.total_tokens == r_chunked.total_tokens
        # chunking adds per-iteration overheads: slightly slower end-to-end
        assert r_chunked.makespan >= r_whole.makespan


class TestSLOMetrics:
    def test_generous_slo_full_attainment(self, olmoe_pm):
        _, res = serve_static_batch(olmoe_pm, 8, 128, 16)
        assert res.slo_attainment(ttft_slo_s=100.0) == 1.0
        assert res.goodput_tok_s(100.0) == pytest.approx(
            res.generation_throughput_tok_s
        )

    def test_impossible_slo_zero(self, olmoe_pm):
        _, res = serve_static_batch(olmoe_pm, 8, 128, 16)
        assert res.slo_attainment(ttft_slo_s=1e-9) == 0.0
        assert res.goodput_tok_s(1e-9) == 0.0

    def test_itl_slo_filters(self, olmoe_pm):
        _, res = serve_static_batch(olmoe_pm, 8, 128, 16)
        generous = res.slo_attainment(100.0, itl_slo_s=10.0)
        strict = res.slo_attainment(100.0, itl_slo_s=1e-9)
        assert generous == 1.0 and strict == 0.0

    def test_attainment_degrades_under_queueing(self, olmoe_pm):
        """Staggered latecomers behind a long prefill miss tight TTFT SLOs."""
        eng = ServingEngine(olmoe_pm)
        for i in range(32):
            eng.submit(make_request(i, prompt=2048, out=8, arrival=0.0))
        res = eng.run()
        tight = res.slo_attainment(ttft_slo_s=res.mean_ttft() * 0.5)
        assert tight < 1.0

    def test_validation(self, olmoe_pm):
        _, res = serve_static_batch(olmoe_pm, 2, 64, 4)
        with pytest.raises(ValueError):
            res.slo_attainment(0.0)
        with pytest.raises(ValueError):
            res.slo_attainment(1.0, itl_slo_s=0.0)


class TestResultValueCaches:
    """ServingResult memoizes its percentile source lists after drain."""

    def test_ttft_values_cached_and_consistent(self, olmoe_pm):
        _, res = serve_static_batch(olmoe_pm, 4, 128, 8)
        first = res._ttft_values()
        assert res._ttft_values() is first  # memoized list, not a rebuild
        assert res.p50_ttft() == res.p50_ttft()

    def test_all_value_caches_match_requests(self, olmoe_pm):
        _, res = serve_static_batch(olmoe_pm, 4, 128, 8)
        assert res._e2e_values() is res._e2e_values()
        assert res._itl_values() is res._itl_values()
        assert len(res._ttft_values()) == len(res.requests)

    def test_empty_result_still_raises(self, olmoe_pm):
        from repro.serving.engine import ServingResult
        from repro.serving.events import EventLog

        empty = ServingResult(requests=[], makespan=0.0, log=EventLog())
        with pytest.raises(ValueError):
            empty._ttft_values()
        with pytest.raises(ValueError):
            empty._ttft_values()  # failure is not cached either


class TestArrivalQueue:
    """``_pending`` stays in the order a stable sort of every submitted and
    requeued request by ``effective_arrival_time`` gives."""

    # a coarse grid makes exact ties the common case; retries land on,
    # between and beyond the arrival grid points
    _ARRIVALS = (0.0, 0.002, 0.004)
    _RETRIES = (0.0, 0.001, 0.002, 0.003, 0.004, 0.005)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(
        st.one_of(st.tuples(st.just("submit"), st.sampled_from(_ARRIVALS)),
                  st.tuples(st.just("requeue"), st.sampled_from(_RETRIES))),
        min_size=1, max_size=30))
    def test_matches_stable_sort_reference(self, olmoe_pm, ops):
        eng = ServingEngine(olmoe_pm)
        reference: list[Request] = []
        for rid, (kind, t) in enumerate(ops):
            if kind == "submit":
                req = make_request(rid, prompt=16, out=2, arrival=t)
                eng.submit(req)
            else:
                req = make_request(rid, prompt=16, out=2, arrival=0.0)
                req.reset_for_retry(retry_time=t)
                eng.requeue(req)
            reference.append(req)
            reference.sort(key=lambda r: r.effective_arrival_time)
            assert [id(r) for r in eng._pending] == [id(r) for r in reference]
        res = eng.run()
        arrivals = [rid for e in res.log.events if e.type is EventType.ARRIVAL
                    for rid in e.request_ids]
        assert arrivals == [r.request_id for r in reference]

    def test_submission_reads_each_key_logarithmically(self, olmoe_pm):
        reads = [0]

        class CountingRequest(Request):
            @property
            def effective_arrival_time(self) -> float:
                reads[0] += 1
                return Request.effective_arrival_time.fget(self)

        n = 4096
        eng = ServingEngine(olmoe_pm)
        for i in range(n):  # reverse arrival order: every insert is at the head
            eng.submit(CountingRequest(
                request_id=i, prompt_tokens=16,
                sampling=SamplingParams(max_tokens=2),
                arrival_time=float(n - i)))
        assert reads[0] <= n * (math.ceil(math.log2(n)) + 2)
        assert [r.request_id for r in eng._pending] == list(range(n - 1, -1, -1))


class TestSubmitValidation:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            make_request(0, arrival=t)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_retry_time_rejected(self, olmoe_pm, t):
        eng = ServingEngine(olmoe_pm)
        req = make_request(0)
        req.reset_for_retry(retry_time=t)
        with pytest.raises(ValueError, match="finite"):
            eng.requeue(req)
        assert eng._pending == []

    def test_arrival_mutated_to_nan_rejected_at_submit(self, olmoe_pm):
        eng = ServingEngine(olmoe_pm)
        req = make_request(0)
        req.arrival_time = math.nan
        with pytest.raises(ValueError, match="finite"):
            eng.submit(req)
        assert eng._pending == [] and eng._all == []

    def test_duplicate_id_rejected(self, olmoe_pm):
        eng = ServingEngine(olmoe_pm)
        eng.submit(make_request(7))
        with pytest.raises(ValueError, match="request id 7"):
            eng.submit(make_request(7, arrival=1.0))
        res = eng.run()
        assert [r.request_id for r in res.requests] == [7]
        assert res.requests[0].is_finished


class TestStallWatchdog:
    """``run()`` raises a typed error once the event log shows no progress
    for more than ``MAX_STALLED_ITERATIONS`` consecutive iterations."""

    @staticmethod
    def _stalling_engine(pm, log_preemptions: bool):
        """An engine whose step, after one real (prefill) iteration,
        advances the clock and commits nothing; windows are off so the
        patched step takes every iteration."""
        eng = ServingEngine(pm)
        eng.submit(make_request(0))
        real_step = eng.step
        calls = []

        def stalled_step() -> bool:
            calls.append(None)
            if len(calls) == 1:
                return real_step()
            eng.clock += 1e-3
            if log_preemptions:
                eng.log.record(Event(eng.clock, EventType.PREEMPTION, (0,)))
            return True

        eng.step = stalled_step
        eng.advance_window = lambda horizon=math.inf: 0
        return eng, calls

    def test_stalled_step_raises_naming_clock_and_iterations(self, olmoe_pm):
        eng, calls = self._stalling_engine(olmoe_pm, log_preemptions=False)
        with pytest.raises(EngineStalledError) as info:
            eng.run()
        err = info.value
        assert isinstance(err, RuntimeError)
        # one progressing iteration, then the bound plus the one past it
        assert len(calls) == err.iterations == MAX_STALLED_ITERATIONS + 2
        assert err.clock == eng.clock > 0
        assert repr(err.clock) in str(err)
        assert str(err.iterations) in str(err)

    def test_stalled_log_growth_is_bounded(self, olmoe_pm):
        eng, calls = self._stalling_engine(olmoe_pm, log_preemptions=True)
        with pytest.raises(EngineStalledError):
            eng.run()
        stalled = eng.log.count(EventType.PREEMPTION)
        assert stalled == MAX_STALLED_ITERATIONS + 1
        assert len(eng.log.events) == stalled + eng.log.progress

    def test_progress_resets_the_count(self, olmoe_pm):
        eng = ServingEngine(olmoe_pm)
        eng.submit(make_request(0, out=3))
        real_step = eng.step
        stalls = [0]

        def step() -> bool:
            # exactly the bound of stalls before every real iteration
            if stalls[0] < MAX_STALLED_ITERATIONS:
                stalls[0] += 1
                eng.clock += 1e-3
                return True
            stalls[0] = 0
            return real_step()

        eng.step = step
        eng.advance_window = lambda horizon=math.inf: 0
        assert eng.run().requests[0].is_finished
