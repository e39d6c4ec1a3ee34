"""Scalar <-> vectorized serving-engine equivalence (fast path, phase 2).

The batched decode window (:mod:`repro.serving.fastpath`) claims *bit
identity* with the scalar per-iteration loop: same event stream, same
timestamps, same RNG draw order.  These tests run the nastiest scheduler
paths — chunked-prefill head-of-line blocking, preemption storms on tiny
KV pools, fault-kill requeues, starvation resolution, EOS sampling — in
both modes and assert the exact digests match:

* ``run_digest`` hashes every event float via ``float.hex`` plus every
  per-request outcome — one differing bit anywhere fails;
* ``fleet_digest`` does the same for the multi-replica simulator, whose
  ``Replica.advance_to`` is the horizon-bounded window consumer.

The mode toggle (``REPRO_NO_VECTORIZE_ENGINE``) is read once at engine
construction, so the helpers set the environment *before* building the
engine and restore it after.  The step cache is cleared between modes so
each path prices its steps from scratch (shared memo entries are
bit-identical by construction, but a cold cache makes the comparison
end-to-end).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.invariants import run_digest
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.perfmodel import stepcache
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine
from repro.serving.events import EventType
from repro.serving.request import Request, SamplingParams
from repro.serving.scheduler import SchedulerConfig

_settings = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_MODELS = ("OLMoE-1B-7B", "Mixtral-8x7B", "DeepSeek-V2-Lite")

_PERF_MODELS: dict[str, InferencePerfModel] = {}


def _perf(model_name: str) -> InferencePerfModel:
    pm = _PERF_MODELS.get(model_name)
    if pm is None:
        pm = InferencePerfModel(get_model(model_name), H100_SXM)
        _PERF_MODELS[model_name] = pm
    return pm


class _engine_mode:
    """Set/clear ``REPRO_NO_VECTORIZE_ENGINE`` around engine construction."""

    def __init__(self, vectorize: bool) -> None:
        self.vectorize = vectorize

    def __enter__(self) -> None:
        self._saved = os.environ.get("REPRO_NO_VECTORIZE_ENGINE")
        if self.vectorize:
            os.environ.pop("REPRO_NO_VECTORIZE_ENGINE", None)
        else:
            os.environ["REPRO_NO_VECTORIZE_ENGINE"] = "1"

    def __exit__(self, *exc) -> None:
        if self._saved is None:
            os.environ.pop("REPRO_NO_VECTORIZE_ENGINE", None)
        else:
            os.environ["REPRO_NO_VECTORIZE_ENGINE"] = self._saved


def _loaded_engine(model_name: str, specs, vectorize: bool, *,
                  config: SchedulerConfig | None = None,
                  kv_pool_tokens: int = 32_768,
                  rng_seed: int | None = None) -> ServingEngine:
    """A cold-cache engine in the given mode with ``specs`` submitted.

    ``specs`` is a list of ``(prompt, max_tokens, arrival)`` or
    ``(prompt, max_tokens, arrival, sampling_overrides)`` tuples.
    """
    stepcache.clear()
    with _engine_mode(vectorize):
        rng = np.random.default_rng(rng_seed) if rng_seed is not None else None
        engine = ServingEngine(_perf(model_name), scheduler_config=config,
                               kv_pool_tokens=kv_pool_tokens, rng=rng)
    assert engine.fastpath.windows == vectorize
    for rid, spec in enumerate(specs):
        prompt, out, arrival = spec[:3]
        overrides = spec[3] if len(spec) > 3 else {}
        engine.submit(Request(
            request_id=rid, prompt_tokens=prompt,
            sampling=SamplingParams(max_tokens=out, **overrides),
            arrival_time=arrival))
    return engine


def _serve(model_name: str, specs, vectorize: bool, **kwargs) -> str:
    """Run one workload in the given mode; return its exact run digest."""
    return run_digest(_loaded_engine(model_name, specs, vectorize,
                                     **kwargs).run())


def _both_modes_equal(model_name: str, specs, **kwargs) -> None:
    fast = _serve(model_name, specs, vectorize=True, **kwargs)
    scalar = _serve(model_name, specs, vectorize=False, **kwargs)
    assert fast == scalar


class TestDecodeWindowEquivalence:
    @given(st.sampled_from(_MODELS),
           st.lists(st.tuples(st.integers(1, 512), st.integers(1, 96),
                              st.floats(0.0, 0.2)),
                    min_size=1, max_size=12))
    @_settings
    def test_mixed_workload(self, model, specs):
        """Arbitrary prompt/output/arrival mixes: windows open and close
        around admissions and completions."""
        _both_modes_equal(model, specs)

    @given(st.sampled_from(_MODELS), st.integers(2, 8),
           st.integers(256, 1024), st.integers(64, 512))
    @_settings
    def test_chunked_prefill_head_of_line(self, model, n, long_prompt,
                                          chunk_size):
        """Chunked prefill: a long prompt drips through chunk-bounded
        iterations while later arrivals queue behind it — every chunk
        boundary forces the window shut."""
        config = SchedulerConfig(enable_chunked_prefill=True,
                                 chunk_size=chunk_size,
                                 max_num_batched_tokens=chunk_size)
        specs = [(long_prompt, 32, 0.0)]
        specs += [(64, 16, 0.001 * (i + 1)) for i in range(n - 1)]
        _both_modes_equal(model, specs, config=config)

    @given(st.sampled_from(_MODELS), st.integers(4, 10),
           st.integers(2048, 6144))
    @_settings
    def test_preemption_storm(self, model, n, pool):
        """A KV pool much smaller than demand: sequences are preempted and
        re-admitted constantly, so windows break on pool-dry and the
        preemption order must replay exactly."""
        specs = [(256, 64, 0.0005 * i) for i in range(n)]
        _both_modes_equal(model, specs, kv_pool_tokens=pool)

    @given(st.sampled_from(_MODELS), st.integers(1, 6), st.integers(0, 2**16))
    @_settings
    def test_eos_sampling_rng_order(self, model, n, seed):
        """EOS draws consume engine RNG once per token; the fast path must
        refuse windows for these requests so draw order is preserved."""
        specs = [(128, 64, 0.0, {"ignore_eos": False, "eos_probability": 0.05})
                 for _ in range(n)]
        specs += [(128, 48, 0.0)]
        _both_modes_equal(model, specs, rng_seed=seed)

    def test_decode_first_policy(self):
        config = SchedulerConfig(policy="decode_first")
        specs = [(200, 80, 0.002 * i) for i in range(6)]
        _both_modes_equal("OLMoE-1B-7B", specs, config=config)

    def test_prefix_caching_block_reuse(self):
        """Prefix-cache eviction pops LRU reusable blocks: the window's
        block-crossing pops must hit the allocator in scalar order."""
        def digest(vectorize):
            stepcache.clear()
            with _engine_mode(vectorize):
                engine = ServingEngine(_perf("OLMoE-1B-7B"),
                                       kv_pool_tokens=8192,
                                       enable_prefix_caching=True)
                for rid in range(8):
                    engine.submit(Request(
                        request_id=rid, prompt_tokens=256,
                        sampling=SamplingParams(max_tokens=64),
                        arrival_time=0.003 * rid))
                return run_digest(engine.run())

        assert digest(True) == digest(False)


class TestFaultAndFleetEquivalence:
    def _chaos_digest(self, vectorize: bool, schedule=None,
                      **overrides) -> tuple[str, dict]:
        from repro.faults.harness import ChaosConfig, chaos_serving_run

        stepcache.clear()
        with _engine_mode(vectorize):
            params = dict(num_requests=12, input_tokens=128,
                          output_tokens=24, kv_pool_tokens=16_384,
                          fault_seed=7, fault_rate=3.0, horizon_s=2.0,
                          num_devices=4, ep=4, replicas=2)
            params.update(overrides)
            config = ChaosConfig(**params)
            run = chaos_serving_run(config, schedule)
        return run_digest(run.result), run.summary

    def test_fault_kill_requeue(self):
        """Armed injector: the fast path must defer to the scalar loop
        (faults advance on the scalar clock), and the full kill/requeue
        event stream must match bit for bit."""
        fast = self._chaos_digest(True)
        scalar = self._chaos_digest(False)
        assert fast == scalar

    @pytest.mark.parametrize("kind, magnitude", [
        (FaultKind.LINK_DEGRADE, 4.0), (FaultKind.KV_PRESSURE, 0.5)])
    def test_fault_lands_mid_decode_run(self, kind, magnitude):
        """A fault firing inside what would be one quiet decode window:
        an armed schedule leaves every iteration to ``step()``, which
        applies the fault on the scalar clock."""
        quiet = dict(num_requests=8, output_tokens=64, arrival_interval=0.0)
        _, calm = self._chaos_digest(True, FaultSchedule(), **quiet)
        schedule = FaultSchedule(events=(FaultEvent(
            time=0.5 * calm["makespan_s"], kind=kind,
            magnitude=magnitude),))
        fast = self._chaos_digest(True, schedule, **quiet)
        assert fast[1]["faults_applied"] == 1
        assert fast == self._chaos_digest(False, schedule, **quiet)

    def test_failfast_policy(self):
        fast = self._chaos_digest(True, policy="failfast", fault_seed=3)
        scalar = self._chaos_digest(False, policy="failfast", fault_seed=3)
        assert fast == scalar

    @pytest.mark.parametrize("policy",
                             ["round_robin", "least_kv", "prefix_affinity"])
    def test_fleet_digest_both_modes(self, policy):
        """The canonical fleet smoke scenario (diurnal trace, replica
        storm, autoscaler) replays to one digest in both modes —
        ``Replica.advance_to`` is the horizon-bounded window consumer."""
        from repro.fleet.harness import fleet_smoke_digest

        stepcache.clear()
        with _engine_mode(True):
            fast = fleet_smoke_digest(policy)
        stepcache.clear()
        with _engine_mode(False):
            scalar = fleet_smoke_digest(policy)
        assert fast == scalar


class TestFastPathMechanics:
    def test_env_escape_hatch_disables_fastpath(self):
        with _engine_mode(False):
            engine = ServingEngine(_perf("OLMoE-1B-7B"))
            assert engine.advance_window() == 0
            engine.submit(Request(request_id=0, prompt_tokens=64,
                                  sampling=SamplingParams(max_tokens=32)))
            engine.step()  # prefill; the decode run after it is quiet
            assert engine.advance_window() == 0

    def test_window_matches_scalar_steps_midstream(self):
        """Drive one engine with explicit windows and another purely with
        ``step()``; clocks and logs must stay equal at every boundary."""
        def build():
            engine = ServingEngine(_perf("OLMoE-1B-7B"))
            for rid in range(3):
                engine.submit(Request(
                    request_id=rid, prompt_tokens=96,
                    sampling=SamplingParams(max_tokens=40),
                    arrival_time=0.0))
            return engine

        stepcache.clear()
        with _engine_mode(True):
            windowed = build()
        with _engine_mode(False):
            scalar = build()
        while True:
            advanced = windowed.advance_window()
            if advanced == 0:
                more = windowed.step()
                advanced = 1 if more else 0
                if not more:
                    break
            for _ in range(advanced):
                scalar.step()
            assert windowed.clock == scalar.clock
            assert len(windowed.log.events) == len(scalar.log.events)
        assert run_digest(windowed.run()) == run_digest(scalar.run())


class TestArrivalAtWindowClock:
    """An arrival due at a clock a window reaches — exactly on it, or
    within the 1e-12 s admission tolerance after it — ends the window
    there and is admitted at that clock, as the scalar loop admits it."""

    _BASE = [(96, 48, 0.0), (160, 48, 0.0), (64, 48, 0.0)]

    @staticmethod
    def _decode_clocks(specs) -> list[tuple[float, bool]]:
        """``(clock, windowed)`` after each decode iteration of a
        windowed run of ``specs``."""
        engine = _loaded_engine("OLMoE-1B-7B", specs, True)
        clocks: list[tuple[float, bool]] = []
        while True:
            seen = len(engine.log.events)
            advanced = engine.advance_window()
            if not advanced and not engine.step():
                return clocks
            clocks += [(e.time, advanced > 0)
                       for e in engine.log.events[seen:]
                       if e.type is EventType.DECODE]

    @pytest.mark.parametrize("k", [3, 17])
    @pytest.mark.parametrize("offset", [0.0, 5e-13])
    def test_arrival_on_kth_decode_clock(self, k, offset):
        clocks = self._decode_clocks(self._BASE)
        # the k-th iteration and the one after it sit inside one window,
        # so without the arrival the window would run past clock t_k
        windowed = [i for i in range(len(clocks) - 1)
                    if clocks[i][1] and clocks[i + 1][1]]
        t_k = clocks[windowed[k]][0]
        late = len(self._BASE)
        specs = self._BASE + [(32, 8, t_k + offset)]
        _both_modes_equal("OLMoE-1B-7B", specs)

        result = _loaded_engine("OLMoE-1B-7B", specs, True).run()
        admitted = [e.time for e in result.log.events
                    if e.type is EventType.ARRIVAL and e.request_ids == (late,)]
        assert admitted == [t_k]


class TestIntegralTokenCounts:
    """Token and image counts are integers at the request boundary.  A
    float — integral-valued or not — a bool or NaN is refused with a
    ValueError naming the field, before either engine mode sees it;
    NumPy integers are served exactly like ints in both modes."""

    @pytest.mark.parametrize("value", [4.0, 2.5, True, float("nan"), "4"])
    @pytest.mark.parametrize("field", ["max_tokens", "prompt_tokens",
                                       "num_images"])
    def test_non_integral_count_rejected(self, field, value):
        counts = {"max_tokens": 4, "prompt_tokens": 32, "num_images": 0}
        counts[field] = value
        with pytest.raises(ValueError, match=field):
            Request(request_id=0, prompt_tokens=counts["prompt_tokens"],
                    sampling=SamplingParams(max_tokens=counts["max_tokens"]),
                    num_images=counts["num_images"])

    def test_numpy_counts_serve_in_both_modes(self):
        def serve(vectorize):
            stepcache.clear()
            with _engine_mode(vectorize):
                engine = ServingEngine(_perf("OLMoE-1B-7B"))
            for rid, out in enumerate((np.int64(4), np.int32(37))):
                engine.submit(Request(
                    request_id=rid, prompt_tokens=np.int64(48 + rid),
                    sampling=SamplingParams(max_tokens=out),
                    num_images=np.int16(0), arrival_time=0.001 * rid))
            return engine.run()

        fast, scalar = serve(True), serve(False)
        for result in (fast, scalar):
            assert [r.generated_tokens for r in result.requests] == [4, 37]
        assert run_digest(fast) == run_digest(scalar)


class TestResultAggregates:
    """S1 regression: the memoized ServingResult aggregates must equal a
    fresh scan for every zoo model (one pass, then served from cache)."""

    @pytest.mark.parametrize("model", _MODELS)
    def test_cached_aggregates_match_rescan(self, model):
        engine = ServingEngine(_perf(model), kv_pool_tokens=32_768)
        for rid in range(6):
            engine.submit(Request(
                request_id=rid, prompt_tokens=64 + 16 * rid,
                sampling=SamplingParams(max_tokens=8 + rid),
                arrival_time=0.001 * rid))
        res = engine.run()
        reqs = res.requests
        assert res.total_tokens == sum(
            r.prompt_tokens + r.generated_tokens for r in reqs)
        assert res.num_failed == sum(1 for r in reqs if r.is_failed)
        assert res.num_preemptions == sum(r.num_preemptions for r in reqs)
        assert res.num_fault_retries == sum(r.fault_retries for r in reqs)
        assert res.availability == \
            sum(1 for r in reqs if r.is_finished) / len(reqs)
        # second read is served from the memo and must not drift
        assert res.total_tokens == sum(
            r.prompt_tokens + r.generated_tokens for r in reqs)

    def test_request_index_lookup(self):
        engine = ServingEngine(_perf("OLMoE-1B-7B"))
        for rid in (5, 9, 2):
            engine.submit(Request(request_id=rid, prompt_tokens=32,
                                  sampling=SamplingParams(max_tokens=4)))
        res = engine.run()
        assert res.request(9).request_id == 9
        assert res.request(2).request_id == 2
        with pytest.raises(KeyError):
            res.request(404)

    def test_token_times_per_request(self):
        engine = ServingEngine(_perf("OLMoE-1B-7B"))
        engine.submit(Request(request_id=0, prompt_tokens=64,
                              sampling=SamplingParams(max_tokens=6)))
        res = engine.run()
        times = res.token_times(0)
        assert len(times) == 6
        assert times == sorted(times)
        assert times[0] == res.request(0).first_token_time
