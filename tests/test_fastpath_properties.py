"""Property-based tests: every fast path is bit-identical to the slow path.

The perf-opt layers (step cache, vectorized sweeps) are exact memo /
mirror implementations — not approximations — so the property under test
is float *equality*, not closeness.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.common import metrics_row, metrics_rows, perf_model
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.moe.router import TopKRouter
from repro.perfmodel import stepcache
from repro.perfmodel.phases import StepModel

_settings = settings(max_examples=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_MODELS = ("OLMoE-1B-7B", "Mixtral-8x7B", "DeepSeek-V2-Lite")


class TestStepCacheExactness:
    @given(st.sampled_from(_MODELS), st.integers(1, 128),
           st.integers(1, 4096), st.sampled_from(["prefill", "decode"]))
    @_settings
    def test_cached_equals_uncached(self, model, batch, ctx, phase):
        steps = StepModel(get_model(model), H100_SXM)
        stepcache.configure(enabled=True)
        stepcache.clear()
        try:
            if phase == "prefill":
                warm = steps.prefill_time(batch, ctx)
                hit = steps.prefill_time(batch, ctx)
            else:
                warm = steps.decode_step_time(batch, ctx)
                hit = steps.decode_step_time(batch, ctx)
            stepcache.configure(enabled=False)
            stepcache.clear()
            if phase == "prefill":
                cold = steps.prefill_time(batch, ctx)
            else:
                cold = steps.decode_step_time(batch, ctx)
            assert warm == hit == cold
        finally:
            stepcache.configure(enabled=True)

    @given(st.sampled_from(_MODELS), st.integers(1, 64), st.integers(1, 2048))
    @_settings
    def test_breakdown_components_identical(self, model, batch, ctx):
        steps = StepModel(get_model(model), H100_SXM)
        stepcache.configure(enabled=True)
        stepcache.clear()
        try:
            cached = steps.step_breakdown(batch, batch, ctx, phase="decode")
            uncached = steps._compute_step_breakdown(batch, batch, ctx,
                                                     "decode", None)
            assert cached.components == uncached.components
            assert cached.total == uncached.total
        finally:
            stepcache.configure(enabled=True)


class TestVectorizedExactness:
    @given(st.sampled_from(_MODELS),
           st.lists(st.tuples(st.integers(1, 128), st.integers(16, 4096),
                              st.integers(1, 512)),
                    min_size=1, max_size=6))
    @_settings
    def test_sweep_equals_scalar_loop(self, model, shapes):
        pm = perf_model(get_model(model))
        fast = metrics_rows(pm, shapes)
        slow = [metrics_row(pm, b, i, o) for b, i, o in shapes]
        assert fast == slow


class TestRouteCountsExactness:
    @given(st.integers(2, 24), st.integers(1, 12), st.integers(1, 256),
           st.integers(0, 2**31 - 1))
    @_settings
    def test_counts_equal_full_route(self, num_experts, top_k, tokens, seed):
        top_k = min(top_k, num_experts)
        rng = np.random.default_rng(seed)
        router = TopKRouter(16, num_experts, top_k,
                            rng=np.random.default_rng(seed))
        x = rng.normal(size=(tokens, 16)).astype(np.float32)
        assert np.array_equal(router.route_counts(x),
                              router.route(x).expert_counts())

    @given(st.integers(0, 2**31 - 1))
    @_settings
    def test_counts_equal_under_ties(self, seed):
        # lattice-valued weights and inputs force exact logit ties at the
        # top-k boundary; route_counts recounts tied rows with the same
        # argpartition call route makes, so the winning set must match
        rng = np.random.default_rng(seed)
        router = TopKRouter(8, 16, 4, rng=np.random.default_rng(seed))
        router.weight = rng.integers(-1, 2, size=(8, 16)).astype(np.float32)
        router.bias = np.zeros(16, dtype=np.float32)
        x = rng.integers(-1, 2, size=(64, 8)).astype(np.float32)
        logits = router.logits(x)
        assert np.unique(logits).size < logits.size  # ties really occur
        assert np.array_equal(router.route_counts(x),
                              router.route(x).expert_counts())
