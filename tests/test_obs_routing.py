"""Tests for repro.obs.routing (live expert-routing telemetry)."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.models.config import MoEConfig
from repro.models.zoo import get_model
from repro.moe.layer import MoELayer
from repro.moe.router import TopKRouter
from repro.obs.harness import reference_serving_run
from repro.obs.instrument import Instrumentation
from repro.obs.routing import EngineRoutingProbe, RoutingTelemetry
from tests.test_moe_router import _reference_counts


def make_router(num_experts=8, top_k=2, hidden=16, seed=0):
    return TopKRouter(hidden, num_experts, top_k,
                      rng=np.random.default_rng(seed))


def _reference_imbalance(window_counts: np.ndarray) -> float:
    total = window_counts.sum()
    if total == 0:
        return 0.0
    return float(window_counts.max() * window_counts.size / total)


class _DequeSumTelemetry(RoutingTelemetry):
    """Rolling imbalance re-summed from the whole deque on every call."""

    def rolling_imbalance(self) -> float:
        if not self._recent:
            return 0.0
        return _reference_imbalance(np.sum(self._recent, axis=0))


class _ArgpartitionRouter(TopKRouter):
    """Counts the top-k winners with a full-row argpartition."""

    def route_counts(self, x: np.ndarray) -> np.ndarray:
        return _reference_counts(self, x)


class TestRouterSubscription:
    def test_subscriber_sees_every_route(self):
        router = make_router()
        telem = RoutingTelemetry(num_layers=1, num_experts=8)
        telem.subscribe_router(router, layer_idx=0)
        x = np.random.default_rng(1).normal(size=(32, 16)).astype(np.float32)
        routing = router.route(x)
        assert telem.heatmap()[0].sum() == routing.indices.size
        np.testing.assert_array_equal(telem.heatmap()[0],
                                      routing.expert_counts())

    def test_unsubscribe_detaches(self):
        router = make_router()
        telem = RoutingTelemetry(1, 8)
        cb = telem.subscribe_router(router, 0)
        router.unsubscribe(cb)
        x = np.zeros((4, 16), dtype=np.float32)
        router.route(x)
        assert telem.heatmap().sum() == 0

    def test_routing_result_unchanged_by_observers(self):
        x = np.random.default_rng(2).normal(size=(16, 16)).astype(np.float32)
        plain = make_router(seed=3).route(x)
        observed_router = make_router(seed=3)
        RoutingTelemetry(1, 8).subscribe_router(observed_router, 0)
        observed = observed_router.route(x)
        np.testing.assert_array_equal(plain.indices, observed.indices)
        np.testing.assert_allclose(plain.weights, observed.weights)

    def test_dropped_router_has_no_observers(self):
        router = make_router()
        telem = RoutingTelemetry(1, 8)
        telem.subscribe_router(router, 0)
        pruned = router.drop_experts(np.array([0, 1]))
        pruned.route(np.zeros((4, 16), dtype=np.float32))
        assert telem.heatmap().sum() == 0  # observer did not carry over


class TestLayerSubscription:
    def test_moe_layer_streams_routing(self):
        cfg = MoEConfig(num_experts=8, top_k=2, expert_ffn_dim=32)
        layer = MoELayer(16, cfg, rng=np.random.default_rng(0))
        telem = RoutingTelemetry(1, 8)
        telem.subscribe_layer(layer, 0)
        x = np.random.default_rng(1).normal(size=(24, 16)).astype(np.float32)
        out = layer(x)
        assert telem.heatmap()[0].sum() == out.routing.indices.size


class TestTelemetry:
    def test_rolling_imbalance_window(self):
        telem = RoutingTelemetry(1, 4, window=2)
        telem.record_counts(0, np.array([8, 0, 0, 0]))
        assert telem.rolling_imbalance() == pytest.approx(4.0)
        # two balanced batches push the skewed one out of the window
        telem.record_counts(0, np.array([2, 2, 2, 2]))
        telem.record_counts(0, np.array([2, 2, 2, 2]))
        assert telem.rolling_imbalance() == pytest.approx(1.0)
        assert len(telem.imbalance_series) == 3

    def test_rolling_imbalance_empty(self):
        assert RoutingTelemetry(1, 4).rolling_imbalance() == 0.0

    def test_activation_ordering(self):
        telem = RoutingTelemetry(2, 3)
        telem.record_counts(0, np.array([1, 5, 2]))
        telem.record_counts(1, np.array([0, 5, 3]))
        assert telem.activation_ordering() == [1, 2, 0]
        assert telem.activation_ordering(layer_idx=0) == [1, 2, 0]

    def test_heatmap_table_shape(self):
        telem = RoutingTelemetry(2, 4)
        telem.record_counts(0, np.array([1, 2, 3, 4]))
        table = telem.heatmap_table()
        assert table.columns == ("layer", "expert", "count")
        assert len(list(table)) == 8
        capped = telem.heatmap_table(max_experts=2)
        assert len(list(capped)) == 4

    def test_summary_keys(self):
        telem = RoutingTelemetry(1, 4)
        assert telem.summary() == {"activations": 0}
        telem.record_counts(0, np.array([1, 2, 3, 4]))
        summary = telem.summary()
        assert summary["activations"] == 10
        assert summary["peak_activation"] == 4
        assert 0.0 <= summary["gini"] <= 1.0

    def test_imbalance_series_equals_deque_sum(self):
        window = 5
        telem = RoutingTelemetry(2, 6, window=window)
        recent: deque[np.ndarray] = deque(maxlen=window)
        expected = []
        rng = np.random.default_rng(3)
        for i in range(4 * window + 3):
            counts = rng.integers(0, 50, size=6)
            if i % 7 == 0:
                counts[:] = 0  # empty batches keep the window's total honest
            telem.record_counts(i % 2, counts)
            recent.append(counts.astype(np.int64))
            expected.append(_reference_imbalance(np.sum(recent, axis=0)))
        assert telem.imbalance_series == expected
        assert telem.rolling_imbalance() == expected[-1]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RoutingTelemetry(1, 4, window=0)


class TestEngineProbe:
    def test_probe_requires_moe_model(self):
        with pytest.raises(ValueError, match="no MoE layers"):
            EngineRoutingProbe(get_model("Qwen3-0.6B"))

    def test_probe_counts_scale_with_subsampling(self):
        model = get_model("OLMoE-1B-7B")
        probe = EngineRoutingProbe(model, rng=np.random.default_rng(0),
                                   max_tokens_per_step=100)
        probe.on_tokens(1000)  # 10x subsampled, counts rescaled
        per_layer = probe.telemetry.heatmap().sum(axis=1)
        expected = 1000 * model.moe.top_k
        assert per_layer.shape[0] == len(probe.routers)
        np.testing.assert_allclose(per_layer, expected, rtol=0.05)
        assert probe.tokens_seen == 1000

    def test_probe_ignores_empty_iterations(self):
        probe = EngineRoutingProbe(get_model("OLMoE-1B-7B"))
        probe.on_tokens(0)
        assert probe.tokens_seen == 0
        assert probe.telemetry.heatmap().sum() == 0


class TestProbeMatchesReference:
    def test_live_run_equals_argpartition_and_deque_sum(self):
        """A fixed engine run gives the same heatmap, imbalance series and
        summary as argpartition counting with a re-summed window."""
        model = get_model("OLMoE-1B-7B")

        def run(reference: bool):
            probe = EngineRoutingProbe(model, rng=np.random.default_rng(5),
                                       max_tokens_per_step=256, window=16)
            if reference:
                routers = []
                for router in probe.routers:
                    ref = _ArgpartitionRouter.__new__(_ArgpartitionRouter)
                    ref.__dict__.update(router.__dict__)
                    routers.append(ref)
                probe.routers = routers
                probe.telemetry = _DequeSumTelemetry(
                    len(routers), model.moe.num_experts, window=16)
            reference_serving_run(
                "OLMoE-1B-7B", num_requests=8, input_tokens=128,
                output_tokens=32,
                instrumentation=Instrumentation(routing=probe))
            return probe.telemetry

        fast, ref = run(reference=False), run(reference=True)
        assert len(fast.imbalance_series) > fast.window
        np.testing.assert_array_equal(fast.heatmap(), ref.heatmap())
        assert fast.imbalance_series == ref.imbalance_series
        assert fast.summary() == ref.summary()
