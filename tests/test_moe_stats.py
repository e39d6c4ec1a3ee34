"""Tests for repro.moe.stats (activation tracking, Fig. 15 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.moe.router import TopKRouter
from repro.moe.stats import ExpertActivationTracker, balance_metrics
from repro.obs.routing import RoutingTelemetry


class TestBalanceMetrics:
    def test_uniform_counts(self):
        m = balance_metrics(np.full(8, 100))
        assert m.imbalance == pytest.approx(1.0)
        assert m.cv == pytest.approx(0.0)
        assert m.normalized_entropy == pytest.approx(1.0)
        assert m.gini == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_counts(self):
        counts = np.zeros(8)
        counts[0] = 800
        m = balance_metrics(counts)
        assert m.imbalance == pytest.approx(8.0)
        assert m.normalized_entropy == pytest.approx(0.0, abs=1e-9)
        assert m.gini == pytest.approx(7 / 8, rel=1e-6)

    def test_gini_monotone_in_skew(self):
        mild = balance_metrics(np.array([90, 100, 110, 100]))
        harsh = balance_metrics(np.array([10, 100, 200, 90]))
        assert harsh.gini > mild.gini

    def test_zero_counts(self):
        m = balance_metrics(np.zeros(4))
        assert m.imbalance == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            balance_metrics(np.array([1, -1]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            balance_metrics(np.array([]))


class TestTracker:
    def test_record_routing(self, rng):
        router = TopKRouter(16, 8, 2, rng=rng)
        tracker = ExpertActivationTracker(num_layers=2, num_experts=8)
        x = rng.normal(0, 1, (25, 16)).astype(np.float32)
        r = router.route(x)
        tracker.record(0, r)
        tracker.record(1, r)
        hm = tracker.heatmap()
        assert hm.shape == (2, 8)
        assert hm.sum() == 2 * 25 * 2
        assert tracker.tokens_seen == 25

    def test_record_counts(self):
        tracker = ExpertActivationTracker(1, 4)
        tracker.record_counts(0, np.array([1, 2, 3, 4]))
        tracker.record_counts(0, np.array([1, 0, 0, 0]))
        assert tracker.heatmap()[0].tolist() == [2, 2, 3, 4]

    def test_peak_activation(self):
        tracker = ExpertActivationTracker(2, 3)
        tracker.record_counts(0, np.array([5, 1, 0]))
        tracker.record_counts(1, np.array([0, 9, 2]))
        assert tracker.peak_activation() == 9

    def test_layer_and_overall_metrics(self):
        tracker = ExpertActivationTracker(2, 4)
        tracker.record_counts(0, np.array([10, 10, 10, 10]))
        tracker.record_counts(1, np.array([40, 0, 0, 0]))
        assert tracker.layer_metrics(0).imbalance == pytest.approx(1.0)
        assert tracker.layer_metrics(1).imbalance == pytest.approx(4.0)
        assert tracker.overall_metrics().imbalance == pytest.approx(
            50 / 20
        )

    def test_shape_validation(self, rng):
        tracker = ExpertActivationTracker(1, 4)
        with pytest.raises(ValueError):
            tracker.record_counts(0, np.ones(5))
        with pytest.raises(IndexError):
            tracker.record_counts(1, np.ones(4))
        router = TopKRouter(8, 6, 1, rng=rng)
        with pytest.raises(ValueError, match="experts"):
            tracker.record(0, router.route(rng.normal(0, 1, (3, 8)).astype(np.float32)))

    def test_record_counts_rejects_negative_layer(self):
        # numpy would index -1 as the last layer; it must not land there
        tracker = ExpertActivationTracker(2, 4)
        with pytest.raises(IndexError, match="out of range"):
            tracker.record_counts(-1, np.ones(4))
        assert tracker.heatmap().sum() == 0

    def test_telemetry_rejects_negative_layer_before_windowing(self):
        telem = RoutingTelemetry(2, 4, window=2)
        with pytest.raises(IndexError, match="out of range"):
            telem.record_counts(-1, np.ones(4))
        assert telem.heatmap().sum() == 0
        assert telem.imbalance_series == []
        assert telem.rolling_imbalance() == 0.0

    def test_reset(self):
        tracker = ExpertActivationTracker(1, 2)
        tracker.record_counts(0, np.array([1, 1]))
        tracker.reset()
        assert tracker.heatmap().sum() == 0
