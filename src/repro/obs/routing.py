"""Expert-routing telemetry: live activation counts from routers.

Where :mod:`repro.moe.stats` computes end-of-run aggregates for the Fig. 15
experiment, this module *subscribes* to routers as they run — any
:class:`~repro.moe.router.TopKRouter` (or the router inside a
:class:`~repro.moe.layer.MoELayer`) can stream its routing decisions into a
:class:`RoutingTelemetry`, which maintains:

* per-(layer, expert) activation counts (the Fig. 15 heatmap),
* a rolling load-imbalance coefficient (max/mean over a window of the most
  recent routed batches), and
* the per-expert activation-frequency ordering.

:class:`EngineRoutingProbe` attaches the same telemetry to a *serving
engine* run: the discrete-event engine tracks token counts rather than
hidden states, so the probe routes synthetic hidden states through
calibrated per-layer routers (built by the same construction path as the
Fig. 15 activation study) as the engine processes tokens — regenerating
Fig. 15-style data from a live engine run instead of a dedicated
experiment.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.core.results import ResultTable
from repro.models.config import ModelConfig
from repro.moe.router import RoutingResult, TopKRouter
from repro.moe.stats import BalanceMetrics, ExpertActivationTracker, balance_metrics

__all__ = ["RoutingTelemetry", "EngineRoutingProbe"]


class RoutingTelemetry:
    """Accumulates routing decisions streamed from live routers."""

    def __init__(self, num_layers: int, num_experts: int,
                 window: int = 64) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.tracker = ExpertActivationTracker(num_layers, num_experts)
        self.window = window
        self._recent: deque[np.ndarray] = deque(maxlen=window)
        # running int64 sum of ``_recent`` (exact: add on append, subtract
        # on eviction), so the rolling view costs O(num_experts) per batch
        self._window_sum = np.zeros(num_experts, dtype=np.int64)
        self.imbalance_series: list[float] = []
        """Rolling imbalance after each recorded batch (telemetry over time)."""

    @property
    def num_layers(self) -> int:
        return self.tracker.num_layers

    @property
    def num_experts(self) -> int:
        return self.tracker.num_experts

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #

    def record(self, layer_idx: int, routing: RoutingResult) -> None:
        """Ingest one routing decision for ``layer_idx``."""
        self.record_counts(layer_idx, routing.expert_counts())

    def record_counts(self, layer_idx: int, counts: np.ndarray) -> None:
        """Ingest precomputed per-expert counts for ``layer_idx``."""
        counts = np.asarray(counts, dtype=np.int64)
        self.tracker.record_counts(layer_idx, counts)
        if len(self._recent) == self.window:
            self._window_sum -= self._recent[0]
        self._recent.append(counts)
        self._window_sum += counts
        self.imbalance_series.append(self.rolling_imbalance())

    def subscribe_router(self, router: TopKRouter,
                         layer_idx: int) -> Callable[[RoutingResult], None]:
        """Stream every future ``router.route()`` into ``layer_idx``.

        Returns the registered callback (pass it to
        :meth:`TopKRouter.unsubscribe` to detach).
        """
        def _observe(routing: RoutingResult) -> None:
            self.record(layer_idx, routing)

        router.subscribe(_observe)
        return _observe

    def subscribe_layer(self, layer, layer_idx: int) -> Callable[[RoutingResult], None]:
        """Subscribe to the router inside a :class:`~repro.moe.layer.MoELayer`."""
        return self.subscribe_router(layer.router, layer_idx)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def rolling_imbalance(self) -> float:
        """max/mean load over the last ``window`` routed batches (1.0 ==
        perfectly balanced; 0.0 before anything was recorded)."""
        if not self._recent:
            return 0.0
        window_counts = self._window_sum
        total = window_counts.sum()
        if total == 0:
            return 0.0
        return float(window_counts.max() * window_counts.size / total)

    def heatmap(self) -> np.ndarray:
        """``(num_layers, num_experts)`` activation counts (copy)."""
        return self.tracker.heatmap()

    def heatmap_table(self, max_experts: int | None = None) -> ResultTable:
        """Per-layer activation heatmap as a report table."""
        hm = self.tracker.heatmap()
        table = ResultTable("expert activation heatmap",
                            ("layer", "expert", "count"))
        experts = range(hm.shape[1] if max_experts is None
                        else min(max_experts, hm.shape[1]))
        for layer in range(hm.shape[0]):
            for e in experts:
                table.add(layer=layer, expert=e, count=int(hm[layer, e]))
        return table

    def activation_ordering(self, layer_idx: int | None = None) -> list[int]:
        """Expert ids sorted by activation count, most-activated first.

        ``layer_idx=None`` orders by the per-expert totals over all layers
        — the Fig. 15 frequency ordering.
        """
        hm = self.tracker.heatmap()
        counts = hm.sum(axis=0) if layer_idx is None else hm[layer_idx]
        return [int(i) for i in np.argsort(-counts, kind="stable")]

    def layer_metrics(self, layer_idx: int) -> BalanceMetrics:
        return self.tracker.layer_metrics(layer_idx)

    def overall_metrics(self) -> BalanceMetrics:
        return self.tracker.overall_metrics()

    def summary(self) -> dict[str, float | int]:
        """Headline balance numbers for reports and the CLI."""
        totals = self.tracker.heatmap().sum(axis=0)
        if totals.sum() == 0:
            return {"activations": 0}
        overall = balance_metrics(totals)
        return {
            "activations": int(totals.sum()),
            "peak_activation": self.tracker.peak_activation(),
            "imbalance_max_over_mean": overall.imbalance,
            "rolling_imbalance": self.rolling_imbalance(),
            "gini": overall.gini,
            "normalized_entropy": overall.normalized_entropy,
        }


class EngineRoutingProbe:
    """Regenerates expert-activation telemetry from a live engine run.

    The probe owns one calibrated router per MoE layer (same construction
    path as the Fig. 15 activation study — pass an identically-advanced
    ``rng`` to reproduce that experiment's routers exactly) and, each
    engine iteration, routes synthetic hidden states for the iteration's
    tokens.  Large iterations are subsampled to ``max_tokens_per_step`` and
    the counts rescaled, preserving the frequency map up to sampling noise.

    The probe draws from its *own* generator, never the engine's, so
    enabling it cannot perturb simulated results.
    """

    def __init__(
        self,
        model: ModelConfig,
        rng: np.random.Generator | None = None,
        router_hidden: int = 64,
        max_tokens_per_step: int = 2048,
        routers: list[TopKRouter] | None = None,
        window: int = 64,
    ) -> None:
        from repro.workloads.multimodal import build_layer_routers

        if model.moe is None:
            raise ValueError(f"{model.name} has no MoE layers")
        if max_tokens_per_step <= 0:
            raise ValueError("max_tokens_per_step must be positive")
        rng = rng or np.random.default_rng(0)
        self.model = model
        self.routers = routers if routers is not None else build_layer_routers(
            model, router_hidden, rng
        )
        self.max_tokens_per_step = max_tokens_per_step
        self.telemetry = RoutingTelemetry(
            len(self.routers), model.moe.num_experts, window=window
        )
        self._rng = rng
        self.tokens_seen = 0

    def on_tokens(self, num_tokens: int) -> None:
        """Route ``num_tokens`` of this iteration through every layer."""
        if num_tokens <= 0:
            return
        routed = min(num_tokens, self.max_tokens_per_step)
        scale = num_tokens / routed
        hidden = self.routers[0].hidden_size
        x = self._rng.normal(size=(routed, hidden)).astype(np.float32)
        for layer_idx, router in enumerate(self.routers):
            counts = router.route_counts(x)
            if scale != 1.0:
                counts = np.round(counts * scale).astype(np.int64)
            self.telemetry.record_counts(layer_idx, counts)
        self.tokens_seen += num_tokens
