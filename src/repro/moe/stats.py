"""Expert activation statistics (paper §8.3, Fig. 15).

Tracks how often each expert of each layer is selected during inference and
derives standard load-balance measures: max/mean imbalance, coefficient of
variation, normalized entropy, and the Gini coefficient of the activation
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.moe.router import RoutingResult

__all__ = ["balance_metrics", "ExpertActivationTracker", "BalanceMetrics"]


@dataclass(frozen=True)
class BalanceMetrics:
    """Summary statistics of one activation-count vector."""

    imbalance: float
    """max load / mean load; 1.0 is perfectly balanced."""
    cv: float
    """coefficient of variation (std / mean)."""
    entropy: float
    """entropy of the normalized counts, in nats."""
    normalized_entropy: float
    """entropy / log(num_experts); 1.0 is uniform."""
    gini: float
    """Gini coefficient; 0 uniform, →1 concentrated."""
    max_count: int
    min_count: int


def balance_metrics(counts: np.ndarray) -> BalanceMetrics:
    """Compute :class:`BalanceMetrics` from raw per-expert counts."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-D array")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    n = counts.size
    if total == 0:
        return BalanceMetrics(1.0, 0.0, np.log(n), 1.0, 0.0, 0, 0)
    mean = total / n
    p = counts / total
    nz = p[p > 0]
    entropy = float(-np.sum(nz * np.log(nz)))
    sorted_c = np.sort(counts)
    # Gini via the mean-difference formula on sorted values
    index = np.arange(1, n + 1)
    gini = float((2.0 * np.sum(index * sorted_c) - (n + 1) * total) / (n * total))
    return BalanceMetrics(
        imbalance=float(counts.max() / mean),
        cv=float(counts.std() / mean),
        entropy=entropy,
        normalized_entropy=float(entropy / np.log(n)) if n > 1 else 1.0,
        gini=gini,
        max_count=int(counts.max()),
        min_count=int(counts.min()),
    )


class ExpertActivationTracker:
    """Accumulates per-(layer, expert) activation counts across batches.

    The resulting ``heatmap()`` is the quantity plotted in the paper's
    Fig. 15 (expert activation frequency across layers).
    """

    def __init__(self, num_layers: int, num_experts: int) -> None:
        if num_layers <= 0 or num_experts <= 0:
            raise ValueError("num_layers and num_experts must be positive")
        self.num_layers = num_layers
        self.num_experts = num_experts
        self._counts = np.zeros((num_layers, num_experts), dtype=np.int64)
        self.tokens_seen = 0

    def record(self, layer_idx: int, routing: RoutingResult) -> None:
        """Record one routing decision for ``layer_idx``."""
        if not (0 <= layer_idx < self.num_layers):
            raise IndexError(f"layer_idx {layer_idx} out of range")
        if routing.num_experts != self.num_experts:
            raise ValueError(
                f"routing has {routing.num_experts} experts, tracker expects "
                f"{self.num_experts}"
            )
        self._counts[layer_idx] += routing.expert_counts()
        if layer_idx == 0:
            self.tokens_seen += routing.num_tokens

    def record_counts(self, layer_idx: int, counts: np.ndarray) -> None:
        """Record precomputed per-expert counts (for streaming use)."""
        if not (0 <= layer_idx < self.num_layers):
            raise IndexError(f"layer_idx {layer_idx} out of range")
        counts = np.asarray(counts)
        if counts.shape != (self.num_experts,):
            raise ValueError(f"counts must have shape ({self.num_experts},)")
        self._counts[layer_idx] += counts.astype(np.int64)

    def heatmap(self) -> np.ndarray:
        """``(num_layers, num_experts)`` activation counts (copy)."""
        return self._counts.copy()

    def layer_metrics(self, layer_idx: int) -> BalanceMetrics:
        return balance_metrics(self._counts[layer_idx])

    def overall_metrics(self) -> BalanceMetrics:
        """Balance metrics over the per-expert totals summed across layers."""
        return balance_metrics(self._counts.sum(axis=0))

    def peak_activation(self) -> int:
        """Largest single (layer, expert) count — the paper quotes ~1M for
        MolmoE-1B vs ~290K for DeepSeek-VL2."""
        return int(self._counts.max())

    def reset(self) -> None:
        self._counts[:] = 0
        self.tokens_seen = 0
