"""Step-time composition: prefill and decode phase models.

Turns the per-component costs of :mod:`repro.perfmodel.flops` into wall
times on a given hardware/parallelism/quantization deployment:

* TP shards every GEMM ``tp``-ways and adds two ring all-reduces per layer;
* EP places whole experts on ``ep`` device groups, paying two all-to-alls
  per MoE layer plus a stochastic load-imbalance stall;
* PP splits the layer stack and adds ``pp-1`` point-to-point hops (no
  intra-request pipelining — a single batch traverses stages serially,
  which is why PP throughput stays flat in the paper's Fig. 13);
* the fused-MoE toggle switches the expert path's launch count and
  intermediate traffic (Fig. 14).

**One evaluation, two input kinds.**  :meth:`StepModel._components` prices
one step shape given as Python floats, or a whole axis of shapes given as
float64 arrays, through the same cost functions
(:mod:`repro.perfmodel.flops`, :mod:`repro.hardware.roofline`,
:mod:`repro.hardware.interconnect`).  IEEE-754 operations on float64
arrays are elementwise identical to the same operations on Python floats,
and the few terms whose NumPy form could round differently are evaluated
per element (see :mod:`repro.elementwise`), so a point probe, an array
pass and a :class:`PhaseBreakdown` of the same shape carry the same bits.
Repeated per-layer accumulation stays repeated addition (``n`` adds are
not a multiplication in floating point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.elementwise import maximum, per_element
from repro.hardware.interconnect import all_to_all_time, allreduce_time, p2p_time
from repro.hardware.roofline import (
    KernelCost,
    gemm_efficiency,
    kernel_time,
    roofline_time,
)
from repro.hardware.spec import HardwareSpec
from repro.models.config import AttentionKind, ModelConfig
from repro.optim.quantization import FP16_CONFIG, QuantConfig
from repro.parallel.plan import SINGLE_DEVICE, ParallelPlan
from repro.perfmodel import stepcache as _stepcache
from repro.perfmodel.flops import (
    ComponentCost,
    attention_core_cost,
    dense_ffn_cost,
    embedding_cost,
    expected_group_imbalance,
    lm_head_cost,
    qkvo_cost,
    router_cost,
    routed_experts_cost,
    shared_expert_cost,
)

__all__ = ["PhaseBreakdown", "StepComponents", "StepModel"]

_INF = float("inf")


@dataclass
class PhaseBreakdown:
    """Wall time of one forward step, decomposed.

    ``components`` maps component name → seconds (summed over all layers);
    ``comm`` is collective-communication time, ``pipeline`` the PP hop cost,
    ``overhead`` the fixed per-step software cost.
    """

    phase: str
    components: dict[str, float] = field(default_factory=dict)
    comm: float = 0.0  # simlint: unit=s
    pipeline: float = 0.0  # simlint: unit=s
    overhead: float = 0.0  # simlint: unit=s
    subcomponents: dict[str, float] = field(default_factory=dict)
    """Finer-grained attribution *overlapping* ``components`` (e.g. the
    router's share of ``moe_ffn``) — excluded from :attr:`total`, consumed
    by the cost-attribution profiler to carve components apart."""

    @property
    def total(self) -> float:
        return sum(self.components.values()) + self.comm + self.pipeline + self.overhead

    def shares(self) -> dict[str, float]:
        """Fraction of step time per component (comm/pipeline/overhead
        included), for profiler-style reports."""
        total = self.total
        if total <= 0:
            return {}
        out = {k: v / total for k, v in self.components.items() if v > 0}
        for name, v in (("comm", self.comm), ("pipeline", self.pipeline),
                        ("overhead", self.overhead)):
            if v > 0:
                out[name] = v / total
        return out

    def describe(self, width: int = 40) -> str:
        """A one-block text profile of where the step time goes."""
        shares = sorted(self.shares().items(), key=lambda kv: -kv[1])
        if not shares:
            return f"{self.phase}: empty step"
        label_w = max(len(k) for k, _ in shares)
        lines = [f"{self.phase} step: {self.total * 1e3:.3f} ms"]
        for name, frac in shares:
            bar = "#" * max(1, int(round(frac * width)))
            lines.append(f"  {name:<{label_w}} {100 * frac:5.1f}% |{bar}")
        return "\n".join(lines)


class StepComponents(NamedTuple):
    """Seconds of one step (or one array of steps) per component, summed
    over every layer.  ``router`` is the router's share of ``moe_ffn``
    (overlapping it, excluded from :attr:`total`)."""

    attention: float
    moe_ffn: float
    dense_ffn: float
    embedding: float
    lm_head: float
    comm: float
    pipeline: float
    overhead: float
    router: float

    @property
    def total(self):
        """Step seconds, added in :attr:`PhaseBreakdown.total`'s order."""
        return (self.attention + self.moe_ffn + self.dense_ffn + self.embedding
                + self.lm_head + self.comm + self.pipeline + self.overhead)


def _check(name: str, value, positive: bool) -> None:
    """Reject a step-shape argument that is not finite and positive
    (``positive``) or non-negative, naming it."""
    if isinstance(value, np.ndarray):
        if not value.size:
            return
        # NaN propagates into both reductions
        low, high = np.minimum.reduce(value), np.maximum.reduce(value)
        low_ok = (low > 0) if positive else (low >= 0)
        if low_ok and high < _INF:
            return
        value = (high if low_ok else low).item()
    elif (0 < value < _INF) if positive else (0 <= value < _INF):
        return
    kind = "positive" if positive else "non-negative"
    raise ValueError(f"{name} must be finite and {kind}, got {value!r}")


def _axis(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class StepModel:
    """Per-step execution-time model for one deployment."""

    def __init__(
        self,
        model: ModelConfig,
        hardware: HardwareSpec,
        plan: ParallelPlan = SINGLE_DEVICE,
        quant: QuantConfig = FP16_CONFIG,
        fused_moe: bool = True,
        mla_native: bool = False,
    ) -> None:
        plan.validate_for_model(model)
        if plan.num_devices > hardware.max_devices:
            raise ValueError(
                f"plan needs {plan.num_devices} devices; {hardware.name} nodes "
                f"have at most {hardware.max_devices}"
            )
        self.model = model
        self.hardware = hardware
        self.plan = plan
        self.quant = quant
        self.fused_moe = fused_moe
        self.mla_native = mla_native
        self._layer_is_moe = tuple(is_moe for _, is_moe in model.iter_layers())
        # intern the frozen setup once: per-step cache keys are flat tuples.
        # the concrete class is part of the setup — subclasses override
        # kernel-time methods (e.g. ablation variants) and must not share
        # entries with the base model.
        self._cache = _stepcache.GLOBAL
        self._setup_id = self._cache.setup_id(_stepcache.freeze((
            type(self).__module__, type(self).__qualname__,
            model, hardware, plan, quant, fused_moe, mla_native,
        )))

    @property
    def setup_id(self) -> int:
        """Interned id of this deployment's frozen setup — equal setups
        (same model/hardware/plan/quant/flags and concrete class) share an
        id, so external memo tables (the engine fast path's totals memo)
        can key on it instead of re-hashing the configs."""
        return self._setup_id

    # ------------------------------------------------------------------ #
    # kernel-time helpers
    # ------------------------------------------------------------------ #

    def _gemm_eff(self, m, n, k):
        """Compute efficiency of an ``m×k @ k×n`` GEMM — the kernel method
        ablation variants override (e.g. a flat efficiency)."""
        return gemm_efficiency(m, n, k, self.hardware)

    def _component_time(self, cost: ComponentCost, shard: float = 1.0,
                        kv_shard: float = 1.0, dtype: str | None = None):
        """Roofline time of one component sharded ``shard``-ways.

        ``kv_shard`` separately divides activation/KV traffic for the
        attention core (KV heads shard differently from weights);
        ``dtype`` overrides the math dtype (attention cores run in half
        precision even under weight/activation quantization).
        """
        if cost.launches == 0 and cost.flops == 0 and cost.bytes == 0:
            return 0.0
        flops = cost.flops / shard
        w_bytes = cost.weight_bytes / shard
        if self.quant.weights.is_quantized:
            # dequantisation stalls erode part of the bandwidth saving
            w_bytes = w_bytes / self.hardware.quant_mem_derate
        a_bytes = cost.act_bytes / kv_shard if kv_shard != 1.0 else cost.act_bytes / shard
        gemm_m = cost.gemm_m
        if isinstance(gemm_m, np.ndarray) or gemm_m > 0:
            eff = self._gemm_eff(gemm_m, maximum(1.0, cost.gemm_n / shard),
                                 cost.gemm_k)
        else:
            eff = None
        return roofline_time(
            flops, w_bytes + a_bytes,
            dtype if dtype is not None else self.quant.compute_dtype_name,
            cost.launches, self.hardware, efficiency=eff,
        )

    # ------------------------------------------------------------------ #
    # per-layer times
    # ------------------------------------------------------------------ #

    def _attention_time(self, m, batch, kv_len, attended_len):
        tp = self.plan.tp
        att = self.model.attention
        if att.kind is AttentionKind.MLA and self.mla_native:
            kv_shard = 1.0  # the compressed latent is replicated across TP
        else:
            kv_shard = float(min(tp, att.num_kv_heads))
        t = self._component_time(qkvo_cost(self.model, m, self.quant), shard=tp)
        # the attention core runs in half precision regardless of quant mode
        t = t + self._component_time(
            attention_core_cost(self.model, m, batch, kv_len, self.quant,
                                attended_len, mla_native=self.mla_native),
            shard=tp,
            kv_shard=kv_shard,
            dtype="fp16",
        )
        # rmsnorm + residual + rope elementwise traffic
        ew_bytes = 8.0 * m * self.model.hidden_size * self.quant.activation_bytes / tp
        return t + roofline_time(0.0, ew_bytes, "fp16", 5, self.hardware)

    def _moe_ffn_time(self, m):
        """(router seconds, compute seconds incl. router, comm seconds) of
        one MoE layer's FFN block."""
        moe = self.model.moe
        assert moe is not None
        tp, ep = self.plan.tp, self.plan.ep
        intra_tp = self.plan.expert_shard_tp
        router_t = self._component_time(router_cost(self.model, m, self.quant), shard=1.0)
        t = router_t

        if ep > 1:
            resident = moe.num_experts // ep
            # mean assignments landing on one EP group; the all-to-all
            # barrier makes the step as slow as the *max*-loaded group, so
            # the whole expert phase is scaled by the multinomial imbalance
            imbalance = per_element(
                lambda assignments: expected_group_imbalance(ep, assignments),
                m * moe.top_k)
            local_tokens = m / ep
            cost = routed_experts_cost(
                self.model,
                maximum(1.0, local_tokens),
                self.quant,
                fused=self.fused_moe,
                num_experts_resident=resident,
                top_k=min(moe.top_k, resident),
            )
            # EP dispatch machinery: sort/scatter/gather across devices
            cost.launches += 3
            t = t + self._component_time(cost, shard=intra_tp) * imbalance
        else:
            cost = routed_experts_cost(self.model, m, self.quant, fused=self.fused_moe)
            t = t + self._component_time(cost, shard=tp)

        t = t + self._component_time(shared_expert_cost(self.model, m, self.quant), shard=tp)

        comm = 0.0
        if ep > 1:
            payload = (m * moe.top_k / ep) * self.model.hidden_size * self.quant.activation_bytes
            comm = comm + 2.0 * all_to_all_time(payload * ep, ep, self.hardware)
        return router_t, t, comm

    def _dense_ffn_time(self, m):
        return self._component_time(
            dense_ffn_cost(self.model, m, self.quant), shard=self.plan.tp
        )

    # ------------------------------------------------------------------ #
    # the step evaluation
    # ------------------------------------------------------------------ #

    def _components(self, m, batch, kv_len, attended_len) -> StepComponents:
        """Price one validated step shape: all Python floats, or all
        float64 arrays of one length (never mixed)."""
        model, hw, plan, quant = self.model, self.hardware, self.plan, self.quant

        # every layer of one kind costs the same: price each kind once
        # (lazily), then keep the per-layer repeated addition (n adds != mul)
        attn_layer = self._attention_time(m, batch, kv_len, attended_len)
        moe_layer = dense_layer = None
        attn_time = moe_time = moe_comm = dense_time = router_time = 0.0
        for is_moe in self._layer_is_moe:
            attn_time = attn_time + attn_layer
            if is_moe:
                if moe_layer is None:
                    moe_layer = self._moe_ffn_time(m)
                r, t, c = moe_layer
                router_time = router_time + r
                moe_time = moe_time + t
                moe_comm = moe_comm + c
            else:
                if dense_layer is None:
                    dense_layer = self._dense_ffn_time(m)
                dense_time = dense_time + dense_layer

        # embeddings + final logits (decode & prefill both produce `batch`)
        embedding = self._component_time(
            embedding_cost(model, m, quant), shard=plan.tp)
        lm_head = self._component_time(
            lm_head_cost(model, batch, quant), shard=plan.tp)

        # TP collectives: 2 ring all-reduces per layer over the token payload
        comm = 0.0
        if plan.tp > 1:
            payload = m * model.hidden_size * quant.activation_bytes
            n_ar = model.num_layers  # post-attention all-reduce
            # post-FFN all-reduce only where the FFN is still TP-sharded
            n_ar += (
                model.num_dense_layers
                + (model.num_moe_layers if plan.expert_shard_tp > 1 or plan.ep == 1 else 0)
            )
            comm = comm + n_ar * allreduce_time(payload, plan.tp, hw)
        comm = comm + moe_comm

        # PP: serial stage traversal, one p2p hop per boundary, plus the
        # extra per-stage launch/sync overhead
        pipeline = 0.0
        if plan.pp > 1:
            hop = p2p_time(m * model.hidden_size * quant.activation_bytes, hw)
            pipeline = (plan.pp - 1) * (hop + hw.step_overhead_us * 1e-6 * 0.5)

        overhead = (hw.step_overhead_us + batch * hw.per_seq_overhead_us) * 1e-6

        # vision tower cost is charged by the caller per image, not per step
        return StepComponents(attn_time, moe_time, dense_time, embedding,
                              lm_head, comm, pipeline, overhead, router_time)

    @staticmethod
    def _point(num_tokens, batch, kv_len, attended_len):
        """Validate one step shape and coerce it to Python floats."""
        _check("num_tokens", num_tokens, positive=True)
        _check("batch", batch, positive=True)
        _check("kv_len", kv_len, positive=False)
        kv = float(kv_len)
        if attended_len is None:
            return float(num_tokens), float(batch), kv, kv
        _check("attended_len", attended_len, positive=False)
        return float(num_tokens), float(batch), kv, float(attended_len)

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #

    def step_breakdown(
        self,
        num_tokens: float,
        batch: float,
        kv_len: float,
        phase: str,
        attended_len: float | None = None,
    ) -> PhaseBreakdown:
        """Wall time of one forward step.

        Parameters
        ----------
        num_tokens:
            New tokens processed this step (prefill: ``batch * prompt_len``;
            decode: ``batch``).  Finite and positive.
        batch:
            Number of sequences in the step.  Finite and positive.
        kv_len:
            Context length whose KV cache is read per sequence.  Finite and
            non-negative.
        phase:
            ``"prefill"`` or ``"decode"`` (labelling + logits count).
        attended_len:
            Mean attended span per new token (default ``kv_len``).

        Results are memoized through :mod:`repro.perfmodel.stepcache`:
        repeated shapes return the *same* :class:`PhaseBreakdown` object,
        so callers must treat it as immutable (copy before editing).
        Shapes are validated on a miss (an invalid shape is never cached).
        """
        cache = self._cache
        if not cache.enabled:
            return self._compute_step_breakdown(
                num_tokens, batch, kv_len, phase, attended_len)
        key = (self._setup_id, num_tokens, batch, kv_len, phase, attended_len)
        bd = cache.get(key)
        if bd is None:
            bd = self._compute_step_breakdown(
                num_tokens, batch, kv_len, phase, attended_len)
            cache.put(key, bd)
        return bd

    def _compute_step_breakdown(
        self,
        num_tokens: float,
        batch: float,
        kv_len: float,
        phase: str,
        attended_len: float | None,
    ) -> PhaseBreakdown:
        """:meth:`step_breakdown` without the step cache: a
        :class:`PhaseBreakdown` view over one :meth:`_components` call."""
        if phase not in ("prefill", "decode"):
            raise ValueError(f"phase must be 'prefill' or 'decode', got {phase!r}")
        c = self._components(*self._point(num_tokens, batch, kv_len, attended_len))
        bd = PhaseBreakdown(
            phase=phase,
            components={"attention": c.attention, "moe_ffn": c.moe_ffn,
                        "dense_ffn": c.dense_ffn, "embedding": c.embedding,
                        "lm_head": c.lm_head},
            comm=c.comm, pipeline=c.pipeline, overhead=c.overhead,
        )
        if c.router:
            bd.subcomponents["router"] = c.router
        return bd

    def step_total_one(self, num_tokens, batch, kv_len,
                       attended_len=None) -> float:
        """``step_breakdown(...).total`` of one shape, without building the
        breakdown or touching the step cache (the engine fast path keeps
        its own memo of these)."""
        return self._components(
            *self._point(num_tokens, batch, kv_len, attended_len)).total

    def step_totals(self, num_tokens, batch, kv_len, attended_len=None) -> list[float]:
        """``step_breakdown(...).total`` for an axis of step shapes.

        Arguments are per-point sequences priced in one array pass;
        ``attended_len=None`` attends to the whole context.  Returns Python
        floats so downstream tables never see ``np.float64`` (its repr
        would corrupt table digests).
        """
        m, b, kv = _axis(num_tokens), _axis(batch), _axis(kv_len)
        _check("num_tokens", m, positive=True)
        _check("batch", b, positive=True)
        _check("kv_len", kv, positive=False)
        if attended_len is None:
            return self._axis_totals(m, b, kv, kv)
        att = _axis(attended_len)
        _check("attended_len", att, positive=False)
        return self._axis_totals(m, b, kv, att)

    def prefill_totals(self, batches, prompt_lens) -> list[float]:
        """:meth:`prefill_time` for per-point ``(batch, prompt_len)`` pairs."""
        b, p = _axis(batches), _axis(prompt_lens)
        _check("batch", b, positive=True)
        _check("prompt_len", p, positive=True)
        return self._axis_totals(b * p, b, p, (p + 1) / 2.0)

    def decode_totals(self, batches, context_lens) -> list[float]:
        """:meth:`decode_step_time` for per-point ``(batch, context)`` pairs."""
        b, c = _axis(batches), _axis(context_lens)
        _check("batch", b, positive=True)
        _check("context_len", c, positive=True)
        return self._axis_totals(b, b, c, c)

    def _axis_totals(self, m, batch, kv_len, attended_len) -> list[float]:
        """Totals of validated float64 step-shape arrays, as Python floats."""
        if not m.size:
            return []
        return self._components(m, batch, kv_len, attended_len).total.tolist()

    def prefill_time(self, batch: int, prompt_len: int) -> float:
        """Seconds to prefill ``batch`` prompts of ``prompt_len`` tokens."""
        _check("batch", batch, positive=True)
        _check("prompt_len", prompt_len, positive=True)
        bd = self.step_breakdown(
            num_tokens=batch * prompt_len,
            batch=batch,
            kv_len=prompt_len,
            phase="prefill",
            attended_len=(prompt_len + 1) / 2.0,
        )
        return bd.total

    def decode_step_time(self, batch: int, context_len: int) -> float:
        """Seconds for one decode step at the given per-sequence context."""
        _check("batch", batch, positive=True)
        _check("context_len", context_len, positive=True)
        bd = self.step_breakdown(
            num_tokens=batch, batch=batch, kv_len=context_len, phase="decode"
        )
        return bd.total

    def cache_stats(self) -> _stepcache.CacheStats:
        """Hit/miss counters of the step cache this model routes through."""
        return self._cache.stats

    def vision_encode_time(self, num_images: int) -> float:
        """Seconds to encode ``num_images`` through the vision tower (VLMs).

        The ViT encoder is a dense transformer over ``image_tokens`` patches;
        we charge its GEMM flops at the roofline plus per-layer launches.
        """
        v = self.model.vision
        if v is None or num_images <= 0:
            return 0.0
        m = float(num_images * v.image_tokens)
        per_layer_params = 4 * v.hidden_size**2 + 2 * v.hidden_size * v.ffn_dim
        flops = 2.0 * m * per_layer_params * v.num_layers
        flops += 2.0 * m * v.image_tokens * v.hidden_size * 2 * v.num_layers  # attn core
        bytes_ = per_layer_params * v.num_layers * self.quant.weight_bytes
        bytes_ += 4.0 * m * v.hidden_size * v.num_layers * self.quant.activation_bytes
        kc = KernelCost(flops=flops, bytes=bytes_, dtype=self.quant.compute_dtype_name,
                        launches=8 * v.num_layers)
        eff = gemm_efficiency(m, v.hidden_size, v.hidden_size, self.hardware)
        return kernel_time(kc, self.hardware, efficiency=eff)
