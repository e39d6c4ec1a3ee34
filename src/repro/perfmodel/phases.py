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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.interconnect import all_to_all_time, allreduce_time, p2p_time
from repro.hardware.roofline import KernelCost, gemm_efficiency, kernel_time
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
    expected_expert_coverage,
    expected_group_imbalance,
    lm_head_cost,
    qkvo_cost,
    router_cost,
    routed_experts_cost,
    shared_expert_cost,
)

__all__ = ["PhaseBreakdown", "StepModel"]


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

    def add(self, name: str, seconds: float) -> None:
        self.components[name] = self.components.get(name, 0.0) + seconds

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

    def _component_time(self, cost: ComponentCost, shard: float = 1.0,
                        kv_shard: float = 1.0, dtype: str | None = None) -> float:
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
            w_bytes /= self.hardware.quant_mem_derate
        a_bytes = cost.act_bytes / kv_shard if kv_shard != 1.0 else cost.act_bytes / shard
        kc = KernelCost(
            flops=flops,
            bytes=w_bytes + a_bytes,
            dtype=dtype if dtype is not None else self.quant.compute_dtype_name,
            launches=cost.launches,
        )
        if cost.gemm_m > 0:
            eff = gemm_efficiency(
                cost.gemm_m, max(1.0, cost.gemm_n / shard), cost.gemm_k, self.hardware
            )
        else:
            eff = None
        return kernel_time(kc, self.hardware, efficiency=eff)

    # ------------------------------------------------------------------ #
    # per-layer times
    # ------------------------------------------------------------------ #

    def _attention_time(self, m: float, batch: float, kv_len: float,
                        attended_len: float | None) -> float:
        tp = self.plan.tp
        att = self.model.attention
        if att.kind is AttentionKind.MLA and self.mla_native:
            kv_shard = 1.0  # the compressed latent is replicated across TP
        else:
            kv_shard = float(min(tp, att.num_kv_heads))
        t = self._component_time(qkvo_cost(self.model, m, self.quant), shard=tp)
        # the attention core runs in half precision regardless of quant mode
        t += self._component_time(
            attention_core_cost(self.model, m, batch, kv_len, self.quant,
                                attended_len, mla_native=self.mla_native),
            shard=tp,
            kv_shard=kv_shard,
            dtype="fp16",
        )
        # rmsnorm + residual + rope elementwise traffic
        ew = KernelCost(
            flops=0.0,
            bytes=8.0 * m * self.model.hidden_size * self.quant.activation_bytes / tp,
            dtype="fp16",
            launches=5,
        )
        t += kernel_time(ew, self.hardware)
        return t

    def _moe_ffn_time(self, m: float) -> tuple[float, float, float]:
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
            imbalance = expected_group_imbalance(ep, m * moe.top_k)
            local_tokens = m / ep
            cost = routed_experts_cost(
                self.model,
                max(1.0, local_tokens),
                self.quant,
                fused=self.fused_moe,
                num_experts_resident=resident,
                top_k=min(moe.top_k, resident),
            )
            # EP dispatch machinery: sort/scatter/gather across devices
            cost = ComponentCost(
                cost.name, cost.flops, cost.weight_bytes, cost.act_bytes,
                cost.launches + 3, cost.gemm_m, cost.gemm_n, cost.gemm_k,
            )
            t += self._component_time(cost, shard=intra_tp) * imbalance
        else:
            cost = routed_experts_cost(self.model, m, self.quant, fused=self.fused_moe)
            t += self._component_time(cost, shard=tp)

        t += self._component_time(shared_expert_cost(self.model, m, self.quant), shard=tp)

        comm = 0.0
        if ep > 1:
            payload = (m * moe.top_k / ep) * self.model.hidden_size * self.quant.activation_bytes
            comm += 2.0 * all_to_all_time(payload * ep, ep, self.hardware)
        return router_t, t, comm

    def _dense_ffn_time(self, m: float) -> float:
        return self._component_time(
            dense_ffn_cost(self.model, m, self.quant), shard=self.plan.tp
        )

    # ------------------------------------------------------------------ #
    # whole-step times
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
            decode: ``batch``).
        batch:
            Number of sequences in the step.
        kv_len:
            Context length whose KV cache is read per sequence.
        phase:
            ``"prefill"`` or ``"decode"`` (labelling + logits count).

        Results are memoized through :mod:`repro.perfmodel.stepcache`:
        repeated shapes return the *same* :class:`PhaseBreakdown` object,
        so callers must treat it as immutable (copy before editing).
        """
        if phase not in ("prefill", "decode"):
            raise ValueError(f"phase must be 'prefill' or 'decode', got {phase!r}")
        if num_tokens <= 0 or batch <= 0:
            raise ValueError("num_tokens and batch must be positive")
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
        m = float(num_tokens)
        hw, plan, quant = self.hardware, self.plan, self.quant
        bd = PhaseBreakdown(phase=phase)

        # every layer of one kind costs the same: price each kind once
        # (lazily), then keep the per-layer repeated addition (n adds != mul)
        attn_layer = self._attention_time(m, batch, kv_len, attended_len)
        moe_layer = dense_layer = None
        moe_time = moe_comm = dense_time = attn_time = router_time = 0.0
        for _, is_moe in self.model.iter_layers():
            attn_time += attn_layer
            if is_moe:
                if moe_layer is None:
                    moe_layer = self._moe_ffn_time(m)
                r, t, c = moe_layer
                router_time += r
                moe_time += t
                moe_comm += c
            else:
                if dense_layer is None:
                    dense_layer = self._dense_ffn_time(m)
                dense_time += dense_layer
        bd.add("attention", attn_time)
        bd.add("moe_ffn", moe_time)
        bd.add("dense_ffn", dense_time)
        if router_time:
            bd.subcomponents["router"] = router_time

        # embeddings + final logits (decode & prefill both produce `batch`)
        bd.add("embedding", self._component_time(
            embedding_cost(self.model, m, quant), shard=plan.tp))
        bd.add("lm_head", self._component_time(
            lm_head_cost(self.model, batch, quant), shard=plan.tp))

        # TP collectives: 2 ring all-reduces per layer over the token payload
        if plan.tp > 1:
            payload = m * self.model.hidden_size * quant.activation_bytes
            n_ar = self.model.num_layers  # post-attention all-reduce
            # post-FFN all-reduce only where the FFN is still TP-sharded
            n_ar += (
                self.model.num_dense_layers
                + (self.model.num_moe_layers if plan.expert_shard_tp > 1 or plan.ep == 1 else 0)
            )
            bd.comm += n_ar * allreduce_time(payload, plan.tp, hw)
        bd.comm += moe_comm

        # PP: serial stage traversal, one p2p hop per boundary, plus the
        # extra per-stage launch/sync overhead
        if plan.pp > 1:
            hop = p2p_time(m * self.model.hidden_size * quant.activation_bytes, hw)
            bd.pipeline = (plan.pp - 1) * (hop + hw.step_overhead_us * 1e-6 * 0.5)

        bd.overhead = (hw.step_overhead_us + batch * hw.per_seq_overhead_us) * 1e-6

        # vision tower cost is charged by the caller per image, not per step
        return bd

    def prefill_time(self, batch: int, prompt_len: int) -> float:
        """Seconds to prefill ``batch`` prompts of ``prompt_len`` tokens."""
        if prompt_len <= 0:
            raise ValueError("prompt_len must be positive")
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
        if context_len <= 0:
            raise ValueError("context_len must be positive")
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
