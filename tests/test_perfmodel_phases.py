"""Tests for repro.perfmodel.phases (step time composition)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.ablations import _FlatEfficiencyStepModel
from repro.hardware.gpus import H100_SXM
from repro.hardware.interconnect import allreduce_time
from repro.models.zoo import (
    DEEPSEEK_VL2_TINY,
    MIXTRAL_8X7B,
    OLMOE_1B_7B,
    QWEN3_0_6B,
)
from repro.optim.quantization import FP8_CONFIG
from repro.parallel.plan import ParallelPlan
from repro.perfmodel import stepcache
from repro.perfmodel.phases import StepModel


@pytest.fixture(scope="module")
def olmoe_steps():
    return StepModel(OLMOE_1B_7B, H100_SXM)


class TestStepBreakdown:
    def test_components_present(self, olmoe_steps):
        bd = olmoe_steps.step_breakdown(16, 16, 512, "decode")
        assert {"attention", "moe_ffn", "embedding", "lm_head"} <= set(bd.components)
        assert bd.total > 0
        assert bd.components["moe_ffn"] > 0

    def test_dense_model_has_no_moe_time(self):
        steps = StepModel(QWEN3_0_6B, H100_SXM)
        bd = steps.step_breakdown(4, 4, 128, "decode")
        assert bd.components["moe_ffn"] == 0
        assert bd.components["dense_ffn"] > 0

    def test_phase_validation(self, olmoe_steps):
        with pytest.raises(ValueError):
            olmoe_steps.step_breakdown(4, 4, 128, "train")
        with pytest.raises(ValueError):
            olmoe_steps.step_breakdown(0, 4, 128, "decode")

    def test_total_is_sum(self, olmoe_steps):
        bd = olmoe_steps.step_breakdown(8, 8, 256, "decode")
        assert bd.total == pytest.approx(
            sum(bd.components.values()) + bd.comm + bd.pipeline + bd.overhead
        )


class TestMonotonicity:
    def test_decode_grows_with_batch(self, olmoe_steps):
        times = [olmoe_steps.decode_step_time(b, 1024) for b in (1, 8, 64, 256)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_decode_grows_with_context(self, olmoe_steps):
        times = [olmoe_steps.decode_step_time(16, c) for c in (128, 1024, 8192)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_prefill_grows_with_prompt(self, olmoe_steps):
        times = [olmoe_steps.prefill_time(4, n) for n in (128, 512, 2048)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_decode_throughput_sublinear_in_batch(self, olmoe_steps):
        """Batching amortises weight streaming: time(64) << 64*time(1)."""
        t1 = olmoe_steps.decode_step_time(1, 1024)
        t64 = olmoe_steps.decode_step_time(64, 1024)
        assert t64 < 16 * t1

    def test_validation(self, olmoe_steps):
        with pytest.raises(ValueError):
            olmoe_steps.decode_step_time(4, 0)
        with pytest.raises(ValueError):
            olmoe_steps.prefill_time(4, 0)


class TestParallelEffects:
    def test_tp_speeds_up_decode(self):
        t1 = StepModel(MIXTRAL_8X7B, H100_SXM).decode_step_time(16, 1024)
        t4 = StepModel(MIXTRAL_8X7B, H100_SXM,
                       plan=ParallelPlan(tp=4)).decode_step_time(16, 1024)
        assert t4 < t1
        assert t4 > t1 / 4  # communication prevents perfect scaling

    def test_tp_adds_comm(self):
        bd = StepModel(MIXTRAL_8X7B, H100_SXM,
                       plan=ParallelPlan(tp=4)).step_breakdown(16, 16, 1024, "decode")
        assert bd.comm > 0

    def test_pp_adds_pipeline_hops_not_speed(self):
        t1 = StepModel(MIXTRAL_8X7B, H100_SXM).decode_step_time(16, 1024)
        bd = StepModel(MIXTRAL_8X7B, H100_SXM,
                       plan=ParallelPlan(pp=4)).step_breakdown(16, 16, 1024, "decode")
        assert bd.pipeline > 0
        assert bd.total == pytest.approx(t1, rel=0.15)

    def test_ep_adds_all_to_all(self):
        bd = StepModel(MIXTRAL_8X7B, H100_SXM,
                       plan=ParallelPlan(tp=4, ep=4)).step_breakdown(
                           16, 16, 1024, "decode")
        bd_tp = StepModel(MIXTRAL_8X7B, H100_SXM,
                          plan=ParallelPlan(tp=4)).step_breakdown(
                              16, 16, 1024, "decode")
        assert bd.comm > 0
        # EP's imbalance makes the expert phase slower than pure TP's
        assert bd.components["moe_ffn"] > bd_tp.components["moe_ffn"]

    def test_too_many_devices_rejected(self):
        with pytest.raises(ValueError, match="devices"):
            StepModel(MIXTRAL_8X7B, H100_SXM, plan=ParallelPlan(tp=16))


class TestOptimizationEffects:
    def test_fused_faster_than_unfused(self):
        fused = StepModel(MIXTRAL_8X7B, H100_SXM, fused_moe=True)
        naive = StepModel(MIXTRAL_8X7B, H100_SXM, fused_moe=False)
        assert fused.decode_step_time(16, 1024) < naive.decode_step_time(16, 1024)

    def test_fp8_faster_than_fp16(self):
        f16 = StepModel(MIXTRAL_8X7B, H100_SXM)
        f8 = StepModel(MIXTRAL_8X7B, H100_SXM, quant=FP8_CONFIG)
        assert f8.decode_step_time(16, 1024) < f16.decode_step_time(16, 1024)

    def test_vision_encode_time(self):
        steps = StepModel(DEEPSEEK_VL2_TINY, H100_SXM)
        t1 = steps.vision_encode_time(1)
        t8 = steps.vision_encode_time(8)
        assert 0 < t1 < t8
        assert steps.vision_encode_time(0) == 0.0

    def test_vision_encode_zero_for_llm(self):
        assert StepModel(OLMOE_1B_7B, H100_SXM).vision_encode_time(4) == 0.0


def _per_layer_sums(steps: StepModel, m: float, batch: float, kv_len: float,
                    attended_len: float | None) -> dict[str, float]:
    """The layer-stack sums priced layer by layer, one call per layer."""
    sums = dict.fromkeys(("attention", "moe_ffn", "dense_ffn", "router",
                          "moe_comm"), 0.0)
    for _, is_moe in steps.model.iter_layers():
        sums["attention"] += steps._attention_time(m, batch, kv_len,
                                                   attended_len)
        if is_moe:
            r, t, c = steps._moe_ffn_time(m)
            sums["router"] += r
            sums["moe_ffn"] += t
            sums["moe_comm"] += c
        else:
            sums["dense_ffn"] += steps._dense_ffn_time(m)
    return sums


class _CountingStepModel(StepModel):
    """Counts every per-layer pricing call and every breakdown computed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls: Counter[str] = Counter()

    def _compute_step_breakdown(self, *args):
        self.calls["breakdown"] += 1
        return super()._compute_step_breakdown(*args)

    def _attention_time(self, *args):
        self.calls["attention"] += 1
        return super()._attention_time(*args)

    def _moe_ffn_time(self, *args):
        self.calls["moe_ffn"] += 1
        return super()._moe_ffn_time(*args)

    def _dense_ffn_time(self, *args):
        self.calls["dense_ffn"] += 1
        return super()._dense_ffn_time(*args)


_SHAPES = [(1, 1, 64, "decode", None), (16, 16, 512, "decode", None),
           (512, 1, 512, "prefill", 256.5), (3, 3, 2048, "decode", 1024.0)]


class TestLayerInvariantPricing:
    @pytest.mark.parametrize("model", [OLMOE_1B_7B, DEEPSEEK_VL2_TINY,
                                       QWEN3_0_6B])
    def test_each_kind_priced_once_per_cache_miss(self, model):
        stepcache.clear()
        steps = _CountingStepModel(model, H100_SXM)
        for _ in range(3):  # repeats are cache hits and price nothing
            for m, batch, kv, phase, att in _SHAPES:
                steps.step_breakdown(m, batch, kv, phase, attended_len=att)
        misses = steps.calls["breakdown"]
        assert misses == len(_SHAPES)
        assert steps.calls["attention"] == misses
        assert steps.calls["moe_ffn"] == (misses if model.num_moe_layers
                                          else 0)
        assert steps.calls["dense_ffn"] == (misses if model.num_dense_layers
                                            else 0)

    @pytest.mark.parametrize("cls", [StepModel, _FlatEfficiencyStepModel])
    @pytest.mark.parametrize("plan", [ParallelPlan(), ParallelPlan(tp=2),
                                      ParallelPlan(tp=2, ep=2)])
    def test_breakdown_equals_per_layer_loop(self, cls, plan):
        # DeepSeek-VL2-Tiny: one leading dense layer, then MoE layers
        assert DEEPSEEK_VL2_TINY.first_k_dense == 1
        steps = cls(DEEPSEEK_VL2_TINY, H100_SXM, plan=plan)
        for m, batch, kv, phase, att in _SHAPES:
            bd = steps._compute_step_breakdown(float(m), batch, kv, phase,
                                               att)
            ref = _per_layer_sums(steps, float(m), batch, kv, att)
            for name in ("attention", "moe_ffn", "dense_ffn"):
                assert bd.components[name] == ref[name]
            assert bd.subcomponents == {"router": ref["router"]}
            comm = 0.0
            if plan.tp > 1:
                model, quant = steps.model, steps.quant
                n_ar = model.num_layers + model.num_dense_layers + (
                    model.num_moe_layers
                    if plan.expert_shard_tp > 1 or plan.ep == 1 else 0)
                comm += n_ar * allreduce_time(
                    m * model.hidden_size * quant.activation_bytes,
                    plan.tp, H100_SXM)
            comm += ref["moe_comm"]
            assert bd.comm == comm
