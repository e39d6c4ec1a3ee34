"""Exact-equivalence tests for the array entry of the step model.

``metrics_rows`` prices a sweep through ``StepModel``'s array entry in one
pass; ``metrics_row`` walks the same shapes one point at a time through
``prefill_time`` / ``decode_step_time``.  Both reach the single step
evaluation, so every float must agree bit for bit.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import metrics_row, metrics_rows, perf_model
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.optim.quantization import FP8_CONFIG
from repro.parallel.plan import ParallelPlan
from repro.perfmodel.inference import InferencePerfModel
from repro.perfmodel.phases import StepModel

SHAPES = [(1, 128, 128), (4, 512, 64), (16, 1024, 1), (64, 2048, 256),
          (128, 256, 32)]


def _assert_rows_identical(pm, shapes, images=0):
    fast = metrics_rows(pm, shapes, images=images)
    slow = [metrics_row(pm, b, i, o, images=images) for b, i, o in shapes]
    assert fast == slow  # dict equality — every float bit-identical


class TestExactEquivalence:
    @pytest.mark.parametrize("model", [
        "OLMoE-1B-7B", "Mixtral-8x7B", "DeepSeek-V2-Lite",
        "Qwen1.5-MoE-A2.7B", "Qwen3-30B-A3B", "Phi-3.5-MoE",
    ])
    def test_default_deployments(self, model):
        _assert_rows_identical(perf_model(get_model(model)), SHAPES)

    @pytest.mark.parametrize("plan", [
        ParallelPlan(tp=2), ParallelPlan(tp=4, ep=4), ParallelPlan(tp=4, pp=2),
        ParallelPlan(tp=8, ep=4),
    ])
    def test_parallel_plans(self, plan):
        pm = InferencePerfModel(get_model("Mixtral-8x7B"), H100_SXM, plan=plan)
        _assert_rows_identical(pm, SHAPES)

    def test_quantized(self):
        pm = InferencePerfModel(get_model("Mixtral-8x7B"), H100_SXM,
                                plan=ParallelPlan(tp=2), quant=FP8_CONFIG)
        _assert_rows_identical(pm, SHAPES)

    def test_unfused_moe(self):
        pm = InferencePerfModel(get_model("Qwen1.5-MoE-A2.7B"), H100_SXM,
                                fused_moe=False)
        _assert_rows_identical(pm, SHAPES)

    def test_mla_native(self):
        pm = InferencePerfModel(get_model("DeepSeek-V2-Lite"), H100_SXM,
                                mla_native=True)
        _assert_rows_identical(pm, SHAPES)

    def test_vlm_with_images(self):
        pm = perf_model(get_model("DeepSeek-VL2-Tiny"))
        _assert_rows_identical(pm, [(1, 128, 64), (8, 256, 128)], images=2)

    def test_single_decode_step_edge(self):
        # output_tokens == 1 means no decode phase at all
        pm = perf_model(get_model("OLMoE-1B-7B"))
        _assert_rows_identical(pm, [(2, 64, 1), (2, 64, 2)])

    @pytest.mark.parametrize("model", [
        "OLMoE-1B-7B", "Mixtral-8x7B", "DeepSeek-V2-Lite",
    ])
    def test_step_total_one_matches_scalar_and_batched(self, model):
        """The engine fast path's one-point entry must agree bit-for-bit
        with both the breakdown entry and the batched array pass over
        the same shapes (the elementwise helpers dispatch float vs array,
        but every arithmetic op is the same IEEE-754 operation)."""
        steps = StepModel(get_model(model), H100_SXM)
        shapes = [(1, 1, 1, None), (8, 8, 512, None), (64, 64, 4096, None),
                  (256, 4, 256, 128.5), (2048, 16, 2048, 1024.5)]
        for m, b, kv, att in shapes:
            one = steps.step_total_one(m, b, kv, att)
            assert type(one) is float
            batched = steps.step_totals([m], [b], [kv],
                                        None if att is None else [att])[0]
            assert one == batched
            if att is None and m == b:
                assert one == steps.decode_step_time(b, kv)
            else:
                breakdown = steps.step_breakdown(
                    num_tokens=m, batch=b, kv_len=kv, phase="prefill",
                    attended_len=att if att is not None else kv).total
                assert one == breakdown

    def test_step_total_one_validates(self):
        steps = StepModel(get_model("OLMoE-1B-7B"), H100_SXM)
        with pytest.raises(ValueError):
            steps.step_total_one(0, 1, 64)
        with pytest.raises(ValueError):
            steps.step_total_one(1, 0, 64)


class TestFallbacks:
    def test_instrumented_model_uses_scalar_path(self):
        from repro.obs.instrument import Instrumentation

        obs = Instrumentation.on()
        pm = InferencePerfModel(get_model("OLMoE-1B-7B"), H100_SXM,
                                instrumentation=obs)
        shapes = [(1, 64, 8), (2, 64, 8)]
        metrics_rows(pm, shapes)
        evals = [m for m in obs.metrics.snapshot()["metrics"]
                 if m["name"] == "perfmodel_evaluations_total"]
        assert evals  # the per-point path kept the eval counters alive

    def test_vectorized_returns_python_floats(self):
        # np.float64 leaking into tables would corrupt repr()-based digests
        pm = perf_model(get_model("OLMoE-1B-7B"))
        for row in metrics_rows(pm, SHAPES):
            for key, value in row.items():
                if key != "fits":
                    assert type(value) is float, (key, type(value))
