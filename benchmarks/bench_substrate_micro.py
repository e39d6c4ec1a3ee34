"""Micro-benchmarks of the substrates themselves.

Unlike the ``bench_fig*`` files (which time whole experiment
regenerations), these exercise the hot paths of the library under real
multi-round pytest-benchmark timing: the NumPy MoE layer (fused vs
unfused), the router, the serving engine's submission path and iteration
loop, one step pricing (a point and a 64-point axis), and the analytical
model evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.gpus import H100_SXM
from repro.models.config import MoEConfig
from repro.models.zoo import OLMOE_1B_7B, get_model
from repro.moe.layer import MoELayer
from repro.moe.model import MoETransformer
from repro.moe.router import TopKRouter
from repro.perfmodel.inference import InferencePerfModel
from repro.perfmodel.phases import StepModel
from repro.serving.engine import ServingEngine
from repro.serving.request import Request, SamplingParams
from repro.workloads.generator import LengthDistribution
from repro.workloads.traces import poisson_arrivals

_RNG = np.random.default_rng(0)
_HIDDEN = 256
_LAYER = MoELayer(_HIDDEN, MoEConfig(num_experts=16, top_k=2, expert_ffn_dim=512),
                  rng=np.random.default_rng(1))
_TOKENS = _RNG.normal(0, 1, (256, _HIDDEN)).astype(np.float32)
_ROUTER = TopKRouter(_HIDDEN, 64, 8, rng=np.random.default_rng(2))


def test_router_route(benchmark):
    result = benchmark(_ROUTER.route, _TOKENS)
    assert result.num_tokens == 256


def test_moe_layer_fused(benchmark):
    out = benchmark(_LAYER, _TOKENS, "fused")
    assert out.hidden.shape == _TOKENS.shape


def test_moe_layer_unfused(benchmark):
    out = benchmark(_LAYER, _TOKENS, "unfused")
    assert out.hidden.shape == _TOKENS.shape


def test_transformer_decode_step(benchmark):
    cfg = get_model("OLMoE-1B-7B").scaled(1 / 32)
    model = MoETransformer(cfg, seed=0, max_positions=128)
    caches = model.new_caches(4, 128)
    prompt = _RNG.integers(0, cfg.vocab_size, size=(4, 16))
    model.forward(prompt, caches)
    step = _RNG.integers(0, cfg.vocab_size, size=(4, 1))

    def decode():
        # rewind the cache so each round does identical work
        length = caches[0].length
        logits = model.forward(step, caches)
        for c in caches:
            c.length = length
        return logits

    logits = benchmark(decode)
    assert logits.shape == (4, 1, cfg.vocab_size)


_STEPS = StepModel(OLMOE_1B_7B, H100_SXM)


def test_step_pricing_point(benchmark):
    """One decode step priced through the point entry (the engine fast
    path's miss probe; no step cache on this path)."""
    total = benchmark(_STEPS.step_total_one, 16, 16, 1024)
    assert total > 0


def test_step_pricing_axis(benchmark):
    """A 64-point decode axis priced in one array pass (a decode window)."""
    batches = [16] * 64
    contexts = list(range(1024, 1088))
    totals = benchmark(_STEPS.decode_totals, batches, contexts)
    assert len(totals) == 64 and totals[0] < totals[-1]


def test_perfmodel_generate(benchmark):
    pm = InferencePerfModel(OLMOE_1B_7B, H100_SXM)
    metrics = benchmark(pm.generate, 16, 512, 256)
    assert metrics.throughput_tok_s > 0


def test_serving_engine_run(benchmark):
    pm = InferencePerfModel(OLMOE_1B_7B, H100_SXM)

    def serve():
        engine = ServingEngine(pm, kv_pool_tokens=65536)
        for i in range(16):
            engine.submit(Request(request_id=i, prompt_tokens=128,
                                  sampling=SamplingParams(max_tokens=32)))
        return engine.run()

    result = benchmark(serve)
    assert all(r.is_finished for r in result.requests)


def test_engine_submit(benchmark):
    """Submission alone: 4,000 Poisson arrivals into a fresh engine (the
    arrival queue is kept sorted by binary insertion)."""
    pm = InferencePerfModel(OLMOE_1B_7B, H100_SXM)
    rng = np.random.default_rng(3)
    requests = LengthDistribution(mean_input=256, mean_output=64).requests(
        4000, rng, poisson_arrivals(100.0, 4000, rng))

    def submit_all():
        engine = ServingEngine(pm)
        for req in requests:
            engine.submit(req)
        return engine

    engine = benchmark(submit_all)
    assert len(engine._pending) == 4000
