"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation switches off one modelling mechanism and quantifies its
effect, so the repository documents *why* the simulator is built the way
it is.
"""

from __future__ import annotations

import numpy as np

from repro.core.experiment import ExperimentResult
from repro.core.registry import experiment
from repro.core.results import ResultTable
from repro.experiments.common import H100, perf_model
from repro.models.zoo import MIXTRAL_8X7B, get_model
from repro.moe.routing_math import expected_expert_coverage
from repro.parallel.expert_parallel import simulate_ep_imbalance
from repro.parallel.plan import ParallelPlan
from repro.perfmodel.inference import InferencePerfModel
from repro.perfmodel.phases import StepModel
from repro.serving.engine import serve_static_batch


@experiment("ablation_coverage")
def run_coverage() -> ExperimentResult:
    """Expert-coverage model vs naive 'all experts stream every step'."""
    result = ExperimentResult(
        exp_id="ablation_coverage",
        title="Ablation: expected-coverage weight streaming vs all-expert streaming",
        paper_claim=(
            "(design choice) Decode steps stream only the experts the batch "
            "touches; ignoring that overstates small-batch decode cost."
        ),
    )
    table = ResultTable(
        "decode step time",
        ("batch", "coverage_experts", "with_coverage_ms", "all_experts_ms",
         "overstatement_pct"),
    )
    model = get_model("DeepSeek-V2-Lite")
    moe = model.moe
    pm = perf_model(model)
    per_expert_bytes = 3 * model.hidden_size * moe.expert_ffn_dim * 2.0
    for batch in (1, 4, 16, 64, 256):
        cov = expected_expert_coverage(moe.num_experts, moe.top_k, batch)
        t_cov = pm.steps.decode_step_time(batch, 1024)
        # naive: charge all experts' weights every layer regardless of batch
        extra_bytes = (moe.num_experts - cov) * per_expert_bytes
        extra_s = model.num_moe_layers * extra_bytes / H100.mem_bytes_per_s
        t_all = t_cov + extra_s
        table.add(batch=batch, coverage_experts=cov,
                  with_coverage_ms=t_cov * 1e3, all_experts_ms=t_all * 1e3,
                  overstatement_pct=100 * (t_all / t_cov - 1))
    result.tables.append(table)
    worst = max(r["overstatement_pct"] for r in table)
    result.observe(
        f"Ignoring coverage overstates decode cost by up to {worst:.0f}% at "
        "batch 1 and converges to 0% at large batch — the mechanism behind "
        "Fig. 5's batch-dependent top-k sensitivity."
    )
    return result


class _FlatEfficiencyStepModel(StepModel):
    """StepModel variant with a flat (shape-independent) GEMM efficiency."""

    def _gemm_eff(self, m, n, k):
        return self.hardware.max_gemm_efficiency


@experiment("ablation_efficiency")
def run_efficiency() -> ExperimentResult:
    """Shape-aware GEMM efficiency curve vs flat peak efficiency."""
    result = ExperimentResult(
        exp_id="ablation_efficiency",
        title="Ablation: shape-aware GEMM efficiency vs flat efficiency",
        paper_claim=(
            "(design choice) Small-token GEMMs run far below tensor-core "
            "peak; a flat-efficiency model overstates small-batch compute "
            "throughput."
        ),
    )
    table = ResultTable(
        "prefill time",
        ("batch", "curve_ms", "flat_ms", "flat_understates_pct"),
    )
    plan = ParallelPlan(tp=4)
    curve = StepModel(MIXTRAL_8X7B, H100, plan=plan)
    flat = _FlatEfficiencyStepModel(MIXTRAL_8X7B, H100, plan=plan)
    for batch in (1, 4, 16, 64):
        t_curve = curve.prefill_time(batch, 512)
        t_flat = flat.prefill_time(batch, 512)
        table.add(batch=batch, curve_ms=t_curve * 1e3, flat_ms=t_flat * 1e3,
                  flat_understates_pct=100 * (1 - t_flat / t_curve))
    result.tables.append(table)
    result.observe(
        "The efficiency curve matters most for small batches "
        f"(understatement {table.rows[0]['flat_understates_pct']:.0f}% at "
        f"bs=1 vs {table.rows[-1]['flat_understates_pct']:.0f}% at bs=64)."
    )
    return result


@experiment("ablation_engine")
def run_engine_vs_closed_form() -> ExperimentResult:
    """Discrete-event serving engine vs closed-form phase model."""
    result = ExperimentResult(
        exp_id="ablation_engine",
        title="Ablation: discrete-event engine vs closed-form phase model",
        paper_claim=(
            "(design choice) With no queueing or KV pressure the two must "
            "agree; the engine adds fidelity only under contention."
        ),
    )
    table = ResultTable(
        "agreement",
        ("batch", "io_tokens", "closed_e2e_s", "engine_e2e_s", "delta_pct"),
    )
    model = get_model("OLMoE-1B-7B")
    pm = InferencePerfModel(model, H100)
    for batch, io in ((1, 256), (16, 512), (64, 512)):
        closed = pm.generate(batch, io, io)
        engine_metrics, _ = serve_static_batch(pm, batch, io, io)
        delta = 100 * (engine_metrics.e2e_latency_s / closed.e2e_latency_s - 1)
        table.add(batch=batch, io_tokens=io, closed_e2e_s=closed.e2e_latency_s,
                  engine_e2e_s=engine_metrics.e2e_latency_s, delta_pct=delta)
    result.tables.append(table)
    worst = max(abs(r["delta_pct"]) for r in table)
    result.observe(
        f"Engine and closed form agree within {worst:.1f}% on uncontended "
        "static batches."
    )
    return result


@experiment("ablation_ep_imbalance")
def run_ep_imbalance() -> ExperimentResult:
    """Analytic multinomial-max EP imbalance vs Monte-Carlo simulation."""
    result = ExperimentResult(
        exp_id="ablation_ep_imbalance",
        title="Ablation: analytic EP load-imbalance vs Monte-Carlo routing",
        paper_claim=(
            "(design choice) The EP stall factor uses a closed-form "
            "multinomial-max approximation; it must track simulated routing."
        ),
    )
    table = ResultTable(
        "imbalance factor",
        ("ep", "tokens", "simulated", "analytic", "abs_error"),
    )
    model = get_model("Mixtral-8x7B")
    rng = np.random.default_rng(3)
    for ep in (2, 4, 8):
        for tokens in (16, 64, 256):
            sim, analytic = simulate_ep_imbalance(
                model.moe, ep, tokens, num_trials=64, rng=rng
            )
            table.add(ep=ep, tokens=tokens, simulated=sim, analytic=analytic,
                      abs_error=abs(sim - analytic))
    result.tables.append(table)
    worst = max(r["abs_error"] for r in table)
    result.observe(
        f"Analytic approximation tracks Monte-Carlo within {worst:.2f} "
        "(absolute max/mean units) across EP degrees and token counts."
    )
    return result
