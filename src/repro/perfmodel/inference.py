"""End-to-end inference performance model.

:class:`InferencePerfModel` composes the phase model into the paper's
metrics for a full generation: TTFT (prefill), E2E latency (prefill + all
decode steps, with the KV cache growing each step), Eq. (1) ITL, Eq. (2)
throughput, and samples/s for VLMs.  It also surfaces OOM checks so sweep
harnesses can mark infeasible points the way the paper's figures do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.metrics import GenerationShape, InferenceMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Instrumentation
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig
from repro.optim.quantization import FP16_CONFIG, QuantConfig
from repro.parallel.plan import SINGLE_DEVICE, ParallelPlan
from repro.perfmodel.memory import MemoryModel
from repro.perfmodel.phases import StepModel

__all__ = ["OOMError", "InferencePerfModel", "decode_checkpoints",
           "decode_integral"]

# number of decode checkpoints used to integrate the growing-context decode
# time; decode cost is affine in context length, so few points suffice
_DECODE_SAMPLES = 8


def decode_checkpoints(ctx0: int, output_tokens: int) -> list[int]:
    """Context lengths at which the decode phase (output tokens 2..N) is
    sampled, for a prompt of ``ctx0`` LM tokens; empty when there is no
    decode phase.  :func:`decode_integral` turns the step times priced at
    these contexts into the phase's total time."""
    if output_tokens <= 1:
        return []
    n_steps = output_tokens - 1
    samples = max(2, min(_DECODE_SAMPLES, n_steps))
    return [ctx0 + 1 + int(round(i * (n_steps - 1) / max(1, samples - 1)))
            for i in range(samples)]


def decode_integral(step_times, output_tokens: int) -> float:
    """Total decode time from the step times priced at
    :func:`decode_checkpoints`: their mean scaled to the phase's
    ``output_tokens - 1`` steps (summed in checkpoint order)."""
    total = 0.0
    for t in step_times:
        total += t
    return total * (output_tokens - 1) / len(step_times)


class OOMError(RuntimeError):
    """Raised when a deployment does not fit in device memory."""

    def __init__(self, model_name: str, needed_gb: float, budget_gb: float) -> None:
        super().__init__(
            f"{model_name}: needs {needed_gb:.1f} GB/device but only "
            f"{budget_gb:.1f} GB available"
        )
        self.needed_gb = needed_gb
        self.budget_gb = budget_gb


@dataclass(frozen=True)
class _Setup:
    model: ModelConfig
    hardware: HardwareSpec
    plan: ParallelPlan
    quant: QuantConfig
    fused_moe: bool
    mla_native: bool = False


class InferencePerfModel:
    """Analytical model of one deployment's generation performance."""

    def __init__(
        self,
        model: ModelConfig,
        hardware: HardwareSpec,
        plan: ParallelPlan = SINGLE_DEVICE,
        quant: QuantConfig = FP16_CONFIG,
        fused_moe: bool = True,
        mla_native: bool = False,
        instrumentation: "Instrumentation | None" = None,
    ) -> None:
        self.setup = _Setup(model, hardware, plan, quant, fused_moe, mla_native)
        self.steps = StepModel(model, hardware, plan, quant, fused_moe,
                               mla_native=mla_native)
        self.memory = MemoryModel(model, hardware, plan, quant,
                                  mla_native=mla_native)
        self.obs = instrumentation

    def _count_eval(self, kind: str, n: int = 1) -> None:
        obs = self.obs
        if obs is not None:
            obs.metrics.counter(
                "perfmodel_evaluations_total",
                "analytical perf-model evaluations",
                labels={"kind": kind},
            ).inc(n)

    @property
    def model(self) -> ModelConfig:
        return self.setup.model

    # ------------------------------------------------------------------ #
    # feasibility
    # ------------------------------------------------------------------ #

    def check_fits(self, batch: int, max_seq: int) -> None:
        """Raise :class:`OOMError` if the shape cannot be served."""
        if not self.memory.fits(batch, max_seq):
            bd = self.memory.breakdown(batch, max_seq)
            raise OOMError(
                self.model.name, bd.total_gb(), self.memory.budget_bytes() / 1e9
            )

    def fits(self, batch: int, max_seq: int) -> bool:
        return self.memory.fits(batch, max_seq)

    # ------------------------------------------------------------------ #
    # phase times
    # ------------------------------------------------------------------ #

    def ttft(self, batch: int, input_tokens: int, images_per_sample: int = 0) -> float:
        """Time to first token: (vision encode +) prefill + sampling."""
        self._count_eval("ttft")
        t = self.steps.prefill_time(batch, self._context_tokens(input_tokens, images_per_sample))
        if images_per_sample > 0:
            t += self.steps.vision_encode_time(batch * images_per_sample)
        return t

    def decode_time(
        self, batch: int, input_tokens: int, output_tokens: int, images_per_sample: int = 0
    ) -> float:
        """Total time of the decode phase (output tokens 2..N).

        Integrates the per-step time over the growing context; decode cost
        is affine in context length so trapezoidal sampling is exact up to
        floating point.
        """
        if output_tokens <= 1:
            return 0.0
        self._count_eval("decode")
        ctx0 = self._context_tokens(input_tokens, images_per_sample)
        step_times = [self.steps.decode_step_time(batch, ctx)
                      for ctx in decode_checkpoints(ctx0, output_tokens)]
        return decode_integral(step_times, output_tokens)

    def generate(
        self,
        batch: int,
        input_tokens: int,
        output_tokens: int,
        images_per_sample: int = 0,
        check_memory: bool = True,
    ) -> InferenceMetrics:
        """Full-generation metrics for the given workload shape."""
        shape = GenerationShape(batch, input_tokens, output_tokens)
        obs = self.obs
        if obs is not None:
            with obs.tracer.wall_span("perfmodel.generate", track="perfmodel",
                                      cat="perfmodel", batch=batch,
                                      input_tokens=input_tokens,
                                      output_tokens=output_tokens):
                return self._generate(shape, batch, input_tokens, output_tokens,
                                      images_per_sample, check_memory)
        return self._generate(shape, batch, input_tokens, output_tokens,
                              images_per_sample, check_memory)

    def _generate(
        self,
        shape: GenerationShape,
        batch: int,
        input_tokens: int,
        output_tokens: int,
        images_per_sample: int,
        check_memory: bool,
    ) -> InferenceMetrics:
        if check_memory:
            self.check_fits(
                batch, self._context_tokens(input_tokens, images_per_sample) + output_tokens
            )
        ttft = self.ttft(batch, input_tokens, images_per_sample)
        decode = self.decode_time(batch, input_tokens, output_tokens, images_per_sample)
        return InferenceMetrics(shape=shape, ttft_s=ttft, e2e_latency_s=ttft + decode)

    # ------------------------------------------------------------------ #

    def _context_tokens(self, input_tokens: int, images_per_sample: int) -> int:
        """Prompt length in LM tokens, including projected image tokens."""
        extra = 0
        if images_per_sample > 0:
            if self.model.vision is None:
                raise ValueError(f"{self.model.name} has no vision tower")
            extra = images_per_sample * self.model.vision.image_tokens
        return input_tokens + extra
