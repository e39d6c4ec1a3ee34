"""Request and sequence abstractions for the serving engine.

The simulator tracks token *counts* and timing rather than token ids (the
functional engine in :mod:`repro.tensor`/:mod:`repro.moe` covers numerics);
a :class:`Request` carries everything the scheduler and metrics need:
prompt length, generation budget, arrival time, and the per-phase
timestamps from which TTFT/ITL/E2E are derived.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

__all__ = ["SamplingParams", "RequestState", "Request"]


def _check_count(name: str, value: object, minimum: int) -> None:
    """Reject a token/image count that is not an integer (``bool``,
    floats — integral-valued or NaN — and strings included; NumPy
    integers pass) or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "positive" if minimum == 1 else "non-negative"
        raise ValueError(f"{name} must be {bound}, got {value}")


@dataclass(frozen=True)
class SamplingParams:
    """Generation controls (the subset that affects serving behaviour)."""

    max_tokens: int
    ignore_eos: bool = True
    """Benchmark mode: always generate exactly ``max_tokens``."""
    eos_probability: float = 0.0
    """Per-step chance of early stop when ``ignore_eos`` is False."""

    def __post_init__(self) -> None:
        _check_count("max_tokens", self.max_tokens, 1)
        if not (0.0 <= self.eos_probability <= 1.0):
            raise ValueError("eos_probability must be in [0, 1]")


class RequestState(enum.Enum):
    WAITING = "waiting"
    RUNNING = "running"
    PREEMPTED = "preempted"
    FINISHED = "finished"
    FAILED = "failed"
    """Terminal failure: the request was abandoned with a recorded
    ``failure_reason`` (retry budget exhausted, unrecoverable fault, or a
    shape that can never be scheduled)."""


@dataclass
class Request:
    """One inference request moving through the engine.

    ``kv_tokens`` is the number of KV-cache slots currently filled.  A
    request needs prefill while ``kv_tokens < prompt_tokens +
    generated_tokens`` (after a recompute-preemption the generated prefix
    must be re-prefilled too, matching vLLM's recompute policy).
    """

    request_id: int
    prompt_tokens: int
    sampling: SamplingParams
    arrival_time: float = 0.0
    num_images: int = 0
    prompt_block_hashes: tuple[int, ...] = ()
    """Content hashes of the prompt's leading full KV blocks (each hash
    must incorporate its preceding context); enables prefix caching."""

    state: RequestState = RequestState.WAITING
    generated_tokens: int = 0
    kv_tokens: int = 0
    first_scheduled_time: float | None = None
    first_token_time: float | None = None
    finish_time: float | None = None
    num_preemptions: int = 0
    fault_retries: int = 0
    """Times this request was killed by a fault and resubmitted."""
    retry_time: float | None = None
    """Simulated time at which the current retry re-enters admission
    (None before the first fault); ``arrival_time`` keeps the original
    arrival so E2E latency includes the outage."""
    failure_reason: str | None = None

    def __post_init__(self) -> None:
        _check_count("prompt_tokens", self.prompt_tokens, 1)
        _check_count("num_images", self.num_images, 0)
        if not math.isfinite(self.arrival_time) or self.arrival_time < 0:
            raise ValueError(
                f"arrival_time must be finite and non-negative, got "
                f"{self.arrival_time}")

    @property
    def context_length(self) -> int:
        """Tokens currently occupying KV slots."""
        return self.kv_tokens

    @property
    def prefill_target(self) -> int:
        """KV slots that must be filled before decoding can (re)start.

        Fresh requests prefill the prompt.  After a recompute preemption
        the generated prefix is re-prefilled too — except the newest
        sampled token, whose KV slot the next decode step appends (the
        steady-state invariant is ``kv_tokens == prompt + generated - 1``;
        prefilling that slot as well would leave the sequence one slot
        ahead of token accounting for the rest of its life).
        """
        if self.generated_tokens == 0:
            return self.prompt_tokens
        return self.prompt_tokens + self.generated_tokens - 1

    @property
    def remaining_prefill(self) -> int:
        return max(0, self.prefill_target - self.kv_tokens)

    @property
    def is_prefill_pending(self) -> bool:
        return self.remaining_prefill > 0

    @property
    def total_length_budget(self) -> int:
        """Maximum KV footprint this request can reach."""
        return self.prompt_tokens + self.sampling.max_tokens

    @property
    def is_finished(self) -> bool:
        return self.state is RequestState.FINISHED

    @property
    def is_failed(self) -> bool:
        return self.state is RequestState.FAILED

    @property
    def is_terminal(self) -> bool:
        """Finished successfully or failed with a recorded reason."""
        return self.state in (RequestState.FINISHED, RequestState.FAILED)

    @property
    def effective_arrival_time(self) -> float:
        """When the request (re-)enters admission: the retry time after a
        fault kill, the original arrival otherwise."""
        return self.arrival_time if self.retry_time is None else self.retry_time

    # -- metric views ---------------------------------------------------- #

    @property
    def ttft(self) -> float | None:
        """Time to first token, or None if not yet produced."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def e2e_latency(self) -> float | None:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def reset_for_recompute(self) -> None:
        """Preemption by recomputation: drop KV state; the prompt and the
        already-generated prefix are re-prefilled on resume."""
        self.kv_tokens = 0
        self.state = RequestState.PREEMPTED
        self.num_preemptions += 1

    def reset_for_retry(self, retry_time: float) -> None:
        """Fault kill + retry: generation restarts from scratch at
        ``retry_time`` (client-side resubmission semantics).  TTFT/E2E stay
        anchored to the original ``arrival_time``, so latency metrics price
        the outage."""
        self.kv_tokens = 0
        self.generated_tokens = 0
        self.first_scheduled_time = None
        self.first_token_time = None
        self.state = RequestState.WAITING
        self.fault_retries += 1
        self.retry_time = retry_time

    def fail(self, reason: str) -> None:
        """Terminal failure with a recorded reason (never silent)."""
        if not reason:
            raise ValueError("a failure needs a non-empty reason")
        self.kv_tokens = 0
        self.state = RequestState.FAILED
        self.failure_reason = reason
