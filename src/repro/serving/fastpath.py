"""Batched decode advance for the serving engine (fast path, phase 2).

The engine's inner loop is one Python iteration per decode step: schedule
(grow every running sequence by one KV slot), price the step through the
perf model, advance the clock, record one event.  Between scheduling
boundaries — an arrival being admitted, a sequence finishing, the KV pool
running dry — nothing about the *decision structure* of those iterations
changes: the batch is the same ``running`` list every time, no request
finishes, no preemption fires.  :class:`EngineFastPath` detects such a
run and advances the whole window at once: the per-iteration step costs
are priced in one :meth:`~repro.perfmodel.phases.StepModel.decode_totals`
array pass, KV block-crossing iterations are precomputed arithmetically,
and request/block-table counters are committed with one addition per
sequence instead of one per token.

The iterations a window cannot take — admission prefills and the
completing decode step at each request's end — still run through the
scalar ``step()``, but their durations are priced through
:meth:`EngineFastPath.step_total`: a decode memo keyed on
``(batch, context)`` (pre-filled by the window plans, which price one
step past their own end exactly so the completing iteration hits), with
the step model's one-point entry
(:meth:`~repro.perfmodel.phases.StepModel.step_total_one`) as the miss
path, which skips building a breakdown.

**Bit-identity contract.**  The fingerprint gate digests ``repr()`` of
every float and the chaos/fleet digests hash the event stream via
``float.hex``, so a window must give the same bits as the scalar
``step()`` loop it replaces.  Where the two make the same decision they
call the same code: :func:`decode_context` prices each iteration's
context, :func:`arrival_due` decides when an arrival ends a window, the
KV pool reports its own availability and utilization, and observation
goes through ``step()``'s ``_observe_*`` helpers.  What only the window
does keeps these properties:

* the clock stays *sequential* accumulation (``clock = clock + d`` per
  iteration — ``n`` additions are not a multiplication in IEEE-754);
* durations come from the step model's single evaluation, which gives
  the same bits whether it is handed one point or an array of points;
* KV blocks are popped through ``PagedKVCache.append_block`` in the
  scalar order — iteration-major, then running order — so prefix-cache
  eviction (which pops LRU reusable blocks) sees the identical request
  stream.

The scalar ``step()`` under ``REPRO_NO_VECTORIZE_ENGINE`` is the
reference: ``tests/test_engine_fastpath.py``,
``tests/test_observed_golden.py`` and the scalar-mode ``repro bench
--check`` compare both modes digest for digest.

**Fallback rules.**  A window is only entered when the scalar iteration
would be "quiet"; anything else returns 0 and the caller runs the plain
``step()``.  The window refuses to start (or breaks) when:

* ``REPRO_NO_VECTORIZE_ENGINE`` is set (checked once at engine
  construction; pricing still goes through :meth:`EngineFastPath.step_total`);
* a fault schedule is armed (faults advance on the scalar clock and may
  perturb durations);
* the waiting queue is non-empty (the next iteration may prefill) or a
  pending arrival is due at or before the current clock;
* any running request samples EOS (``eos_probability > 0`` without
  ``ignore_eos``) — those draw engine RNG once per token, and RNG order
  is part of the replay contract;
* the next iteration would finish a request (windows stop one iteration
  short of the earliest ``max_tokens`` completion) or needs more KV
  blocks than are available (the preemption decision stays scalar).

**Observation** does not change which iterations a window takes.  Each
window iteration commits ``engine.clock``, ``obs.now`` and its log event
as it runs and is observed through the helpers ``step()`` uses, so alert
rules and flight-recorder bundles see the scalar path's clock, KV
utilization, log prefix and trace tail.  Request token counters and
block-table fills commit once, at the window's end.

A window bounded by a fleet horizon resumes on the next
``Replica.advance_to`` with every remaining duration already in the
decode memo — this is what amortizes replica stepping across fleet
events.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.perfmodel import stepcache
from repro.serving.events import Event, EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.engine import ServingEngine

__all__ = ["EngineFastPath", "arrival_due", "decode_context"]

_MAX_WINDOW = 4096
"""Iterations priced per array pass (bounds plan memory; windows longer
than this simply split, resuming against the warmed decode memo)."""


def decode_context(kv_sum: int, batch: int) -> int:
    """The context a decode iteration over ``batch`` sequences holding
    ``kv_sum`` KV tokens in all is priced at: their truncated mean, at
    least 1.  ``ServingEngine._iteration_cost`` and the window's plan
    both price through it."""
    return max(1, int(kv_sum / batch))


def arrival_due(arrival: float, clock: float) -> bool:
    """Whether a request entering admission at ``arrival`` is admitted at
    ``clock``; the 1e-12 s tolerance absorbs the clock's accumulation
    error.  ``ServingEngine._admit_arrivals`` admits by it and a window
    ends by it."""
    return arrival <= clock + 1e-12


class EngineFastPath:
    """Batched decode-window advance for one :class:`ServingEngine`."""

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.steps = steps = engine.perf.steps
        """The deployment's step model (point and array entries)."""
        self._cache = stepcache.GLOBAL
        shared = self._cache.enabled
        self._totals = self._cache.totals if shared else {}
        """Prefill-shape → step-total-seconds memo, filled one point at a
        time by :meth:`step_total` misses and keyed
        ``(setup_id, num_tokens, batch, kv_len, attended_len)``.  Shared
        through the global step cache so fleet replicas (one perf model,
        many engines) and sweep points (equal setups intern to one id)
        reuse each other's evaluations.  Values are bit-identical to
        ``step_breakdown(...).total``, so sharing affects wallclock only.  Private
        per-engine when the step cache is disabled."""
        self._decode_plans = self._cache.decode_plans if shared else {}
        """``(setup_id, batch) -> {context: seconds}`` decode memo (see
        ``StepCache.decode_plans``), filled array-at-a-time by the window
        plans and one point at a time by :meth:`step_total` misses."""
        self._plan_by_batch: dict[int, dict[int, float]] = {}
        """This engine's view of :attr:`_decode_plans` keyed by batch
        alone (the setup id is fixed per engine), so hot probes skip the
        outer tuple key."""
        self._sid = steps.setup_id
        self.windows = os.environ.get("REPRO_NO_VECTORIZE_ENGINE",
                                      "") in ("", "0")
        """Whether :meth:`decode_window` may advance windows: off under the
        ``REPRO_NO_VECTORIZE_ENGINE=1`` escape hatch, read once here."""

    # ------------------------------------------------------------------ #

    def _plan(self, batch: int) -> dict[int, float]:
        """The shared ``{context: seconds}`` decode memo for ``batch``."""
        plan = self._plan_by_batch.get(batch)
        if plan is None:
            plans = self._decode_plans
            if len(plans) >= self._cache.max_entries:
                plans.clear()
                self._plan_by_batch.clear()
            plan = plans.setdefault((self._sid, batch), {})
            self._plan_by_batch[batch] = plan
        return plan

    def step_total(self, num_tokens: int, batch: int, kv_len: float,
                   phase: str, attended_len: float | None = None) -> float:
        """One iteration's total seconds — the values
        ``step_breakdown(...).total`` / ``decode_step_time`` produce,
        without building a breakdown.  Every shape memoizes in the shared
        totals tables (windows pre-fill decode entries, including one
        step past their own end for the completing iteration)."""
        if phase == "decode":
            plan = self._plan(batch)
            total = plan.get(kv_len)
            if total is None:
                total = self.steps.step_total_one(batch, batch, kv_len)
                plan[kv_len] = total
            return total
        key = (self._sid, num_tokens, batch, kv_len, attended_len)
        memo = self._totals
        total = memo.get(key)
        if total is None:
            total = self.steps.step_total_one(
                num_tokens, batch, kv_len, attended_len)
            if len(memo) >= self._cache.max_entries:
                memo.clear()  # the step cache's wholesale eviction
            memo[key] = total
        return total

    def _window_durations(self, batch: int, kv_sum: int,
                          limit: int) -> tuple[list[int], list[float]]:
        """Per-iteration decode contexts and durations for a window of
        ``limit`` steps starting from total context ``kv_sum`` over
        ``batch`` sequences.

        Iteration ``j`` (0-based) prices at
        ``decode_context(kv_sum + j * batch, batch)``, the context
        ``_iteration_cost`` computes from the pre-iteration ``kv_tokens``.
        One extra point past the window end is priced into the memo: that
        is the completing iteration the scalar ``step()`` takes next, so
        its :meth:`step_total` lookup hits.  Windows resumed after a
        fleet-horizon break find every remaining context memoized."""
        plan = self._plan(batch)
        contexts = [decode_context(kv_sum + j * batch, batch)
                    for j in range(limit + 1)]
        missing = sorted({c for c in contexts if c not in plan})
        if missing:
            totals = self.steps.decode_totals([batch] * len(missing), missing)
            for c, t in zip(missing, totals):
                plan[c] = t
        return contexts, [plan[contexts[j]] for j in range(limit)]

    def decode_window(self, horizon: float) -> int:
        """Advance as many pure decode iterations as possible, bounded by
        ``horizon`` (exclusive on entry: an iteration starts only while
        ``clock < horizon``, matching ``Replica.advance_to``'s may-
        overshoot-by-one contract).  Returns the number of iterations
        advanced; 0 means the scalar ``step()`` must take the next one.
        State is untouched whenever 0 is returned."""
        engine = self.engine
        if not self.windows:
            return 0
        if engine.faults is not None and engine.faults.active:
            return 0
        scheduler = engine.scheduler
        running = scheduler.running
        if not running or scheduler.waiting:
            return 0
        pending = engine._pending
        next_arrival = pending[0].effective_arrival_time if pending else None
        clock = engine.clock
        if next_arrival is not None and arrival_due(next_arrival, clock):
            return 0
        if clock >= horizon:
            return 0

        # window length: one short of the earliest max_tokens finish (the
        # completing iteration mutates the running set, so step() owns it)
        limit = _MAX_WINDOW
        kv_sum = 0
        for req in running:
            sampling = req.sampling
            if not sampling.ignore_eos and sampling.eos_probability > 0:
                return 0  # per-token EOS draws: the scalar path owns the RNG
            headroom = sampling.max_tokens - req.generated_tokens - 1
            if headroom < limit:
                limit = headroom
            kv_sum += req.kv_tokens
        if limit < 1:
            return 0

        # KV block-crossing schedule: sequence i first needs a block at
        # the iteration its free slots run out, then every block_size
        # steps.  Tuple sort yields the scalar pop order (iteration-major,
        # then running order within one step).
        kv = engine.kv
        batch = len(running)
        block_size = kv.block_size
        kv_tables = kv._tables
        tables = [kv_tables[r.request_id] for r in running]
        crossings: list[tuple[int, int]] = []
        add_crossing = crossings.append
        for i, table in enumerate(tables):
            j = len(table.blocks) * block_size - table.num_tokens + 1
            while j <= limit:
                add_crossing((j, i))
                j += block_size
        crossings.sort()
        total_pops = len(crossings)

        contexts, durations = self._window_durations(batch, kv_sum, limit)
        request_ids = tuple(r.request_id for r in running)
        record = engine.log.record
        decode = EventType.DECODE
        obs = engine.obs
        pop_at = 0
        done = 0
        while done < limit:
            if clock >= horizon:
                break
            if next_arrival is not None and arrival_due(next_arrival, clock):
                break
            pops = 0
            while (pop_at + pops < total_pops
                   and crossings[pop_at + pops][0] == done + 1):
                pops += 1
            if pops:
                if pops > kv.available_blocks:
                    break  # pool dry: the preemption decision stays scalar
                for k in range(pops):
                    kv.append_block(tables[crossings[pop_at + k][1]])
            if obs is not None:
                engine._observe_step_begin(obs)
                kv.observe_appends(request_ids, {
                    i for _, i in crossings[pop_at:pop_at + pops]})
                engine._observe_schedule(obs, "decode", batch, batch, 0)
            pop_at += pops
            duration_s = durations[done]
            t_start = clock
            clock = clock + duration_s
            engine.clock = clock
            record(Event(
                clock, decode, request_ids,
                num_tokens=batch, duration_s=duration_s,
                kv_utilization=kv.utilization,
            ))
            if obs is not None:
                shape = (float(batch), float(batch), float(contexts[done]),
                         None)
                components = engine._observe_advance(
                    obs, "decode", running, batch, t_start, duration_s,
                    None, shape, 0.0)
                engine._observe_iteration(obs, "decode", batch, duration_s,
                                          components, shape)
            done += 1

        if not done:
            return 0
        for req in running:
            req.generated_tokens += done
            req.kv_tokens += done
        for table in tables:
            table.num_tokens += done
        return done
