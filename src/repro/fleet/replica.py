"""One serving replica inside a fleet: an engine plus lifecycle state.

A :class:`Replica` wraps a :class:`~repro.serving.engine.ServingEngine`
with what the front door needs to reason about it: identity, liveness
(alive / draining / retired), load snapshots for routing and autoscaling,
and a bounded ``advance_to`` that steps the engine's own simulated clock
up to the fleet's global event time — replicas never idle-jump past the
fleet clock, so a request routed to an idle replica at time *t* is served
at *t*, not at the replica's next internal arrival.

Replica objects are immortal records: a replica killed by a
``REPLICA_LOSS`` fault stays dead (its event log is preserved for the
fleet digest and conservation audit); healing brings up a *replacement*
replica with a fresh id and empty caches, which is what a real
orchestrator does.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine
from repro.serving.events import Event, EventType
from repro.serving.request import Request
from repro.serving.scheduler import SchedulerConfig

__all__ = ["Replica"]


class Replica:
    """A fleet member: engine, liveness, and load accounting."""

    def __init__(
        self,
        replica_id: int,
        perf: InferencePerfModel,
        scheduler_config: SchedulerConfig,
        kv_pool_tokens: int,
        enable_prefix_caching: bool = False,
        now: float = 0.0,
    ) -> None:
        self.replica_id = replica_id
        self.engine = ServingEngine(
            perf,
            scheduler_config=scheduler_config,
            kv_pool_tokens=kv_pool_tokens,
            rng=np.random.default_rng(replica_id),
            enable_prefix_caching=enable_prefix_caching,
        )
        self.engine.clock = now
        self.started_at = now
        self.retired_at: float | None = None
        self.alive = True
        self.draining = False
        """Scale-down in progress: the router skips this replica, the
        engine drains its admitted work, then the replica retires."""
        self.assigned = 0
        """Requests the router has ever sent here (including reroutes)."""
        self.clock_violations: list[str] = []
        """Monotonicity breaches seen by ``advance_to`` (always empty on a
        healthy simulator; audited by the invariant suite)."""
        self._fin_idx = 0
        self._fail_idx = 0

    # ------------------------------------------------------------------ #
    # load snapshots (what routing / admission / autoscaling read)
    # ------------------------------------------------------------------ #

    @property
    def routable(self) -> bool:
        return self.alive and not self.draining

    @property
    def clock(self) -> float:
        return self.engine.clock

    @property
    def free_kv_blocks(self) -> int:
        """Allocatable KV blocks right now (the least-loaded-KV signal)."""
        return self.engine.kv.available_blocks

    @property
    def num_running(self) -> int:
        return self.engine.scheduler.num_running

    @property
    def backlog(self) -> int:
        """Requests waiting to run here: scheduler queue plus client-side
        pending submissions (the admission / autoscaling queue-depth
        signal)."""
        return len(self.engine.scheduler.waiting) + len(self.engine._pending)

    @property
    def load(self) -> int:
        """Total non-terminal requests owned by this replica."""
        return self.backlog + self.num_running

    @property
    def has_work(self) -> bool:
        return bool(self.engine.scheduler.has_unfinished
                    or self.engine._pending)

    def busy_s(self) -> float:
        """Cumulative simulated busy seconds (prefill + decode time)."""
        return self.engine.log.total_busy_time()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def advance_to(self, t: float) -> None:
        """Step the engine until its clock reaches ``t`` or it runs out of
        work actionable before ``t``.

        The engine may overshoot ``t`` by one iteration (iterations are
        atomic — exactly continuous batching's admission granularity) but
        never idle-jumps past it: a pending arrival later than ``t`` stays
        pending, so the replica looks idle-at-``t`` to the router rather
        than busy-at-some-future-time.
        """
        if not self.alive:
            return
        engine = self.engine
        while engine.clock < t:
            actionable = engine.scheduler.has_unfinished or (
                engine._pending
                and engine._pending[0].effective_arrival_time <= t)
            if not actionable:
                break
            before = engine.clock
            # batched event advance: a quiet decode run up to t goes
            # through the engine fast path in one pass (its duration plan
            # is cached across calls, so replica stepping amortizes over
            # consecutive fleet events); everything else falls back to
            # one scalar iteration
            if not engine.advance_window(t) and not engine.step():
                break
            if engine.clock < before - 1e-12:
                self.clock_violations.append(
                    f"replica {self.replica_id}: clock moved backwards "
                    f"{before} -> {engine.clock}")

    def drain(self, max_iterations: int = 1_000_000) -> None:
        """Run the engine to completion (end-of-trace flush)."""
        if not self.alive:
            return
        iterations = 0
        while self.has_work:
            before = self.engine.clock
            advanced = self.engine.advance_window()
            if not advanced and not self.engine.step():
                break
            if self.engine.clock < before - 1e-12:
                self.clock_violations.append(
                    f"replica {self.replica_id}: clock moved backwards "
                    f"{before} -> {self.engine.clock}")
            iterations += advanced if advanced else 1
            if iterations > max_iterations:
                raise RuntimeError(
                    f"replica {self.replica_id} exceeded {max_iterations} "
                    "drain iterations")

    def kill(self, now: float) -> list[Request]:
        """Replica loss: evict everything non-terminal and go dark.

        Returns the orphaned requests — admitted work first (reset for
        retry so their restart is priced), then client-side pending
        submissions (untouched; they never started) — in deterministic
        order for the fleet to re-route.  The engine keeps only the
        requests that reached a terminal state *here*, so its log and
        ``_all`` stay a self-consistent record for the digest.
        """
        if not self.alive:
            raise ValueError(f"replica {self.replica_id} is already dead")
        engine = self.engine
        admitted = engine.in_flight()
        pending = list(engine._pending)
        for req in admitted:
            engine.scheduler.evict(req)
        engine._pending.clear()
        orphans = admitted + pending
        engine.disown(orphans)
        engine.clock = max(engine.clock, now)
        engine.log.record(Event(
            engine.clock, EventType.FAULT,
            tuple(r.request_id for r in orphans),
            detail=f"replica {self.replica_id} lost "
                   f"({len(admitted)} in flight, {len(pending)} pending)",
        ))
        for req in admitted:
            req.reset_for_retry(retry_time=engine.clock)
        self.alive = False
        self.draining = False
        self.retired_at = engine.clock
        return orphans

    def retire_if_drained(self, now: float) -> bool:
        """Complete a scale-down once the drain has finished."""
        if self.alive and self.draining and not self.has_work:
            self.alive = False
            self.retired_at = max(now, self.engine.clock)
            return True
        return False

    def new_terminals(self) -> list[tuple[float, int]]:
        """``(terminal_time, request_id)`` pairs newly finished or failed
        since the last call — the fleet's feed into SLO scoring."""
        log = self.engine.log
        fresh: list[tuple[float, int]] = []
        for e in log.of_type_since(EventType.FINISH, self._fin_idx):
            fresh.extend((e.time, rid) for rid in e.request_ids)
        for e in log.of_type_since(EventType.FAIL, self._fail_idx):
            fresh.extend((e.time, rid) for rid in e.request_ids)
        self._fin_idx = log.count(EventType.FINISH)
        self._fail_idx = log.count(EventType.FAIL)
        return fresh

    def describe(self) -> str:
        state = ("draining" if self.draining else
                 "alive" if self.alive else "dead")
        return (f"replica {self.replica_id} [{state}] clock={self.clock:.3f}s "
                f"running={self.num_running} backlog={self.backlog} "
                f"free_kv={self.free_kv_blocks}")
