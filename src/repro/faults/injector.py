"""The fault injector: applies a schedule's events to a live engine.

The :class:`FaultInjector` sits between a :class:`~repro.faults.schedule.
FaultSchedule` and a :class:`~repro.serving.engine.ServingEngine`.  Once
per engine iteration (``advance_to``) it applies every fault whose time
has come and heals every transient fault whose duration has elapsed,
updating a :class:`ClusterHealth` model:

* **DEVICE_LOSS** — the device's share of the KV pool is withheld, its
  in-flight requests are killed and handed to the recovery policy, and
  all compute is squeezed onto the survivors;
* **EXPERT_SHARD_LOSS** — the EP rank's in-flight requests are killed;
  subsequent traffic reroutes to surviving replicas (priced through the
  surviving-placement imbalance) or, with no replica coverage, the router
  degrades to a reduced top-k / the loss becomes unrecoverable;
* **LINK_DEGRADE** — the interconnect share of every iteration rides a
  slower fabric (NVLink→PCIe-class slowdown);
* **KV_PRESSURE** — a fraction of the KV block pool is reserved until the
  spike heals.

Slowdowns are priced through the perf model's per-component breakdown
(:meth:`adjust`), so an engine with no armed schedule is bit-identical to
one with no injector at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.faults.policies import DegradePolicy, RecoveryPolicy, RetryPolicy
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.parallel.expert_parallel import ReplicatedExpertPlacement
from repro.parallel.placement_opt import surviving_imbalance
from repro.serving.events import Event, EventType
from repro.serving.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Instrumentation
    from repro.serving.engine import ServingEngine

__all__ = ["FaultDomain", "ClusterHealth", "FaultInjector"]

_COMPUTE_COMPONENTS = frozenset({
    "attention", "router", "expert_ffn", "dense_ffn", "embedding",
    "lm_head", "vision_encode",
})
"""Breakdown components that run on the (surviving) devices and therefore
slow down when devices are lost."""


@dataclass(frozen=True)
class FaultDomain:
    """The deployment shape faults land on.

    ``target`` fields of :class:`FaultEvent` are interpreted modulo
    ``num_devices`` (device faults) / ``ep`` (shard faults).  In-flight
    requests are pinned to devices by ``request_id % num_devices`` (and to
    EP ranks by ``request_id % ep``) — a deterministic stand-in for the
    data-parallel router's request placement.
    """

    num_devices: int = 1
    ep: int = 1
    top_k: int = 0
    """Routed experts per token (0: MoE routing not modelled — shard loss
    without replicas is then always unrecoverable)."""
    placement: ReplicatedExpertPlacement | None = None
    """Expert replication across the ``ep`` ranks; ``None`` means one copy
    per expert (any shard loss loses coverage)."""

    def __post_init__(self) -> None:
        if self.num_devices < 1 or self.ep < 1:
            raise ValueError("num_devices and ep must be >= 1")
        if self.top_k < 0:
            raise ValueError("top_k must be non-negative")
        if self.placement is not None and self.placement.num_devices != self.ep:
            raise ValueError(
                f"placement spans {self.placement.num_devices} devices but "
                f"the domain has ep={self.ep}"
            )


@dataclass
class ClusterHealth:
    """Live health of the simulated deployment (mutated by the injector)."""

    num_devices: int
    lost_devices: set[int] = field(default_factory=set)
    lost_ep_ranks: set[int] = field(default_factory=set)
    link_slowdown: float = 1.0
    kv_pressure_fraction: float = 0.0
    effective_top_k: int = 0
    unrecoverable: list[str] = field(default_factory=list)
    """Reasons the deployment can no longer serve at full fidelity
    (expert coverage lost with no degrade headroom, all devices lost)."""

    @property
    def num_surviving(self) -> int:
        return self.num_devices - len(self.lost_devices)

    @property
    def is_degraded(self) -> bool:
        return bool(self.lost_devices or self.lost_ep_ranks
                    or self.link_slowdown > 1.0
                    or self.kv_pressure_fraction > 0.0)

    def summary(self) -> dict:
        return {
            "num_devices": self.num_devices,
            "num_surviving": self.num_surviving,
            "lost_devices": sorted(self.lost_devices),
            "lost_ep_ranks": sorted(self.lost_ep_ranks),
            "link_slowdown": self.link_slowdown,
            "kv_pressure_fraction": self.kv_pressure_fraction,
            "effective_top_k": self.effective_top_k,
            "unrecoverable": list(self.unrecoverable),
        }


class FaultInjector:
    """Interprets a :class:`FaultSchedule` against a running engine."""

    def __init__(
        self,
        schedule: FaultSchedule,
        domain: FaultDomain | None = None,
        policy: RecoveryPolicy | None = None,
        degrade: DegradePolicy | None = None,
        instrumentation: "Instrumentation | None" = None,
    ) -> None:
        self.schedule = schedule
        self.domain = domain or FaultDomain()
        self.policy = policy or RetryPolicy()
        self.degrade = degrade
        self.obs = instrumentation
        self.health = ClusterHealth(
            num_devices=self.domain.num_devices,
            effective_top_k=self.domain.top_k,
        )
        self._cursor = 0.0
        self._pending_heals: list[FaultEvent] = []
        self._kv_reservations: list[tuple[FaultEvent, int]] = []
        self._device_loss_count: dict[int, int] = {}
        self._rank_loss_count: dict[int, int] = {}
        self._link_events: list[FaultEvent] = []
        # per-expert loads for the rerouting-imbalance price; uniform (the
        # conservative default) unless the placement says otherwise
        self._loads = (np.ones(self.domain.placement.num_experts)
                       if self.domain.placement is not None else None)
        self._imbalance = 1.0
        self.counts: dict[str, int] = {
            "faults_applied": 0, "recoveries": 0, "requests_killed": 0,
            "retries": 0, "failures": 0, "degrades": 0,
        }

    # ------------------------------------------------------------------ #
    # schedule interpretation
    # ------------------------------------------------------------------ #

    @property
    def active(self) -> bool:
        """Whether any fault can ever fire (unarmed ⇒ the engine's default
        path is untouched, bit for bit)."""
        return self.schedule.is_armed

    def next_event_time(self, after: float) -> float | None:
        """Next fault or heal strictly after ``after`` (for idle-advance
        when the engine is starved by a transient fault)."""
        return self.schedule.next_event_time(after)

    def advance_to(self, now: float, engine: "ServingEngine") -> None:
        """Apply all faults due and heals elapsed in ``(cursor, now]``,
        in deterministic time order (heals before faults at a tie, so a
        fault landing exactly when another heals sees the healed state).

        Events are processed one at a time so a transient fault whose
        whole lifetime fits inside a single polling window still heals —
        and heals in the right order relative to later faults in the same
        window."""
        faults = list(self.schedule.events_between(self._cursor, now))
        i = 0
        while True:
            candidates: list[tuple[float, int, FaultEvent]] = []
            due_heals = [e for e in self._pending_heals if e.heal_time <= now]
            if due_heals:
                heal = min(due_heals, key=lambda e: (e.heal_time,
                                                     e.kind.value, e.target))
                candidates.append((heal.heal_time, 0, heal))
            if i < len(faults):
                candidates.append((faults[i].time, 1, faults[i]))
            if not candidates:
                break
            _, is_fault, event = min(
                candidates,
                key=lambda item: (item[0], item[1], item[2].kind.value,
                                  item[2].target),
            )
            if is_fault:
                i += 1
                self._apply(event, now, engine)
            else:
                self._heal(event, now, engine)
        self._cursor = max(self._cursor, now)

    def _apply(self, event: FaultEvent, now: float, engine: "ServingEngine") -> None:
        self.counts["faults_applied"] += 1
        if not event.is_permanent:
            self._pending_heals.append(event)
        handlers = {
            FaultKind.DEVICE_LOSS: self._apply_device_loss,
            FaultKind.EXPERT_SHARD_LOSS: self._apply_shard_loss,
            FaultKind.LINK_DEGRADE: self._apply_link_degrade,
            FaultKind.KV_PRESSURE: self._apply_kv_pressure,
        }
        handler = handlers.get(event.kind)
        if handler is None:
            raise ValueError(
                f"{event.kind.value} is not an engine-scope fault — "
                "fleet-scope kinds (REPLICA_LOSS) belong in "
                "FleetConfig.replica_kills, not an engine injector")
        detail = handler(event, now, engine)
        engine.log.record(Event(now, EventType.FAULT,
                                detail=detail or event.describe()))
        obs = self.obs
        if obs is not None:
            obs.tracer.instant(f"fault.{event.kind.value}", now, cat="fault",
                               target=event.target, magnitude=event.magnitude)
            obs.metrics.counter(
                "faults_injected_total", "fault events applied to the engine",
                labels={"kind": event.kind.value},
            ).inc()

    def _heal(self, event: FaultEvent, now: float, engine: "ServingEngine") -> None:
        self._pending_heals.remove(event)
        self.counts["recoveries"] += 1
        if event.kind is FaultKind.DEVICE_LOSS:
            device = event.target % self.domain.num_devices
            self._device_loss_count[device] -= 1
            if self._device_loss_count[device] == 0:
                self.health.lost_devices.discard(device)
            self._release_reservation(event, engine)
        elif event.kind is FaultKind.EXPERT_SHARD_LOSS:
            rank = event.target % self.domain.ep
            self._rank_loss_count[rank] -= 1
            if self._rank_loss_count[rank] == 0:
                self.health.lost_ep_ranks.discard(rank)
            self._refresh_expert_state()
        elif event.kind is FaultKind.LINK_DEGRADE:
            self._link_events.remove(event)
            self._refresh_link_slowdown()
        elif event.kind is FaultKind.KV_PRESSURE:
            self._release_reservation(event, engine)
            self._refresh_kv_pressure(engine)
        engine.log.record(Event(now, EventType.RECOVERY,
                                detail=f"healed: {event.describe()}"))
        obs = self.obs
        if obs is not None:
            obs.tracer.instant(f"heal.{event.kind.value}", now, cat="fault",
                               target=event.target)
            obs.metrics.counter(
                "fault_recoveries_total", "transient faults healed",
                labels={"kind": event.kind.value},
            ).inc()

    # ------------------------------------------------------------------ #
    # per-kind handlers
    # ------------------------------------------------------------------ #

    def _apply_device_loss(self, event: FaultEvent, now: float,
                           engine: "ServingEngine") -> str:
        device = event.target % self.domain.num_devices
        self._device_loss_count[device] = \
            self._device_loss_count.get(device, 0) + 1
        fresh = device not in self.health.lost_devices
        self.health.lost_devices.add(device)
        if fresh:
            # the lost device's KV shard is gone: withhold its share
            share = engine.kv.num_blocks // self.domain.num_devices
            engine.kv.reserve(share)
            self._kv_reservations.append((event, share))
        if self.health.num_surviving == 0:
            reason = "all devices lost"
            if reason not in self.health.unrecoverable:
                self.health.unrecoverable.append(reason)
            self._kill(engine, now, lambda r: True,
                       f"device {device} lost ({reason})", force_fail=True)
            return f"device {device} lost — no survivors"
        self._kill(
            engine, now,
            lambda r: r.request_id % self.domain.num_devices == device,
            f"device {device} lost",
        )
        return (f"device {device} lost "
                f"({self.health.num_surviving}/{self.domain.num_devices} "
                "surviving)")

    def _apply_shard_loss(self, event: FaultEvent, now: float,
                          engine: "ServingEngine") -> str:
        rank = event.target % self.domain.ep
        self._rank_loss_count[rank] = self._rank_loss_count.get(rank, 0) + 1
        self.health.lost_ep_ranks.add(rank)
        self._kill(
            engine, now,
            lambda r: r.request_id % self.domain.ep == rank,
            f"expert shards on EP rank {rank} lost",
        )
        self._refresh_expert_state()
        return (f"EP rank {rank} shards lost "
                f"(effective top-k {self.health.effective_top_k}, "
                f"reroute imbalance {self._imbalance:.3f})")

    def _apply_link_degrade(self, event: FaultEvent, now: float,
                            engine: "ServingEngine") -> str:
        self._link_events.append(event)
        self._refresh_link_slowdown()
        return (f"interconnect degraded {self.health.link_slowdown:.2f}x "
                "(NVLink→PCIe-class fallback)")

    def _apply_kv_pressure(self, event: FaultEvent, now: float,
                           engine: "ServingEngine") -> str:
        blocks = int(event.magnitude * engine.kv.num_blocks)
        engine.kv.reserve(blocks)
        self._kv_reservations.append((event, blocks))
        self._refresh_kv_pressure(engine)
        return (f"KV pressure spike: {blocks} blocks withheld "
                f"({self.health.kv_pressure_fraction:.0%} of pool reserved)")

    def _release_reservation(self, event: FaultEvent,
                             engine: "ServingEngine") -> None:
        for i, (e, blocks) in enumerate(self._kv_reservations):
            if e is event:
                engine.kv.release_reserved(blocks)
                del self._kv_reservations[i]
                return

    def _refresh_link_slowdown(self) -> None:
        self.health.link_slowdown = max(
            [1.0] + [e.magnitude for e in self._link_events])

    def _refresh_kv_pressure(self, engine: "ServingEngine") -> None:
        pressure = sum(b for e, b in self._kv_reservations
                       if e.kind is FaultKind.KV_PRESSURE)
        self.health.kv_pressure_fraction = pressure / engine.kv.num_blocks

    def _refresh_expert_state(self) -> None:
        """Recompute rerouting imbalance / degraded top-k / coverage after
        the set of lost EP ranks changed."""
        domain, health = self.domain, self.health
        if not health.lost_ep_ranks:
            self._imbalance = 1.0
            health.effective_top_k = domain.top_k
            return
        if domain.placement is None:
            # single-copy experts: every shard loss loses coverage
            self._imbalance = 1.0
            self._degrade_or_give_up(
                f"EP ranks {sorted(health.lost_ep_ranks)} lost with no "
                "expert replication")
            return
        imbalance, lost = surviving_imbalance(
            domain.placement, self._loads, health.lost_ep_ranks)
        self._imbalance = imbalance if np.isfinite(imbalance) else 1.0
        if lost:
            self._degrade_or_give_up(
                f"experts {lost[:8]}{'...' if len(lost) > 8 else ''} have no "
                "surviving replica")
        else:
            health.effective_top_k = domain.top_k

    def _degrade_or_give_up(self, reason: str) -> None:
        health = self.health
        if self.degrade is not None and health.effective_top_k > 0:
            reduced = self.degrade.degraded_top_k(self.domain.top_k)
            if reduced < self.domain.top_k:
                if health.effective_top_k != reduced:
                    self.counts["degrades"] += 1
                health.effective_top_k = reduced
                return
        if reason not in health.unrecoverable:
            health.unrecoverable.append(reason)

    # ------------------------------------------------------------------ #
    # request kill / recovery
    # ------------------------------------------------------------------ #

    def _kill(self, engine: "ServingEngine", now: float,
              pred: Callable[[Request], bool], reason: str,
              force_fail: bool = False) -> None:
        """Evict every in-flight request matching ``pred`` and route it
        through the recovery policy (or straight to failure)."""
        victims = [r for r in engine.in_flight() if pred(r)]
        if not victims:
            return
        obs = self.obs
        retried: list[int] = []
        failed: list[int] = []
        for req in victims:
            engine.scheduler.evict(req)
            self.counts["requests_killed"] += 1
            if force_fail:
                self._fail(req, reason, failed)
                if obs is not None:
                    self._observe_fail(obs, req, now, reason)
                continue
            decision = self.policy.on_request_killed(req, now, reason)
            if decision.action == "retry":
                req.reset_for_retry(decision.retry_at)
                engine.requeue(req)
                retried.append(req.request_id)
                self.counts["retries"] += 1
                if obs is not None and obs.reqtrace is not None:
                    obs.reqtrace.on_fault_kill(req, now, reason,
                                               decision.retry_at)
            else:
                self._fail(req, decision.reason, failed)
                if obs is not None:
                    self._observe_fail(obs, req, now, decision.reason)
        if retried:
            engine.log.record(Event(now, EventType.RETRY, tuple(retried),
                                    detail=reason))
        if failed:
            engine.log.record(Event(now, EventType.FAIL, tuple(failed),
                                    detail=reason))
        obs = self.obs
        if obs is not None:
            if retried:
                obs.metrics.counter(
                    "fault_retries_total",
                    "requests killed by faults and resubmitted",
                ).inc(len(retried))
            if failed:
                obs.metrics.counter(
                    "fault_failures_total",
                    "requests terminally failed by faults",
                ).inc(len(failed))

    def _fail(self, req: Request, reason: str, failed: list[int]) -> None:
        req.fail(reason)
        failed.append(req.request_id)
        self.counts["failures"] += 1

    @staticmethod
    def _observe_fail(obs, req: Request, now: float, reason: str) -> None:
        """Report one terminally fault-failed request to the request
        tracer and the SLO tracker."""
        if obs.reqtrace is not None:
            obs.reqtrace.on_fail(req, now, reason=reason)
        if obs.slo is not None:
            obs.slo.on_request_terminal(req, now)

    # ------------------------------------------------------------------ #
    # duration pricing
    # ------------------------------------------------------------------ #

    @property
    def needs_components(self) -> bool:
        """Whether the current health requires the per-component breakdown
        to price this iteration (False on the healthy path, keeping the
        default engine byte-identical)."""
        health = self.health
        return (health.link_slowdown > 1.0
                or bool(health.lost_devices)
                or bool(health.lost_ep_ranks)
                or (self.domain.top_k > 0
                    and health.effective_top_k != self.domain.top_k))

    def adjust(self, duration_s: float,
               components: dict[str, float] | None) -> float:
        """Re-price one iteration under the current degraded health.

        ``components`` (the perf model's per-component decomposition of
        ``duration_s``) is scaled in place — interconnect rides the degraded
        link, compute components squeeze onto the surviving devices, and
        the expert FFN additionally pays the rerouting imbalance (or gets
        cheaper under reduced top-k).  Returns the adjusted duration; the
        unattributed remainder of ``duration_s`` is preserved as-is.
        """
        if components is None or not self.needs_components:
            return duration_s
        health = self.health
        compute_scale = 1.0
        if health.lost_devices and health.num_surviving > 0:
            compute_scale = self.domain.num_devices / health.num_surviving
        topk_scale = 1.0
        if self.domain.top_k > 0 and health.effective_top_k != self.domain.top_k:
            topk_scale = health.effective_top_k / self.domain.top_k
        extra = 0.0
        for name, value in components.items():
            mult = 1.0
            if name == "interconnect":
                mult *= health.link_slowdown
            elif name in _COMPUTE_COMPONENTS:
                mult *= compute_scale
            if name in ("expert_ffn", "router"):
                mult *= self._imbalance * topk_scale
            if name == "interconnect":
                mult *= topk_scale  # fewer routed experts, less dispatch
            if mult != 1.0:
                components[name] = value * mult
                extra += value * (mult - 1.0)
        return duration_s + extra

    # ------------------------------------------------------------------ #

    def summary(self) -> dict:
        """Run outcome for experiments / the ``chaos`` CLI."""
        return {**self.counts, "health": self.health.summary()}
