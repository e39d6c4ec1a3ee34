"""Property-based invariant suite for the fleet simulator.

Hypothesis drives :func:`repro.fleet.invariants.check_fleet_invariants`
across random traces × routing policies × replica-kill schedules and
asserts the cluster-scope contracts directly:

* **conservation** — every offered request becomes terminal exactly once
  across the whole fleet (finish/fail on one replica, or one front-door
  shed — never both, never twice), even through kill → re-route chains;
* **monotone clocks** — no replica's simulated clock ever moves
  backwards, and every event log is time-ordered;
* **autoscaler bounds** — scale decisions never leave
  ``[min_replicas, max_replicas]`` on a fault-free fleet;
* **prefix affinity dominance** — with the load escape disabled
  (``router_slack=None``), affinity routing never scores fewer prefix
  cache hits than round-robin on a kill-free templated trace;
* **replay** — same seed, same :func:`fleet_digest`; different seeds
  diverge.

The whole suite runs under a fixed-seed profile (``derandomize=True``,
no example database) so CI replays the exact same ≥200 examples every
run — ``test_example_budget`` pins that floor.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.invariants import InvariantViolation
from repro.faults.schedule import replica_storm
from repro.fleet.admission import AdmissionConfig
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.harness import fleet_smoke_run, smoke_fleet_config, \
    smoke_trace
from repro.fleet.invariants import check_fleet_invariants, fleet_digest
from repro.fleet.router import ROUTER_POLICIES
from repro.fleet.simulator import FleetConfig, FleetSimulator
from repro.fleet.traffic import DiurnalSpec, TemplateMix, diurnal_arrivals, \
    synthesize_requests
from repro.workloads.generator import LengthDistribution

# Fixed-seed profile: derandomize makes hypothesis draw the same example
# sequence every run (no ambient entropy, no example database), which is
# what lets CI treat this suite as a deterministic gate.
FLEET_PROFILE = dict(deadline=None, derandomize=True, database=None)

# Example budget per property; test_example_budget pins the suite-wide
# floor the roadmap promises (>= 200 examples per CI run).
EXAMPLES_CORE = 70
EXAMPLES_AUTOSCALER = 45
EXAMPLES_AFFINITY = 60
EXAMPLES_REPLAY = 30


def test_example_budget():
    """The suite must keep driving >= 200 fixed-seed examples."""
    total = (EXAMPLES_CORE + EXAMPLES_AUTOSCALER + EXAMPLES_AFFINITY
             + EXAMPLES_REPLAY)
    assert total >= 200


# --------------------------------------------------------------------- #
# small deterministic scenario builders
# --------------------------------------------------------------------- #

def _small_trace(seed: int, n: int, templates: TemplateMix | None = None,
                 base_rps: float = 12.0, peak_rps: float = 60.0):
    """A bursty n-request trace, pure function of the seed."""
    rng = np.random.default_rng(seed)
    spec = DiurnalSpec(base_rps=base_rps, peak_rps=peak_rps, period_s=2.0)
    arrivals = diurnal_arrivals(spec, n, rng)
    return synthesize_requests(
        n, rng, arrivals,
        lengths=LengthDistribution(mean_input=96, mean_output=12, sigma=0.3),
        templates=templates,
    )


def _small_config(policy: str, num_replicas: int,
                  storm_seed: int | None = None,
                  autoscaler: AutoscalerConfig | None = None,
                  **overrides) -> FleetConfig:
    kills = None
    if storm_seed is not None:
        kills = replica_storm(storm_seed, horizon_s=1.5, rate_per_s=1.0,
                              num_replicas=num_replicas, mean_outage_s=0.75,
                              permanent_fraction=0.3)
    kwargs = dict(
        num_replicas=num_replicas,
        policy=policy,
        kv_pool_tokens=16_384,
        max_num_seqs=8,
        enable_prefix_caching=True,
        admission=AdmissionConfig(max_backlog_per_replica=16),
        autoscaler=autoscaler,
        replica_kills=kills,
    )
    kwargs.update(overrides)
    return FleetConfig(**kwargs)


def _assert_monotone_clocks(result) -> None:
    for replica in result.replicas:
        assert not replica.clock_violations, replica.clock_violations[0]
        times = [e.time for e in replica.engine.log.events]
        for earlier, later in zip(times, times[1:]):
            assert later >= earlier - 1e-12, (
                f"replica {replica.replica_id} log time went backwards: "
                f"{earlier} -> {later}")


# --------------------------------------------------------------------- #
# conservation + coherence across traces x policies x storms
# --------------------------------------------------------------------- #

class TestFleetConservation:
    @settings(max_examples=EXAMPLES_CORE, **FLEET_PROFILE)
    @given(seed=st.integers(0, 2**16),
           policy=st.sampled_from(ROUTER_POLICIES),
           num_replicas=st.integers(1, 3),
           n=st.integers(8, 20),
           storm=st.booleans(),
           templated=st.booleans())
    def test_every_request_terminal_exactly_once(
            self, seed, policy, num_replicas, n, storm, templated):
        templates = TemplateMix(num_templates=4, templated_fraction=0.7,
                                prefix_tokens=64) if templated else None
        config = _small_config(policy, num_replicas,
                               storm_seed=seed if storm else None)
        result = FleetSimulator(config).run(
            _small_trace(seed, n, templates=templates))
        # conservation, routing-log sanity, per-replica engine coherence
        check_fleet_invariants(result, config.autoscaler)
        _assert_monotone_clocks(result)
        # every offered request is accounted for, in exactly one bucket
        finished = sum(1 for r in result.requests if r.is_finished)
        failed = sum(1 for r in result.requests
                     if r.is_failed and r not in result.shed)
        assert finished + failed + result.num_shed == n
        assert len(fleet_digest(result)) == 64


# --------------------------------------------------------------------- #
# autoscaler bounds on a fault-free fleet
# --------------------------------------------------------------------- #

class TestAutoscalerBounds:
    @settings(max_examples=EXAMPLES_AUTOSCALER, **FLEET_PROFILE)
    @given(seed=st.integers(0, 2**16),
           min_replicas=st.integers(1, 2),
           extra=st.integers(1, 3),
           cooldown=st.integers(0, 2))
    def test_decisions_never_leave_bounds(self, seed, min_replicas, extra,
                                          cooldown):
        autoscaler = AutoscalerConfig(
            min_replicas=min_replicas,
            max_replicas=min_replicas + extra,
            interval_s=0.2,
            scale_up_backlog=2.0,
            cooldown_ticks=cooldown,
        )
        config = _small_config("least_kv", min_replicas,
                               autoscaler=autoscaler)
        result = FleetSimulator(config).run(
            _small_trace(seed, 14, base_rps=20.0, peak_rps=80.0))
        check_fleet_invariants(result, autoscaler)
        assert result.scale_decisions, "autoscaler never ticked"
        # fault-free: the floor is hard for *every* decision, not just
        # scale-downs (the relaxation exists only for replica-loss runs)
        for decision in result.scale_decisions:
            assert autoscaler.min_replicas <= decision.replicas_after
            assert decision.replicas_after <= autoscaler.max_replicas
            assert decision.action in ("up", "down", "hold")
        assert result.peak_replicas <= autoscaler.max_replicas


# --------------------------------------------------------------------- #
# prefix affinity never loses cache hits to round-robin
# --------------------------------------------------------------------- #

class TestPrefixAffinityDominance:
    @settings(max_examples=EXAMPLES_AFFINITY, **FLEET_PROFILE)
    @given(seed=st.integers(0, 2**16),
           num_replicas=st.integers(1, 3),
           n=st.integers(8, 18),
           num_templates=st.integers(1, 5),
           fraction=st.sampled_from((0.6, 0.8, 1.0)))
    def test_pure_affinity_hits_dominate_round_robin(
            self, seed, num_replicas, n, num_templates, fraction):
        """With the load escape off and no kills, every non-first request
        of a template lands on the replica already holding its prefix, so
        affinity's hit count is the trace maximum — round-robin can tie
        it, never beat it."""
        templates = TemplateMix(num_templates=num_templates,
                                templated_fraction=fraction,
                                prefix_tokens=64)

        def run(policy: str):
            # generous KV + no storm + no autoscaler: nothing evicts a
            # cached prefix, so hit counts depend on routing alone
            config = _small_config(
                policy, num_replicas,
                kv_pool_tokens=65_536, max_num_seqs=16,
                admission=AdmissionConfig(max_backlog_per_replica=64),
                router_slack=None,
            )
            result = FleetSimulator(config).run(
                _small_trace(seed, n, templates=templates))
            check_fleet_invariants(result)
            assert result.num_shed == 0, "capacity must not confound hits"
            return result

        affinity = run("prefix_affinity")
        round_robin = run("round_robin")
        assert affinity.kv_lookups == round_robin.kv_lookups
        assert affinity.kv_hits >= round_robin.kv_hits


# --------------------------------------------------------------------- #
# replay: digest equality under the same seed
# --------------------------------------------------------------------- #

class TestFleetReplay:
    @settings(max_examples=EXAMPLES_REPLAY, **FLEET_PROFILE)
    @given(seed=st.integers(0, 2**16),
           policy=st.sampled_from(ROUTER_POLICIES))
    def test_same_seed_same_digest(self, seed, policy):
        def digest() -> str:
            config = _small_config(policy, 2, storm_seed=seed)
            result = FleetSimulator(config).run(_small_trace(seed, 10))
            check_fleet_invariants(result)
            return fleet_digest(result)

        assert digest() == digest()

    def test_different_seeds_diverge(self):
        def digest(seed: int) -> str:
            config = _small_config("least_kv", 2)
            return fleet_digest(
                FleetSimulator(config).run(_small_trace(seed, 10)))

        assert digest(1) != digest(2)


# --------------------------------------------------------------------- #
# worked examples on the canonical smoke scenario
# --------------------------------------------------------------------- #

class TestSmokeScenario:
    def test_smoke_run_passes_full_audit(self):
        config = smoke_fleet_config()
        result = fleet_smoke_run()
        check_fleet_invariants(result, config.autoscaler)
        assert result.num_kills >= 1, "the storm must land at least one kill"
        assert result.heals, "the storm must land at least one heal"
        assert result.kv_hits > 0, "templated smoke traffic must hit"

    def test_engine_id_sets_track_their_records(self):
        # killed replicas hand their orphans back, so every engine's
        # duplicate-id guard covers exactly the requests it still owns
        for replica in fleet_smoke_run().replicas:
            engine = replica.engine
            assert engine._ids == {r.request_id for r in engine._all}

    def test_audit_rejects_doctored_runs(self):
        result = fleet_smoke_run()
        # claim a finished request was *also* shed: the conservation audit
        # must see the double-termination
        victim = next(r for r in result.requests if r.is_finished)
        result.shed.append(victim)
        with pytest.raises(InvariantViolation):
            check_fleet_invariants(result)


class _PollEveryReplica(FleetSimulator):
    """Reference terminal feed: polls dead and retired replicas too."""

    def _collect_terminals(self) -> None:
        fresh = sorted(t for r in self.replicas for t in r.new_terminals())
        for time, rid in fresh:
            self.admission.on_terminal(self._by_id[rid], time)


class TestTerminalFeed:
    @staticmethod
    def _run(cls, seed: int):
        sim = cls(smoke_fleet_config())
        feed: list[tuple[int, float]] = []
        on_terminal = sim.admission.on_terminal

        def record(req, now):
            feed.append((req.request_id, now))
            on_terminal(req, now)

        sim.admission.on_terminal = record
        return sim.run(smoke_trace(seed=seed)), feed

    @pytest.mark.parametrize("seed", [23, 5, 11])
    def test_live_replica_poll_matches_polling_every_replica(self, seed):
        result, feed = self._run(FleetSimulator, seed)
        reference, reference_feed = self._run(_PollEveryReplica, seed)
        # the scenario retires replicas all three ways: kill, heal, drain
        assert result.num_kills and result.heals
        assert any(d.action == "down" for d in result.scale_decisions)
        assert fleet_digest(result) == fleet_digest(reference)
        assert feed == reference_feed
        assert result.budgets == reference.budgets
