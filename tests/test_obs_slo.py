"""SLO specs, error budgets, burn-rate rules, bucket-edge alignment."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.harness import reference_serving_run
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    buckets_with_edges,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLO,
    BurnRateRule,
    ErrorBudget,
    SloTracker,
    fault_storm_config,
    run_slo_scenario,
    sre_burn_rules,
)
from repro.serving.request import Request, RequestState, SamplingParams


class TestSloParse:
    def test_latency_spec(self):
        slo = SLO.parse("p99 ttft < 0.5s")
        assert slo == SLO(name="ttft_p99", metric="ttft", target=0.99,
                          threshold_s=0.5)

    def test_fractional_percentile_and_metric_variants(self):
        slo = SLO.parse("p99.9 itl <= 0.05")
        assert slo.name == "itl_p99_9"
        assert slo.target == pytest.approx(0.999)
        assert SLO.parse("p50 e2e < 2 seconds").threshold_s == 2.0

    def test_availability_percent_and_fraction(self):
        assert SLO.parse("availability >= 99.9%").target == pytest.approx(
            0.999)
        assert SLO.parse("availability >= 0.95").target == pytest.approx(0.95)

    def test_describe_round_trips_through_parse(self):
        for slo in DEFAULT_SLOS:
            parsed = SLO.parse(slo.describe())
            assert parsed.describe() == slo.describe()
            assert parsed.target == pytest.approx(slo.target)
            assert (parsed.name, parsed.metric, parsed.threshold_s) == (
                slo.name, slo.metric, slo.threshold_s)

    @pytest.mark.parametrize("bad", [
        "p99 ttft", "ttft < 0.5", "p0 ttft < 1s", "p100 ttft < 1s",
        "availability >= fast", "p99 goodput < 1s",
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            SLO.parse(bad)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="unknown SLO metric"):
            SLO(name="x", metric="goodput", target=0.9)
        with pytest.raises(ValueError, match="fraction"):
            SLO(name="x", metric="ttft", target=99.0, threshold_s=1.0)
        with pytest.raises(ValueError, match="no threshold"):
            SLO(name="x", metric="availability", target=0.99,
                threshold_s=1.0)
        with pytest.raises(ValueError, match="positive threshold"):
            SLO(name="x", metric="ttft", target=0.99)


class TestSloScoring:
    @pytest.fixture(scope="class")
    def finished(self):
        return reference_serving_run(num_requests=4, input_tokens=64,
                                     output_tokens=8).requests

    def test_finished_requests_meet_loose_objectives(self, finished):
        loose = SLO.parse("p99 ttft < 100s")
        avail = SLO.parse("availability >= 99.9%")
        for req in finished:
            assert loose.is_good(req)
            assert avail.is_good(req)

    def test_tight_latency_threshold_marks_bad(self, finished):
        tight = SLO(name="t", metric="ttft", target=0.99, threshold_s=1e-9)
        assert not any(tight.is_good(req) for req in finished)

    def test_unfinished_request_is_bad_under_every_objective(self):
        req = Request(request_id=0, prompt_tokens=8,
                      sampling=SamplingParams(max_tokens=4))
        for slo in (*DEFAULT_SLOS, SLO.parse("p50 e2e < 100s"),
                    SLO.parse("p50 itl < 100s")):
            assert not slo.is_good(req)


class TestErrorBudget:
    def test_empty_budget_is_untouched(self):
        budget = ErrorBudget(slo="x", objective="", total=0, bad=0,
                             target=0.99)
        assert budget.attainment == 1.0
        assert budget.budget_consumed == 0.0
        assert budget.budget_remaining == 1.0

    def test_budget_math(self):
        # 1% budget on 1000 requests = 10 allowed failures; 5 bad = half
        budget = ErrorBudget(slo="x", objective="", total=1000, bad=5,
                             target=0.99)
        assert budget.attainment == pytest.approx(0.995)
        assert budget.budget_consumed == pytest.approx(0.5)
        assert budget.budget_remaining == pytest.approx(0.5)

    def test_overspent_budget_exceeds_one(self):
        budget = ErrorBudget(slo="x", objective="", total=100, bad=10,
                             target=0.99)
        assert budget.budget_consumed == pytest.approx(10.0)

    def test_to_dict_is_json_serialisable(self):
        blob = json.dumps(ErrorBudget(slo="x", objective="o", total=10,
                                      bad=1, target=0.9).to_dict())
        assert "budget_consumed" in blob


def _finished_request(rid=0):
    req = Request(request_id=rid, prompt_tokens=8,
                  sampling=SamplingParams(max_tokens=2))
    req.first_scheduled_time = 0.001
    req.first_token_time = 0.002
    req.generated_tokens = 2
    req.finish_time = 0.003
    req.state = RequestState.FINISHED
    return req


class TestSloTracker:
    def test_rejects_empty_and_duplicate_slos(self):
        with pytest.raises(ValueError, match="at least one"):
            SloTracker(())
        with pytest.raises(ValueError, match="duplicate"):
            SloTracker((DEFAULT_SLOS[0], DEFAULT_SLOS[0]))

    def test_window_counts_honour_the_cutoff(self):
        tracker = SloTracker((SLO.parse("availability >= 99%"),))
        samples = tracker._samples["availability"]
        samples.extend((float(t), t % 2 == 0) for t in range(1, 11))
        total, bad = tracker.window_counts("availability", now=10.0,
                                           window_s=3.0)
        # closed window [now - window_s, now]: t=7..10, bad at 8 and 10
        assert (total, bad) == (4, 2)
        total, bad = tracker.window_counts("availability", now=10.0,
                                           window_s=100.0)
        assert (total, bad) == (10, 5)

    @given(st.lists(st.tuples(st.integers(0, 40), st.booleans(),
                              st.booleans()), max_size=80),
           st.integers(1, 25))
    @settings(max_examples=200, deadline=None)
    def test_window_counts_equal_reverse_scan(self, feed, window_s):
        # out-of-order terminal times (fleet replicas report them that
        # way), equal times, and queries interleaved with appends
        def reverse_scan(samples, now, window_s):
            total = bad = 0
            for t, is_bad in reversed(samples):
                if t < now - window_s:
                    break
                total += 1
                bad += is_bad
            return total, bad

        tracker = SloTracker((SLO.parse("availability >= 99%"),))
        samples = tracker._samples["availability"]
        for t, is_bad, query in feed:
            samples.append((t / 4.0, is_bad))
            if query:
                for now in (t / 4.0, t / 4.0 + 3.0, 12.0):
                    assert tracker.window_counts(
                        "availability", now, window_s / 4.0) == reverse_scan(
                            samples, now, window_s / 4.0)
        for now in (0.0, 5.0, 10.0, 20.0):
            assert tracker.window_counts(
                "availability", now, window_s / 4.0) == reverse_scan(
                    samples, now, window_s / 4.0)

    def test_burn_rate_is_bad_fraction_over_budget_fraction(self):
        slo = SLO.parse("availability >= 99%")  # budget fraction 0.01
        tracker = SloTracker((slo,))
        tracker._samples["availability"].extend(
            [(1.0, False), (2.0, True), (3.0, False), (4.0, True)])
        # 2 bad of 4 in window -> 0.5 / 0.01 = 50x
        assert tracker.burn_rate("availability", now=4.0,
                                 window_s=10.0) == pytest.approx(50.0)
        assert tracker.burn_rate("availability", now=100.0,
                                 window_s=1.0) == 0.0  # empty window

    def test_terminal_requests_update_every_slo(self):
        tracker = SloTracker(DEFAULT_SLOS)
        tracker.on_request_terminal(_finished_request(), now=0.003)
        for slo in DEFAULT_SLOS:
            budget = tracker.budget(slo.name)
            assert (budget.total, budget.bad) == (1, 0)

    def test_report_and_unknown_name(self):
        tracker = SloTracker(DEFAULT_SLOS)
        report = tracker.report(now=1.0)
        assert report["time"] == 1.0
        assert [b["slo"] for b in report["budgets"]] == [
            s.name for s in DEFAULT_SLOS]
        with pytest.raises(KeyError):
            tracker.budget("nope")


class TestBucketAlignment:
    def test_buckets_with_edges_splices_and_dedupes(self):
        out = buckets_with_edges((0.1, 0.2), 0.15, 0.2)
        assert out == (0.1, 0.15, 0.2)
        with pytest.raises(ValueError):
            buckets_with_edges((0.1,), 0.0)

    def test_set_buckets_overrides_future_histograms(self):
        registry = MetricsRegistry()
        registry.set_buckets("ttft_seconds", (0.1, 0.5, 1.0))
        hist = registry.histogram("ttft_seconds")
        assert hist.bounds == (0.1, 0.5, 1.0)

    def test_set_buckets_rebuts_populated_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("ttft_seconds").observe(0.2)
        with pytest.raises(ValueError, match="before the first"):
            registry.set_buckets("ttft_seconds", (0.1, 0.5))

    def test_set_buckets_rejects_non_histograms(self):
        registry = MetricsRegistry()
        registry.counter("requests_total")
        with pytest.raises(TypeError):
            registry.set_buckets("requests_total", (1.0,))

    def test_align_buckets_pins_thresholds_on_exact_edges(self):
        # 0.123 sits inside a default bucket; alignment must make it an
        # exact upper bound so attainment needs no interpolation
        slo = SLO.parse("p99 ttft < 0.123s")
        assert slo.threshold_s not in DEFAULT_LATENCY_BUCKETS
        tracker = SloTracker((slo, DEFAULT_SLOS[1]))
        registry = MetricsRegistry()
        tracker.align_buckets(registry)
        hist = registry.histogram("ttft_seconds")
        assert 0.123 in hist.bounds
        # threshold is now a bucket edge: observations at the threshold
        # land in the <= threshold bucket
        assert hist.bucket_index(0.123) == hist.bounds.index(0.123)


def _engine_stub(tracker, now):
    return SimpleNamespace(
        obs=SimpleNamespace(slo=tracker, active=True), clock=now)


class TestBurnRateRule:
    SLO99 = SLO.parse("availability >= 99%")

    def _tracker(self, samples):
        tracker = SloTracker((self.SLO99,))
        tracker._samples["availability"].extend(samples)
        return tracker

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            BurnRateRule(self.SLO99, long_window_s=0.0, short_window_s=1.0,
                         factor=2.0)
        with pytest.raises(ValueError, match="short window"):
            BurnRateRule(self.SLO99, long_window_s=1.0, short_window_s=2.0,
                         factor=2.0)
        with pytest.raises(ValueError, match="factor"):
            BurnRateRule(self.SLO99, long_window_s=1.0, short_window_s=0.5,
                         factor=0.0)

    def test_fires_when_both_windows_burn(self):
        tracker = self._tracker([(t / 10.0, True) for t in range(8)])
        rule = BurnRateRule(self.SLO99, long_window_s=1.0,
                            short_window_s=0.2, factor=14.4)
        alert = rule.check(_engine_stub(tracker, now=0.7))
        assert alert is not None
        assert alert.rule == rule.name == "slo_burn_availability_1s"
        assert alert.context["long_burn_rate"] >= 14.4
        assert alert.context["short_burn_rate"] >= 14.4
        assert "error budget" in alert.message

    def test_calm_short_window_suppresses_the_page(self):
        # bad burst long ago, all-good recently: long window still burns,
        # short window is calm -> no page (the burn already stopped)
        samples = [(t / 10.0, True) for t in range(6)]
        samples += [(0.9 + t / 100.0, False) for t in range(6)]
        tracker = self._tracker(samples)
        rule = BurnRateRule(self.SLO99, long_window_s=1.0,
                            short_window_s=0.05, factor=14.4)
        assert rule.check(_engine_stub(tracker, now=0.95)) is None

    def test_min_samples_gate(self):
        tracker = self._tracker([(0.1, True), (0.2, True)])
        rule = BurnRateRule(self.SLO99, long_window_s=1.0,
                            short_window_s=0.5, factor=1.0, min_samples=4)
        assert rule.check(_engine_stub(tracker, now=0.3)) is None

    def test_no_tracker_attached_is_silent(self):
        rule = BurnRateRule(self.SLO99, long_window_s=1.0,
                            short_window_s=0.5, factor=1.0)
        engine = SimpleNamespace(obs=None, clock=0.0)
        assert rule.check(engine) is None

    def test_sre_policy_has_fast_and_slow_pages_per_slo(self):
        rules = sre_burn_rules(DEFAULT_SLOS, hour_s=2.0)
        assert len(rules) == 2 * len(DEFAULT_SLOS)
        fast, slow = rules[0], rules[1]
        assert (fast.long_window_s, fast.factor) == (2.0, 14.4)
        assert (slow.long_window_s, slow.factor) == (12.0, 6.0)
        assert fast.short_window_s == pytest.approx(2.0 / 12.0)


class TestSloScenario:
    def test_fault_storm_pages_deterministically(self, tmp_path):
        report = run_slo_scenario(fault_storm_config(),
                                  out_dir=tmp_path / "a")
        replay = run_slo_scenario(fault_storm_config(),
                                  out_dir=tmp_path / "b")
        # the acceptance gate: at least one burn-rate page, replay-stable
        assert report["alerts"]
        assert any(a["rule"].startswith("slo_burn_") for a in report["alerts"])
        normalize = lambda rep: json.dumps(
            {k: v for k, v in rep.items() if k != "bundles"}, sort_keys=True)
        assert normalize(report) == normalize(replay)

    def test_budgets_reflect_the_storm(self):
        report = run_slo_scenario(fault_storm_config())
        budgets = {b["slo"]: b for b in report["budgets"]}
        assert budgets["availability"]["bad"] > 0
        assert budgets["availability"]["budget_consumed"] > 1.0
        assert report["summary"]["fault_retries"] > 0
