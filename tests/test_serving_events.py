"""Edge-case tests for the serving EventLog and ServingResult percentiles."""

from __future__ import annotations

import pytest

from repro.serving.engine import ServingResult
from repro.serving.events import Event, EventLog, EventType
from repro.serving.request import Request, SamplingParams


def make_request(request_id=0):
    return Request(request_id=request_id, prompt_tokens=8,
                   sampling=SamplingParams(max_tokens=4), arrival_time=0.0)


def ev(time, type=EventType.DECODE, **kwargs):
    return Event(time=time, type=type, **kwargs)


class TestEventLogOrdering:
    def test_out_of_order_record_raises(self):
        log = EventLog()
        log.record(ev(1.0))
        with pytest.raises(ValueError, match="time order"):
            log.record(ev(0.5))

    def test_tiny_backwards_jitter_tolerated(self):
        # floating-point noise below 1e-12 must not be rejected
        log = EventLog()
        log.record(ev(1.0))
        log.record(ev(1.0 - 1e-13))
        assert len(log.events) == 2

    def test_equal_timestamps_allowed(self):
        log = EventLog()
        log.record(ev(1.0, EventType.PREFILL))
        log.record(ev(1.0, EventType.FINISH))
        assert log.count(EventType.FINISH) == 1


class TestEventLogIndices:
    def test_empty_log(self):
        log = EventLog()
        assert log.peak_kv_utilization() == 0.0
        assert log.total_busy_time() == 0.0
        assert log.num_iterations == 0
        assert log.of_type(EventType.DECODE) == []

    def test_count_and_of_type_track_record(self):
        log = EventLog()
        log.record(ev(0.0, EventType.ARRIVAL))
        log.record(ev(0.1, EventType.PREFILL, duration_s=0.1))
        log.record(ev(0.2, EventType.DECODE, duration_s=0.05))
        log.record(ev(0.3, EventType.DECODE, duration_s=0.05))
        assert log.count(EventType.DECODE) == 2
        assert [e.time for e in log.of_type(EventType.DECODE)] == [0.2, 0.3]
        assert log.num_iterations == 3
        assert log.total_busy_time() == pytest.approx(0.2)

    def test_of_type_since_is_a_cursor_tail(self):
        log = EventLog()
        log.record(ev(0.0, EventType.DECODE))
        cursor = log.count(EventType.DECODE)
        log.record(ev(0.1, EventType.DECODE))
        log.record(ev(0.2, EventType.DECODE))
        fresh = log.of_type_since(EventType.DECODE, cursor)
        assert [e.time for e in fresh] == [0.1, 0.2]
        assert log.of_type_since(EventType.DECODE, 3) == []

    def test_of_type_returns_a_copy(self):
        log = EventLog()
        log.record(ev(0.0))
        log.of_type(EventType.DECODE).clear()
        assert log.count(EventType.DECODE) == 1

    def test_peak_kv_is_running_max(self):
        log = EventLog()
        log.record(ev(0.0, kv_utilization=0.4))
        log.record(ev(0.1, kv_utilization=0.9))
        log.record(ev(0.2, kv_utilization=0.2))
        assert log.peak_kv_utilization() == pytest.approx(0.9)

    def test_post_init_indexes_preexisting_events(self):
        events = [
            ev(0.0, EventType.PREFILL, duration_s=0.1, kv_utilization=0.5),
            ev(0.1, EventType.DECODE, duration_s=0.2, kv_utilization=0.3),
        ]
        log = EventLog(events=events)
        assert log.count(EventType.PREFILL) == 1
        assert log.num_iterations == 2
        assert log.total_busy_time() == pytest.approx(0.3)
        assert log.peak_kv_utilization() == pytest.approx(0.5)


class TestServingResultPercentiles:
    @staticmethod
    def _result(requests):
        return ServingResult(requests=requests, log=EventLog(), makespan=0.0)

    def test_percentiles_raise_on_empty_result(self):
        result = self._result([])
        with pytest.raises(ValueError, match="no request produced"):
            result.p99_ttft()
        with pytest.raises(ValueError, match="no request produced"):
            result.p50_ttft()
        with pytest.raises(ValueError, match="no request finished"):
            result.p99_e2e()

    def test_percentiles_raise_before_first_token(self):
        result = self._result([make_request()])
        with pytest.raises(ValueError):
            result.p99_ttft()
        with pytest.raises(ValueError):
            result.mean_ttft()

    def test_percentiles_for_single_request(self):
        req = make_request()
        req.first_token_time = 0.25
        req.finish_time = 1.0
        result = self._result([req])
        assert result.p50_ttft() == pytest.approx(0.25)
        assert result.p99_ttft() == pytest.approx(0.25)
        assert result.p99_e2e() == pytest.approx(1.0)
