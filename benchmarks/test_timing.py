"""Tests for the best-of timing helpers the ``record_*.py`` scripts share."""

import pytest

from repro.telemetry.tracer import disable, enable
from timing import best_of, timed_best_of


@pytest.fixture(autouse=True)
def _pristine_tracer():
    """Every test starts and ends with tracing disabled."""
    disable()
    yield
    disable()


class TestTiming:
    def test_best_of_returns_minimum(self):
        calls = []
        assert best_of(lambda: calls.append(1), 3) >= 0.0
        assert len(calls) == 3

    def test_best_of_runs_setup_outside_timed_region(self):
        order = []
        best_of(lambda: order.append("run"), 2, setup=lambda: order.append("setup"))
        assert order == ["setup", "run", "setup", "run"]

    def test_best_of_emits_span_when_tracing(self):
        tracer = enable()
        best_of(lambda: None, 2, label="probe")
        (event,) = [e for e in tracer.events if e["name"] == "bench.best_of"]
        assert event["counters"]["label"] == "probe"
        assert event["counters"]["repeats"] == 2

    def test_timed_best_of_returns_last_value(self):
        values = iter([10, 20])
        best, value = timed_best_of(lambda: next(values), 2)
        assert value == 20 and best >= 0.0

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            best_of(lambda: None, 0)
