"""Unit tests for the simulator clock and run loop."""

import math

import pytest

from repro.simulation import SimulationError, Simulator


def test_clock_starts_at_zero_by_default():
    assert Simulator().now == 0.0


def test_schedule_advances_clock_to_event_time():
    sim = Simulator()
    fired_at = []
    sim.schedule(2.5, lambda: fired_at.append(sim.now))
    sim.run()
    assert fired_at == [2.5]
    assert sim.now == 2.5


def test_schedule_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


@pytest.mark.parametrize("method", ["schedule", "schedule_at", "run"])
def test_nan_time_rejected(method):
    sim = Simulator()
    fired = []
    for time in (1.0, 2.0, 3.0):
        sim.schedule_at(time, fired.append, time)
    with pytest.raises(SimulationError):
        if method == "run":
            sim.run(until=math.nan)
        else:
            getattr(sim, method)(math.nan, fired.append, math.nan)
    assert sim.pending_events == 3
    sim.run(until=2.5)
    assert fired == [1.0, 2.0]
    assert sim.now == 2.5


def test_schedule_at_in_the_past_rejected():
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_run_until_fast_forwards_clock():
    sim = Simulator()
    sim.schedule(100.0, lambda: None)
    processed = sim.run(until=50.0)
    assert processed == 0
    assert sim.now == 50.0
    assert sim.pending_events == 1


def test_run_until_processes_events_up_to_bound():
    sim = Simulator()
    seen = []
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, seen.append, delay)
    sim.run(until=2.0)
    assert seen == [1.0, 2.0]


def test_run_until_before_now_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 2.0


def test_max_events_bounds_processing():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.pending_events == 6


def test_every_repeats_until_stopped():
    sim = Simulator()
    ticks = []
    stop = sim.every(1.0, lambda: ticks.append(sim.now))
    sim.schedule(3.5, stop)
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_every_rejects_non_positive_interval():
    with pytest.raises(SimulationError):
        Simulator().every(0.0, lambda: None)
    with pytest.raises(SimulationError):
        Simulator().every(math.nan, lambda: None)


def test_cancel_prevents_callback():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_deterministic_tie_break_is_fifo():
    sim = Simulator()
    order = []
    for name in "abc":
        sim.schedule(1.0, order.append, name)
    sim.run()
    assert order == ["a", "b", "c"]
