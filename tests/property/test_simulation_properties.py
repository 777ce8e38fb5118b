"""Property-based tests on the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import EventQueue, RngRegistry, Simulator
from repro.simulation.events import TIME


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
def test_event_queue_pops_in_nondecreasing_time_order(times):
    queue = EventQueue()
    for time in times:
        queue.push(time, lambda: None)
    popped = []
    while queue:
        popped.append(queue.pop()[TIME])
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=100),
    st.integers(min_value=0, max_value=99),
)
def test_cancelling_any_subset_preserves_order_of_rest(times, cancel_stride):
    queue = EventQueue()
    events = [queue.push(time, lambda: None) for time in times]
    kept = []
    for index, event in enumerate(events):
        if cancel_stride and index % (cancel_stride + 1) == 0:
            queue.cancel(event)
        else:
            kept.append(event[TIME])
    popped = []
    while queue:
        popped.append(queue.pop()[TIME])
    assert popped == sorted(kept)


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=50))
def test_simulator_clock_is_monotone(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == max(delays)


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
@settings(max_examples=25)
def test_rng_streams_reproducible(seed, name):
    a = RngRegistry(seed).stream(name)
    b = RngRegistry(seed).stream(name)
    assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]
