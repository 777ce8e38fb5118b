"""Unit tests for the simulator's event heap and its single-list entries."""


from repro.simulation import Simulator


def test_pop_returns_events_in_time_order():
    sim = Simulator()
    times = []
    for time in (3.0, 1.0, 2.0):
        sim.schedule_at(time, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.0, 2.0, 3.0]


def test_len_counts_live_events_only():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.cancel(first)
    assert sim.pending_events == 1


def test_cancelled_event_is_skipped_on_pop():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, 1.0)
    sim.schedule(2.0, fired.append, 2.0)
    sim.cancel(first)
    assert sim.run() == 1
    assert fired == [2.0]
    assert sim.pending_events == 0


def test_event_fire_passes_args():
    sim = Simulator()
    received = []
    sim.schedule(0.0, lambda a, b: received.append((a, b)), 1, 2)
    sim.run()
    assert received == [(1, 2)]


def test_entry_is_the_heap_list():
    sim = Simulator()
    callback = print
    entry = sim.schedule_at(2.5, callback, "x")
    assert entry == [2.5, 0, callback, ("x",)]
    assert sim._heap[0] is entry


def test_len_consistent_under_interleaved_push_cancel_peek_pop():
    """The live count tracks any interleaving of schedule, cancel and a
    one-event run."""
    sim = Simulator()
    live = []
    for index in range(50):
        live.append(sim.schedule(float(index % 7), lambda: None))
        if index % 3 == 0 and live:
            victim = live[len(live) // 2]
            sim.cancel(victim)
            live.remove(victim)
        if index % 5 == 0 and live:
            assert sim.run(max_events=1) == 1
            fired = [event for event in live if event[2] is None]
            assert len(fired) == 1
            live.remove(fired[0])
        assert sim.pending_events == len(live)
        assert sim.heap_integrity()["ok"]
    assert sim.run() == len(live)
    assert sim.pending_events == 0
    assert sim.run() == 0


def test_compaction_preserves_order_and_len():
    """Cancelling enough events to trigger heap compaction must not
    disturb ordering or the live count."""
    sim = Simulator()
    popped = []
    events = [sim.schedule_at(float(i), lambda: popped.append(sim.now)) for i in range(300)]
    # Cancel most of them so dead entries outnumber live ones.
    for event in events[::2]:
        sim.cancel(event)
    for event in events[1::4]:
        sim.cancel(event)
    expected = sorted(e[0] for e in events if e[2] is not None)
    assert sim.pending_events == len(expected)
    assert sim._dead < Simulator.COMPACT_MIN_DEAD or sim._dead <= sim._live
    assert len(sim._heap) == sim._live + sim._dead
    sim.run()
    assert popped == expected


# --------------------------------------------------------------------------
# The entry as cancel handle.


def test_cancel_after_fire_is_a_noop():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run(until=1.5)
    assert fired == ["a"]
    sim.cancel(event)
    assert sim.pending_events == 1
    assert sim.heap_integrity()["ok"]
    sim.run()
    assert fired == ["a", "b"]
    assert sim.heap_integrity()["ok"]


def test_cancel_after_step_is_a_noop():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.run(max_events=1) == 1
    sim.cancel(event)
    assert sim.pending_events == 1
    assert sim.heap_integrity()["ok"]


def test_double_cancel_keeps_integrity():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending_events == 1
    integrity = sim.heap_integrity()
    assert integrity["ok"]
    assert (integrity["live"], integrity["dead"]) == (1, 1)
    sim.run()
    assert fired == ["kept"]
    assert sim.heap_integrity()["ok"]


def test_cancel_while_compaction_is_pending():
    """Cancels up to the compaction trigger, a compaction, then late cancels
    of entries that were compacted away or already fired."""
    sim = Simulator()
    fired = []
    floor = Simulator.COMPACT_MIN_DEAD
    count = 2 * floor
    events = [sim.schedule(float(i), fired.append, i) for i in range(count)]
    # Dead entries reach the floor but do not yet outnumber the live ones.
    for event in events[:floor]:
        sim.cancel(event)
    integrity = sim.heap_integrity()
    assert integrity["ok"]
    assert (integrity["live"], integrity["dead"]) == (floor, floor)
    # This cancel makes dead outnumber live: the heap is compacted.
    sim.cancel(events[-1])
    integrity = sim.heap_integrity()
    assert integrity["ok"]
    assert (integrity["live"], integrity["dead"]) == (floor - 1, 0)
    # Cancelling compacted-away entries again changes nothing.
    for event in events[:floor] + [events[-1]]:
        sim.cancel(event)
    assert sim.heap_integrity()["ok"]
    assert sim.pending_events == floor - 1
    sim.run(until=float(floor + 2))
    # Cancelling a fired entry after compaction is a no-op as well.
    sim.cancel(events[floor])
    assert sim.heap_integrity()["ok"]
    sim.run()
    assert fired == list(range(floor, count - 1))
    assert sim.heap_integrity() == {
        "ok": True, "live": 0, "dead": 0, "scanned_live": 0, "scanned_dead": 0
    }
