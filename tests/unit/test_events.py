"""Unit tests for the event queue and its single-list event entries."""


from repro.simulation import Simulator
from repro.simulation.events import (
    ARGS,
    CALLBACK,
    HIGH_PRIORITY,
    LOW_PRIORITY,
    PRIORITY,
    SEQ,
    TIME,
    EventQueue,
)


def fire(entry):
    """Fire a popped entry the way ``Simulator.step`` does."""
    callback = entry[CALLBACK]
    entry[CALLBACK] = None
    callback(*entry[ARGS])


def test_push_pop_single_event():
    queue = EventQueue()
    fired = []
    queue.push(1.0, fired.append, "a")
    event = queue.pop()
    fire(event)
    assert fired == ["a"]


def test_pop_returns_events_in_time_order():
    queue = EventQueue()
    queue.push(3.0, lambda: None)
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    times = [queue.pop()[TIME] for _ in range(3)]
    assert times == [1.0, 2.0, 3.0]


def test_same_time_orders_by_priority_then_insertion():
    queue = EventQueue()
    order = []
    queue.push(1.0, order.append, "normal-first")
    queue.push(1.0, order.append, "high", priority=HIGH_PRIORITY)
    queue.push(1.0, order.append, "low", priority=LOW_PRIORITY)
    queue.push(1.0, order.append, "normal-second")
    while queue:
        fire(queue.pop())
    assert order == ["high", "normal-first", "normal-second", "low"]


def test_len_counts_live_events_only():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    queue.cancel(first)
    assert len(queue) == 1


def test_cancelled_event_is_skipped_on_pop():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(first)
    assert queue.pop()[TIME] == 2.0
    assert queue.pop() is None


def test_double_cancel_is_idempotent():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 1


def test_peek_time_skips_cancelled_head():
    queue = EventQueue()
    head = queue.push(1.0, lambda: None)
    queue.push(5.0, lambda: None)
    queue.cancel(head)
    assert queue.peek_time() == 5.0


def test_peek_time_empty_queue_is_none():
    assert EventQueue().peek_time() is None


def test_clear_drops_everything():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert not queue
    assert queue.pop() is None


def test_event_fire_passes_args():
    received = []
    event = EventQueue().push(0.0, lambda a, b: received.append((a, b)), 1, 2)
    fire(event)
    assert received == [(1, 2)]


def test_entry_is_the_heap_list():
    queue = EventQueue()
    callback = print
    entry = queue.push(2.5, callback, "x", priority=HIGH_PRIORITY)
    assert entry == [2.5, HIGH_PRIORITY, 0, callback, ("x",)]
    assert (entry[TIME], entry[PRIORITY], entry[SEQ]) == (2.5, HIGH_PRIORITY, 0)
    assert queue._heap[0] is entry


def test_bool_reflects_liveness():
    queue = EventQueue()
    assert not queue
    event = queue.push(1.0, lambda: None)
    assert queue
    queue.cancel(event)
    assert not queue


def test_len_consistent_under_interleaved_push_cancel_peek_pop():
    """Regression: peek_time used to pop cancelled heads on its own path;
    len(queue) must track the live count through any interleaving."""
    queue = EventQueue()
    live = []
    events = []
    for index in range(50):
        events.append(queue.push(float(index % 7), lambda: None))
        live.append(events[-1])
        if index % 3 == 0 and live:
            victim = live[len(live) // 2]
            queue.cancel(victim)
            live.remove(victim)
        if index % 4 == 0:
            queue.peek_time()
            assert len(queue) == len(live)
        if index % 5 == 0 and live:
            popped = queue.pop()
            assert popped[CALLBACK] is not None
            live.remove(popped)
        assert len(queue) == len(live)
    drained = 0
    while queue:
        assert queue.pop() is not None
        drained += 1
    assert drained == len(live)
    assert queue.pop() is None
    assert len(queue) == 0


def test_compaction_preserves_order_and_len():
    """Cancelling enough events to trigger heap compaction must not
    disturb ordering or the live count."""
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(300)]
    # Cancel most of them so dead entries outnumber live ones.
    for event in events[::2]:
        queue.cancel(event)
    for event in events[1::4]:
        queue.cancel(event)
    expected = sorted(e[TIME] for e in events if e[CALLBACK] is not None)
    assert len(queue) == len(expected)
    assert queue._dead < EventQueue.COMPACT_MIN_DEAD or queue._dead <= queue._live
    popped = []
    while queue:
        popped.append(queue.pop()[TIME])
    assert popped == expected


def test_cancel_during_pop_interleaving_keeps_peek_consistent():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    second = queue.push(2.0, lambda: None)
    third = queue.push(3.0, lambda: None)
    assert queue.peek_time() == 1.0
    queue.cancel(first)
    assert queue.peek_time() == 2.0
    assert len(queue) == 2
    assert queue.pop() is second
    queue.cancel(third)
    assert queue.peek_time() is None
    assert queue.pop() is None
    assert len(queue) == 0


# --------------------------------------------------------------------------
# The entry as cancel handle, through the simulator.


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
    assert sim.step()
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
    floor = EventQueue.COMPACT_MIN_DEAD
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
