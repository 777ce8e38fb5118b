"""Event primitives for the discrete-event simulation kernel.

The kernel is a classic calendar queue built on :mod:`heapq`.  An
:class:`Event` is an immutable-ish record of *when* a callback should run.
Events are ordered by ``(time, priority, seq)`` so that simultaneous events
run in a deterministic order: first by explicit priority, then by insertion
order.  Determinism matters here because experiments must be exactly
reproducible from a seed.

Performance note: the heap stores plain ``(time, priority, seq, event)``
tuples rather than the :class:`Event` objects themselves.  ``seq`` is
unique, so tuple comparison never reaches the fourth element and every
sift comparison stays in C instead of dispatching to a Python-level
``__lt__``.  Experiments schedule tens of millions of events, which makes
this the hottest comparison site of the whole testbed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

__all__ = ["Event", "EventQueue", "NORMAL_PRIORITY", "HIGH_PRIORITY", "LOW_PRIORITY"]

HIGH_PRIORITY = 0
NORMAL_PRIORITY = 10
LOW_PRIORITY = 20


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Simulated time (seconds) at which the event fires.
    priority:
        Tie-breaker for events scheduled at the same time; lower runs first.
    seq:
        Monotonic insertion counter, the final tie-breaker.
    callback:
        Zero-or-more-argument callable invoked when the event fires.
    args:
        Positional arguments passed to ``callback``.
    cancelled:
        Set by :meth:`cancel`; a cancelled event is skipped by the queue.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the queue drops it instead of firing it."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback (does not check ``cancelled``)."""
        self.callback(*self.args)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} p={self.priority} {name} {state}>"


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Cancellation is lazy: cancelled events stay in the heap (as dead
    entries) and are pruned when they surface at the head — the single
    compaction path shared by :meth:`pop` and :meth:`peek_time` — which
    keeps :meth:`cancel` O(1).  When dead entries outnumber the live ones
    (beyond a small floor) the whole heap is compacted in one pass so a
    cancel-heavy workload cannot grow the heap without bound.
    """

    #: Compaction trigger: rebuild once at least this many dead entries
    #: accumulate *and* they outnumber the live entries.
    COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        self._heap: list = []
        self._next_seq = 0
        self._live = 0
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL_PRIORITY,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, priority, seq, callback, args)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def _prune_head(self) -> None:
        """Drop dead (cancelled) entries from the heap top.

        The one compaction path: :meth:`pop` and :meth:`peek_time` both
        perform this prune (inlined in the first), so the heap head is
        always a live entry afterwards and ``len(self)`` never drifts from
        the live count.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._dead -= 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None when empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:  # inline _prune_head
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        self._live -= 1
        return heapq.heappop(heap)[3]

    def peek_time(self) -> Optional[float]:
        """Return the fire time of the next live event without popping it."""
        self._prune_head()
        if not self._heap:
            return None
        return self._heap[0][0]

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (no-op if already cancelled)."""
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1
            self._dead += 1
            if self._dead >= self.COMPACT_MIN_DEAD and self._dead > self._live:
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its dead entries (one O(n) pass).

        In place (slice assignment) so callers holding a reference to the
        heap list — the simulator's run loop — stay valid.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0

    def check_integrity(self) -> dict:
        """Audit the live/dead bookkeeping against an O(n) heap scan.

        The run loop and cancel path maintain ``_live``/``_dead``
        incrementally; any drift between those counters and the actual
        heap contents means events were lost or double-counted.  Returns
        a dict with ``ok`` plus the counter and scanned values (the run
        manifest embeds it and the invariant checker asserts ``ok``).
        """
        scanned_live = sum(1 for entry in self._heap if not entry[3].cancelled)
        scanned_dead = len(self._heap) - scanned_live
        return {
            "ok": scanned_live == self._live and scanned_dead == self._dead,
            "live": self._live,
            "dead": self._dead,
            "scanned_live": scanned_live,
            "scanned_dead": scanned_dead,
        }

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
        self._dead = 0
