"""Event primitives for the discrete-event simulation kernel.

The kernel is a classic calendar queue built on :mod:`heapq`.  A scheduled
event is one plain list, its heap entry::

    [time, priority, seq, callback, args]

Entries are ordered by ``(time, priority, seq)`` so that simultaneous
events run in a deterministic order: first by explicit priority, then by
insertion order.  Determinism matters here because experiments must be
exactly reproducible from a seed.

The entry is also the event's cancel handle.  Cancelling an event, and
firing it, set its ``callback`` slot to None, so the queue drops a
cancelled entry when it surfaces and a late cancel of a fired event is a
no-op.

Performance note: one list per event is the cheapest object Python can
build and the heap can order.  ``seq`` is unique, so list comparison never
reaches the callback slot and every sift comparison stays in C instead of
dispatching to a Python-level ``__lt__``.  Experiments schedule tens of
millions of events, which makes this the hottest allocation and comparison
site of the whole testbed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

__all__ = [
    "ARGS",
    "CALLBACK",
    "Event",
    "EventQueue",
    "HIGH_PRIORITY",
    "LOW_PRIORITY",
    "NORMAL_PRIORITY",
    "PRIORITY",
    "SEQ",
    "TIME",
]

HIGH_PRIORITY = 0
NORMAL_PRIORITY = 10
LOW_PRIORITY = 20

#: A scheduled event: the heap entry ``[time, priority, seq, callback, args]``.
#: ``callback`` is None once the event was cancelled or fired.
Event = List[Any]

#: Slot indices of an :data:`Event`.
TIME, PRIORITY, SEQ, CALLBACK, ARGS = range(5)


class EventQueue:
    """A deterministic priority queue of :data:`Event` entries.

    Cancellation is lazy: cancelled entries stay in the heap (as dead
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
        self._heap: List[Event] = []
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
        entry = [time, priority, seq, callback, args]
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def _prune_head(self) -> None:
        """Drop dead (cancelled) entries from the heap top.

        The one compaction path: :meth:`pop` and :meth:`peek_time` both
        perform this prune (inlined in the first), so the heap head is
        always a live entry afterwards and ``len(self)`` never drifts from
        the live count.
        """
        heap = self._heap
        while heap and heap[0][CALLBACK] is None:
            heapq.heappop(heap)
            self._dead -= 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live entry, or None when empty.

        The entry keeps its callback: the caller fires it and clears the
        slot (see :meth:`Simulator.step`).
        """
        heap = self._heap
        while heap and heap[0][CALLBACK] is None:  # inline _prune_head
            heapq.heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        self._live -= 1
        return heapq.heappop(heap)

    def peek_time(self) -> Optional[float]:
        """Return the fire time of the next live event without popping it."""
        self._prune_head()
        if not self._heap:
            return None
        return self._heap[0][TIME]

    def cancel(self, event: Event) -> None:
        """Cancel a pushed event (no-op if already cancelled or fired)."""
        if event[CALLBACK] is not None:
            event[CALLBACK] = None
            self._live -= 1
            self._dead += 1
            if self._dead >= self.COMPACT_MIN_DEAD and self._dead > self._live:
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its dead entries (one O(n) pass).

        In place (slice assignment) so callers holding a reference to the
        heap list — the simulator's run loop — stay valid.
        """
        self._heap[:] = [entry for entry in self._heap if entry[CALLBACK] is not None]
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
        scanned_live = sum(1 for entry in self._heap if entry[CALLBACK] is not None)
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
