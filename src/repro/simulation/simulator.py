"""The discrete-event simulator: a virtual clock and its event heap.

Components schedule callbacks relative to *now* with
:meth:`Simulator.schedule` or at absolute times with
:meth:`Simulator.schedule_at`.  Time only advances when :meth:`run` pops
events, so a run is exactly reproducible given the same seed and schedule.

A scheduled event is one plain list, its heap entry::

    [time, seq, callback, args]

Entries are ordered by ``(time, seq)``: simultaneous events run in the
order they were scheduled.  The entry is also the event's cancel handle.
Cancelling an event, and firing it, set its ``callback`` slot to None, so
the run loop drops a cancelled entry when it surfaces and a late cancel of
a fired event is a no-op.

Performance note: one list per event is the cheapest object Python can
build and the heap can order.  ``seq`` is unique, so list comparison never
reaches the callback slot and every sift comparison stays in C instead of
dispatching to a Python-level ``__lt__``.  Experiments schedule tens of
millions of events, which makes this the hottest allocation and comparison
site of the whole testbed.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

__all__ = ["Event", "Simulator", "SimulationError"]

#: A scheduled event: the heap entry ``[time, seq, callback, args]``.
#: ``callback`` is None once the event was cancelled or fired.
Event = List[Any]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, bad run bounds)."""


class Simulator:
    """Discrete-event simulation kernel.

    Cancellation is lazy: a cancelled entry stays in the heap (as a dead
    entry) until it surfaces in :meth:`run`, which keeps :meth:`cancel`
    O(1).  When dead entries outnumber the live ones (beyond a small
    floor) the whole heap is compacted in one pass, so a cancel-heavy
    workload cannot grow the heap without bound.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    1
    >>> (sim.now, fired)
    (1.5, ['hello'])
    """

    #: Compaction trigger: rebuild once at least this many dead entries
    #: accumulate *and* they outnumber the live entries.
    COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        #: Current virtual time in seconds.  A plain attribute rather than a
        #: property because components read it on nearly every event; only
        #: the kernel writes it.
        self.now = 0.0
        self._heap: List[Event] = []
        self._next_seq = 0
        self._live = 0
        self._dead = 0
        self.events_processed = 0
        #: Per-run id sequences, both from 0: the unique record keys a
        #: producer stamps at ingest and the transport's message ids.  Being
        #: per simulator, they make routing and trace digests a pure
        #: function of the run.
        self.record_keys = itertools.count()
        self.message_ids = itertools.count()

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still scheduled."""
        return self._live

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        # Written as ``not >=`` so NaN is rejected too.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [self.now + delay, seq, callback, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [time, seq, callback, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (no-op once it was cancelled or fired)."""
        if event[2] is not None:
            event[2] = None
            self._live -= 1
            self._dead += 1
            if self._dead >= self.COMPACT_MIN_DEAD and self._dead > self._live:
                # In place (slice assignment), so the run loop's local
                # binding of the heap stays valid.
                heap = self._heap
                heap[:] = [entry for entry in heap if entry[2] is not None]
                heapify(heap)
                self._dead = 0

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: Optional[float] = None,
    ) -> Callable[[], None]:
        """Run ``callback`` every ``interval`` seconds until cancelled.

        Returns a zero-argument function that stops the recurrence.
        """
        if not interval > 0:
            raise SimulationError("interval must be positive")
        state = {"event": None, "stopped": False}

        def tick() -> None:
            if state["stopped"]:
                return
            callback(*args)
            if not state["stopped"]:
                state["event"] = self.schedule(interval, tick)

        state["event"] = self.schedule(
            interval if start_delay is None else start_delay, tick
        )

        def stop() -> None:
            state["stopped"] = True
            if state["event"] is not None:
                self.cancel(state["event"])

        return stop

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the heap drains or ``until`` is reached.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire after this time and
            fast-forward the clock exactly to ``until``.
        max_events:
            Optional safety valve on the number of events processed.

        Returns
        -------
        int
            The number of events processed.
        """
        if until is not None and not until >= self.now:
            raise SimulationError(f"until={until} is before now={self.now}")
        horizon = until if until is not None else math.inf
        limit = max_events if max_events is not None else math.inf
        processed = 0
        # Hot loop: each event costs one C-level heappop and no method
        # call.  cancel() compacts the heap in place, so the local binding
        # stays valid across callbacks.  Entries are unique by ``seq``, so
        # popping an entry beyond ``until`` and pushing it back leaves the
        # event order as it was.  Scheduling rejects past times, so the
        # clock never runs back.
        heap = self._heap
        try:
            while heap and processed < limit:
                entry = heappop(heap)
                callback = entry[2]
                if callback is None:
                    self._dead -= 1
                    continue
                time = entry[0]
                if time > horizon:
                    heappush(heap, entry)
                    break
                self._live -= 1
                self.now = time
                # Off the heap: a late cancel() of this event must be a
                # no-op, not a live/dead counter update.
                entry[2] = None
                callback(*entry[3])
                processed += 1
        finally:
            # Lifetime counter maintained outside the hot loop: one add per
            # run() call, so telemetry costs nothing per event.
            self.events_processed += processed
        if until is not None and self.now < until:
            self.now = until
        return processed

    def heap_integrity(self) -> dict:
        """Audit the live/dead bookkeeping against an O(pending) heap scan.

        The schedule, cancel and run paths maintain ``_live``/``_dead``
        incrementally; any drift between those counters and the heap
        contents means events were lost or double-counted.  Run manifests
        embed the result and the invariant checker asserts its ``ok`` flag
        ("heap ``len`` never drifts").
        """
        scanned_live = sum(1 for entry in self._heap if entry[2] is not None)
        scanned_dead = len(self._heap) - scanned_live
        return {
            "ok": scanned_live == self._live and scanned_dead == self._dead,
            "live": self._live,
            "dead": self._dead,
            "scanned_live": scanned_live,
            "scanned_dead": scanned_dead,
        }
