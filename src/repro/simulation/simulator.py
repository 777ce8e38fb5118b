"""The discrete-event simulator clock and run loop.

A :class:`Simulator` owns an :class:`~repro.simulation.events.EventQueue`
and a virtual clock.  Components schedule callbacks relative to *now* with
:meth:`Simulator.schedule` or at absolute times with
:meth:`Simulator.schedule_at`.  Time only advances when :meth:`run` pops
events, so a run is exactly reproducible given the same seed and schedule.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .events import ARGS, CALLBACK, NORMAL_PRIORITY, TIME, Event, EventQueue

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, bad run bounds)."""


class Simulator:
    """Discrete-event simulation kernel.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (1.5, ['hello'])
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current virtual time in seconds.  A plain attribute rather than a
        #: property because components read it on nearly every event; only
        #: the kernel writes it.
        self.now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
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
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL_PRIORITY,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        # EventQueue.push inlined: this is the kernel's hottest call site.
        time = self.now + delay
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        entry = [time, priority, seq, callback, args]
        heappush(queue._heap, entry)
        queue._live += 1
        return entry

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL_PRIORITY,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        entry = [time, priority, seq, callback, args]
        heappush(queue._heap, entry)
        queue._live += 1
        return entry

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (no-op once it was cancelled or fired)."""
        self._queue.cancel(event)

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
        if interval <= 0:
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

    def step(self) -> bool:
        """Advance the clock to the next event and fire it.

        Returns False when the queue is empty (nothing fired).
        """
        entry = self._queue.pop()
        if entry is None:
            return False
        if entry[TIME] < self.now:
            raise SimulationError("event queue returned an event in the past")
        self.now = entry[TIME]
        # The entry is off the heap; clear its callback so a later cancel()
        # (e.g. a component clearing a timer that already fired) is a no-op
        # instead of corrupting the queue's live/dead accounting.
        callback = entry[CALLBACK]
        entry[CALLBACK] = None
        callback(*entry[ARGS])
        self.events_processed += 1
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or stop().

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
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is before now={self.now}")
        horizon = until if until is not None else math.inf
        limit = max_events if max_events is not None else math.inf
        self._stopped = False
        self._running = True
        processed = 0
        # Hot loop: operates on the queue's heap directly so each event
        # costs one C-level heappop and no method call.  EventQueue
        # guarantees the list identity survives cancel/compact/clear (all
        # mutate in place), so the local binding stays valid across
        # callbacks.  Entries are unique by ``seq``, so popping an entry
        # beyond ``until`` and pushing it back leaves the event order as it
        # was.  Scheduling rejects past times, so the clock never runs back.
        # Slots are indexed literally (0 = TIME, 3 = CALLBACK, 4 = ARGS) to
        # spare a global lookup per event.
        queue = self._queue
        heap = queue._heap
        try:
            while heap and not self._stopped and processed < limit:
                entry = heappop(heap)
                callback = entry[3]
                if callback is None:
                    queue._dead -= 1
                    continue
                time = entry[0]
                if time > horizon:
                    heappush(heap, entry)
                    break
                queue._live -= 1
                self.now = time
                # Off the heap: a late cancel() of this event must be a
                # no-op, not a live/dead counter update (see step()).
                entry[3] = None
                callback(*entry[4])
                processed += 1
        finally:
            self._running = False
            # Lifetime counter maintained outside the hot loop: one add per
            # run() call, so telemetry costs nothing per event.
            self.events_processed += processed
        if until is not None and not self._stopped and self.now < until:
            self.now = until
        return processed

    def stop(self) -> None:
        """Request the current :meth:`run` loop to exit after this event."""
        self._stopped = True

    def heap_integrity(self) -> dict:
        """Audit the event queue's live/dead bookkeeping (O(pending)).

        Run manifests embed the result; the invariant checker asserts its
        ``ok`` flag, catching any drift between the queue's incremental
        counters and the actual heap contents ("heap ``len`` never
        drifts").
        """
        return self._queue.check_integrity()

    def reset(self, start_time: float = 0.0) -> None:
        """Drop all pending events and rewind the clock."""
        self._queue.clear()
        self.now = float(start_time)
        self._stopped = False
        self.events_processed = 0
