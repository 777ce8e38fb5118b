"""Queueing primitives built on the event kernel.

:class:`FifoStore` is an unbounded (or bounded) FIFO buffer with
signal-based blocking gets — the building block for producer queues and
broker request queues.  :class:`TokenBucket` models bounded in-flight
windows (e.g. ``max.in.flight.requests.per.connection``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .process import Signal
from .simulator import Simulator

__all__ = ["FifoStore", "TokenBucket", "StoreFull"]


class StoreFull(RuntimeError):
    """Raised when putting into a bounded :class:`FifoStore` at capacity."""


class FifoStore:
    """FIFO buffer with blocking ``get`` semantics for processes.

    ``put`` is immediate (raises :class:`StoreFull` when bounded and full);
    ``get`` returns a :class:`Signal` that triggers with the next item.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Maximum number of buffered items; ``None`` means unbounded.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self._sim = sim
        self._capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def capacity(self) -> Optional[int]:
        """Maximum buffered items, or None when unbounded."""
        return self._capacity

    @property
    def is_full(self) -> bool:
        """True when a bounded store holds ``capacity`` items."""
        return self._capacity is not None and len(self._items) >= self._capacity

    def try_put(self, item: Any) -> bool:
        """Put ``item`` if there is room; return whether it was stored."""
        if self.is_full:
            return False
        if self._getters:
            # Hand the item straight to the earliest waiting getter.
            self._getters.popleft().trigger(item)
            return True
        self._items.append(item)
        return True

    def put(self, item: Any) -> None:
        """Put ``item``, raising :class:`StoreFull` when at capacity."""
        if not self.try_put(item):
            raise StoreFull("store is at capacity")

    def get(self) -> Signal:
        """Return a signal that triggers with the next item in FIFO order."""
        signal = Signal(self._sim, name="store.get")
        if self._items:
            signal.trigger(self._items.popleft())
        else:
            self._getters.append(signal)
        return signal

    def drain(self) -> list:
        """Remove and return all buffered items immediately."""
        items = list(self._items)
        self._items.clear()
        return items


class TokenBucket:
    """A counted semaphore for bounding concurrent in-flight operations.

    ``acquire`` returns a signal that triggers once a token is available;
    ``release`` returns a token and resumes the earliest waiter.
    """

    def __init__(self, sim: Simulator, tokens: int) -> None:
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        self._sim = sim
        self._available = tokens
        self._total = tokens
        self._waiters: Deque[Signal] = deque()
        # Every immediate grant returns this one already-triggered signal:
        # a triggered signal carries no per-acquire state, and most callers
        # (the producer) never wait on it.
        self._granted = Signal(sim, name="bucket.acquire")
        self._granted.trigger(None)

    @property
    def available(self) -> int:
        """Tokens currently free."""
        return self._available

    @property
    def in_use(self) -> int:
        """Tokens currently held."""
        return self._total - self._available

    def acquire(self) -> Signal:
        """Return a signal triggered when a token has been granted."""
        if self._available > 0:
            self._available -= 1
            return self._granted
        signal = Signal(self._sim, name="bucket.acquire")
        self._waiters.append(signal)
        return signal

    def release(self) -> None:
        """Return a token; resumes the earliest waiter if any."""
        if self._waiters:
            self._waiters.popleft().trigger(None)
            return
        if self._available >= self._total:
            raise RuntimeError("release without matching acquire")
        self._available += 1
