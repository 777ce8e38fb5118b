"""Host-speed-calibrated timing.

The small VMs this benchmark runs on change speed by up to 1.8x from one
second to the next (a noisy neighbour on each vCPU's physical core), so
raw wall times of one run can differ from the next by 20-30 %.
:class:`HostClock` runs a fixed calibration kernel — a miniature
discrete-event simulation in plain Python, with the same heap, object and
callback traffic as the program's simulator, so it slows down the same
way — right before each timed segment, and scales the segment's wall time
by ``REFERENCE_KERNEL_S / kernel time``.  The result is in *reference
seconds*: wall seconds on a host where the kernel takes
:data:`REFERENCE_KERNEL_S`.  Kernel runs are never inside a timed segment.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Any, List, Optional

#: Kernel time that defines one reference second (about its slow-mode
#: time on the 2-CPU VM the benchmark was tuned on; fast mode is ~8 ms).
REFERENCE_KERNEL_S = 0.015

#: Messages the kernel simulates; sets its length (~8-15 ms).
KERNEL_MESSAGES = 1500


class _Event:
    __slots__ = ("callback", "args", "dead")

    def __init__(self, callback: Any, args: tuple) -> None:
        self.callback = callback
        self.args = args
        self.dead = False


class _KernelSim:
    """Send, time out and retransmit messages over a lossy link (deterministic)."""

    def __init__(self) -> None:
        self.heap: List[tuple] = []
        self.seq = 0
        self.now = 0.0
        self.state = 12345
        self.inflight: dict = {}
        self.delivered: List[tuple] = []

    def _random(self) -> float:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state / 0x7FFFFFFF

    def schedule(self, delay: float, callback: Any, *args: Any) -> _Event:
        event = _Event(callback, args)
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, event))
        return event

    def send(self, message: int) -> None:
        timer = self.schedule(0.3, self.on_timeout, message)
        self.inflight[message] = timer
        if self._random() > 0.1:
            self.schedule(0.01 + 0.01 * self._random(), self.on_ack, message)

    def on_ack(self, message: int) -> None:
        timer = self.inflight.pop(message, None)
        if timer is not None:
            timer.dead = True
            self.delivered.append((message, self.now))

    def on_timeout(self, message: int) -> None:
        if message in self.inflight:
            self.send(message)

    def run(self, messages: int) -> int:
        for message in range(messages):
            self.schedule(message * 0.001, self.send, message)
        heap = self.heap
        while heap:
            when, _, event = heapq.heappop(heap)
            if not event.dead:
                self.now = when
                event.callback(*event.args)
        return len(self.delivered)


def run_kernel() -> float:
    """Run the calibration kernel once; return its wall seconds.

    The garbage collector is off while it runs: a collection triggered by
    the kernel's allocations would sweep the program's objects and make
    the kernel read several times slower than the host is.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _KernelSim().run(KERNEL_MESSAGES)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Times consecutive segments of work in reference seconds.

    ``start()`` opens a segment, ``lap()`` closes it and opens the next,
    ``stop()`` closes it.  A kernel runs before and after every segment
    and the segment's factor uses the mean of the two, so a segment that
    spans a speed change gets a matching factor.  Each closing call
    returns the segment's reference seconds; ``total`` and ``raw_total``
    sum the closed segments in reference and wall seconds.
    """

    def __init__(self) -> None:
        self.kernel_s: List[float] = []
        self.total = 0.0
        self.raw_total = 0.0
        #: Reference seconds per wall second of the last closed segment.
        self.last_factor = 1.0
        self._before = 0.0
        self._started: Optional[float] = None

    def _kernel(self) -> float:
        kernel = run_kernel()
        self.kernel_s.append(kernel)
        return kernel

    def start(self) -> None:
        self._before = self._kernel()
        self._started = time.perf_counter()

    def _close(self, calibrate: bool) -> float:
        if self._started is None:
            return 0.0
        raw = time.perf_counter() - self._started
        self._started = None
        kernel = self._before
        if calibrate:
            after = self._kernel()
            kernel = (kernel + after) / 2.0
            self._before = after
        self.last_factor = REFERENCE_KERNEL_S / kernel
        self.raw_total += raw
        scaled = raw * self.last_factor
        self.total += scaled
        return scaled

    def stop(self) -> float:
        return self._close(calibrate=True)

    def lap(self, calibrate: bool = True) -> float:
        """Close the open segment and open the next one.

        With ``calibrate=False`` no kernel runs: the closed segment is
        scaled by the kernel run before it alone, and the next segment
        reuses that run as its own "before".
        """
        scaled = self._close(calibrate)
        self._started = time.perf_counter()
        return scaled
