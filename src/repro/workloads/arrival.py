"""Arrival processes driving records into the producer.

The paper's experiments use two source disciplines:

* **Full load** (δ = 0): the producer acquires source data "in the highest
  speed that I/O devices can handle".  Real fully-loaded readers are
  bursty (page-cache misses, upstream batching, GC pauses), which is what
  makes the delivery-timeout knee of Fig. 5 possible — we model an on/off
  source whose *on* phases read at the peak I/O rate.
* **Polled** (δ > 0): one record is acquired every δ seconds, so the
  arrival rate is λ = 1/δ (Section IV-C).

Both stop after emitting a fixed number of records and then call the
producer's ``finish_input``.

Uniform draws are written ``lo + (hi - lo) * rng.random()`` rather than
``rng.uniform(lo, hi)``: numpy computes ``uniform`` as exactly that
expression, so the values are bit-for-bit the same (a unit test pins the
identity for every ``(lo, hi)`` used here) at a fraction of the call cost.
"""

from __future__ import annotations

from ..kafka.config import SOURCE_BURST_OFF_S, SOURCE_BURST_ON_S, full_load_rate
from ..kafka.message import ProducerRecord
from ..kafka.producer import KafkaProducer
from ..simulation.random import Rng
from ..simulation.simulator import Simulator

__all__ = ["SourceDriver", "FullLoadSource", "PolledSource", "ConstantRateSource"]


class SourceDriver:
    """Base class: emits ``count`` records into a producer, then finishes.

    Every record takes the next key of the simulation's one
    ``record_keys`` counter at :meth:`KafkaProducer.offer`, so the keys of
    a run are exactly ``range(n)`` for the ``n`` records its sources
    emitted; :attr:`emitted` is this source's share.
    """

    def __init__(
        self,
        sim: Simulator,
        producer: KafkaProducer,
        count: int,
        payload_bytes: int,
        rng: Rng,
    ) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        if payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        self._sim = sim
        self._producer = producer
        self._count = count
        # The sensitivity screen perturbs M to a float.
        self._payload_bytes = max(1, int(payload_bytes))
        self._rng = rng
        #: Records handed to the producer so far.
        self.emitted = 0

    def start(self) -> None:
        """Begin emitting records at simulated time now."""
        self._sim.schedule(0.0, self._emit)

    def _next_interval(self) -> float:
        """Time until the next record; subclasses define the process."""
        raise NotImplementedError

    def _offer(self) -> bool:
        """Offer one record; after the last, finish the input and return True."""
        self._producer.offer(ProducerRecord(self._payload_bytes))
        self.emitted += 1
        if self.emitted >= self._count:
            self._producer.finish_input()
            return True
        return False

    def _emit(self) -> None:
        if not self._offer():
            self._sim.schedule(self._next_interval(), self._emit)


class FullLoadSource(SourceDriver):
    """On/off bursty source reading at peak I/O rate during bursts.

    Parameters beyond :class:`SourceDriver`:

    waits_for_ack:
        Whether the producer's semantics processes broker responses; an
        acks-handling producer ingests slower at full load
        (``ACK_OVERHEAD_FACTOR``).
    """

    def __init__(
        self,
        sim: Simulator,
        producer: KafkaProducer,
        count: int,
        payload_bytes: int,
        rng: Rng,
        waits_for_ack: bool,
    ) -> None:
        super().__init__(sim, producer, count, payload_bytes, rng)
        self._peak_rate = full_load_rate(payload_bytes, waits_for_ack)
        self._burst_remaining = self._burst_length()

    def _burst_length(self) -> int:
        mean_messages = SOURCE_BURST_ON_S * self._peak_rate
        spread = 0.8 + (1.2 - 0.8) * self._rng.random()
        return max(1, int(round(spread * max(1.0, mean_messages))))

    def _next_interval(self) -> float:
        """The on/off burst process: time until the next record is read."""
        base = 1.0 / self._peak_rate
        self._burst_remaining -= 1
        if self._burst_remaining <= 0:
            self._burst_remaining = self._burst_length()
            off = SOURCE_BURST_OFF_S * (0.7 + (1.3 - 0.7) * self._rng.random())
            return base + off
        # Small jitter keeps packet-level effects from phase-locking.
        return base * (0.85 + (1.15 - 0.85) * self._rng.random())


class PolledSource(FullLoadSource):
    """Polling throttle: at most one record per interval δ (λ ≤ 1/δ).

    The upstream data is still produced by the full-load burst process; a
    poll that lands while no data is pending returns empty (the producer
    sleeps another δ).  Data pending but not yet polled accumulates
    upstream, so polling *smooths* bursts at the price of added latency —
    precisely the trade the paper's Section IV-C describes.

    Parameters beyond :class:`SourceDriver`:

    polling_interval_s:
        δ; must be positive (δ = 0 is :class:`FullLoadSource`).
    """

    def __init__(
        self,
        sim: Simulator,
        producer: KafkaProducer,
        count: int,
        payload_bytes: int,
        rng: Rng,
        polling_interval_s: float,
    ) -> None:
        if polling_interval_s <= 0:
            raise ValueError(
                "polling_interval_s must be positive; use FullLoadSource for δ=0"
            )
        # Polling producers spend their idle time sleeping, not handling
        # acks, so the upstream peak rate is the raw I/O rate.
        super().__init__(sim, producer, count, payload_bytes, rng, False)
        self._delta = polling_interval_s
        self._pending = 0
        self._generated = 0

    def start(self) -> None:
        self._sim.schedule(0.0, self._generate)
        self._sim.schedule(self._delta, self._poll)

    def _generate(self) -> None:
        """Upstream burst process filling the pending-data buffer."""
        if self._generated >= self._count:
            return
        self._generated += 1
        self._pending += 1
        self._sim.schedule(self._next_interval(), self._generate)

    def _poll(self) -> None:
        """The producer's δ-periodic acquisition call."""
        if self._pending > 0:
            self._pending -= 1
            if self._offer():
                return
        self._sim.schedule(self._delta, self._poll)


class ConstantRateSource(SourceDriver):
    """Deterministic arrivals at a fixed rate (messages/second)."""

    def __init__(
        self,
        sim: Simulator,
        producer: KafkaProducer,
        count: int,
        payload_bytes: int,
        rng: Rng,
        rate: float,
    ) -> None:
        super().__init__(sim, producer, count, payload_bytes, rng)
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._interval = 1.0 / rate

    def _next_interval(self) -> float:
        return self._interval
