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

from array import array
from typing import Callable, Optional

from ..kafka.config import HardwareProfile
from ..kafka.message import ProducerRecord
from ..kafka.producer import KafkaProducer
from ..simulation.random import Rng
from ..simulation.simulator import Simulator

__all__ = ["SourceDriver", "FullLoadSource", "PolledSource", "ConstantRateSource", "PoissonSource"]


class SourceDriver:
    """Base class: emits ``count`` records into a producer, then finishes."""

    def __init__(
        self,
        sim: Simulator,
        producer: KafkaProducer,
        count: int,
        payload_bytes: int,
        rng: Rng,
        topic: str = "events",
        timeliness_s: Optional[float] = None,
        payload_sampler: Optional[Callable[[Rng], int]] = None,
    ) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        if payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        self._sim = sim
        self._producer = producer
        self._count = count
        self._payload_bytes = payload_bytes
        self._rng = rng
        self._topic = topic
        self._timeliness_s = timeliness_s
        self._payload_sampler = payload_sampler
        self._emitted = 0
        #: Keys of the emitted records, in emission order.
        self.keys = array("q")

    def start(self) -> None:
        """Begin emitting records at simulated time now."""
        self._sim.schedule(0.0, self._emit)

    def _next_interval(self) -> float:
        """Time until the next record; subclasses define the process."""
        raise NotImplementedError

    def _emit(self) -> None:
        if self._emitted >= self._count:
            self._producer.finish_input()
            return
        size = (
            self._payload_sampler(self._rng)
            if self._payload_sampler is not None
            else self._payload_bytes
        )
        record = ProducerRecord(
            payload_bytes=max(1, int(size)),
            topic=self._topic,
            source_time=self._sim.now,
            timeliness_s=self._timeliness_s,
        )
        self._producer.offer(record)
        self.keys.append(record.key)
        self._emitted += 1
        if self._emitted >= self._count:
            self._producer.finish_input()
            return
        self._sim.schedule(self._next_interval(), self._emit)


class FullLoadSource(SourceDriver):
    """On/off bursty source reading at peak I/O rate during bursts.

    Parameters beyond :class:`SourceDriver`:

    waits_for_ack:
        Whether the producer's semantics processes broker responses; an
        acks-handling producer ingests slower at full load (the
        ``ack_overhead_factor`` of the hardware profile).
    """

    def __init__(
        self,
        sim: Simulator,
        producer: KafkaProducer,
        count: int,
        payload_bytes: int,
        rng: Rng,
        hardware: HardwareProfile,
        waits_for_ack: bool,
        **kwargs,
    ) -> None:
        super().__init__(sim, producer, count, payload_bytes, rng, **kwargs)
        self._hardware = hardware
        self._peak_rate = hardware.full_load_rate(payload_bytes, waits_for_ack)
        self._burst_remaining = self._burst_length()

    def _burst_length(self) -> int:
        mean_messages = self._hardware.source_burst_on_s * self._peak_rate
        spread = 0.8 + (1.2 - 0.8) * self._rng.random()
        length = int(round(spread * max(1.0, mean_messages)))
        return max(1, length)

    def _next_interval(self) -> float:
        base = 1.0 / self._peak_rate
        self._burst_remaining -= 1
        if self._burst_remaining <= 0:
            self._burst_remaining = self._burst_length()
            off = self._hardware.source_burst_off_s * (0.7 + (1.3 - 0.7) * self._rng.random())
            return base + off
        # Small jitter keeps packet-level effects from phase-locking.
        return base * (0.85 + (1.15 - 0.85) * self._rng.random())


class PolledSource(SourceDriver):
    """Polling throttle: at most one record per interval δ (λ ≤ 1/δ).

    The upstream data is still produced by the bursty source process; a
    poll that lands while no data is pending returns empty (the producer
    sleeps another δ).  Data pending but not yet polled accumulates
    upstream, so polling *smooths* bursts at the price of added latency —
    precisely the trade the paper's Section IV-C describes.

    Parameters beyond :class:`SourceDriver`:

    polling_interval_s:
        δ; must be positive (δ = 0 is :class:`FullLoadSource`).
    hardware:
        Used for the upstream burst pattern and peak rate.
    """

    def __init__(
        self,
        sim: Simulator,
        producer: KafkaProducer,
        count: int,
        payload_bytes: int,
        rng: Rng,
        polling_interval_s: float,
        hardware: Optional[HardwareProfile] = None,
        **kwargs,
    ) -> None:
        super().__init__(sim, producer, count, payload_bytes, rng, **kwargs)
        if polling_interval_s <= 0:
            raise ValueError(
                "polling_interval_s must be positive; use FullLoadSource for δ=0"
            )
        self._delta = polling_interval_s
        self._hardware = hardware if hardware is not None else HardwareProfile()
        # Polling producers spend their idle time sleeping, not handling
        # acks, so the upstream peak rate is the raw I/O rate.
        self._peak_rate = self._hardware.full_load_rate(payload_bytes, False)
        self._pending = 0
        self._generated = 0
        self._burst_remaining = self._upstream_burst_length()

    def _upstream_burst_length(self) -> int:
        mean_messages = self._hardware.source_burst_on_s * self._peak_rate
        spread = 0.8 + (1.2 - 0.8) * self._rng.random()
        return max(1, int(round(spread * max(1.0, mean_messages))))

    def start(self) -> None:
        self._sim.schedule(0.0, self._generate)
        self._sim.schedule(self._delta, self._poll)

    def _generate(self) -> None:
        """Upstream burst process filling the pending-data buffer."""
        if self._generated >= self._count:
            return
        self._generated += 1
        self._pending += 1
        base = 1.0 / self._peak_rate
        self._burst_remaining -= 1
        if self._burst_remaining <= 0:
            self._burst_remaining = self._upstream_burst_length()
            base += self._hardware.source_burst_off_s * (0.7 + (1.3 - 0.7) * self._rng.random())
        else:
            base *= 0.85 + (1.15 - 0.85) * self._rng.random()
        self._sim.schedule(base, self._generate)

    def _poll(self) -> None:
        """The producer's δ-periodic acquisition call."""
        if self._emitted >= self._count:
            return
        if self._pending > 0:
            self._pending -= 1
            size = (
                self._payload_sampler(self._rng)
                if self._payload_sampler is not None
                else self._payload_bytes
            )
            record = ProducerRecord(
                payload_bytes=max(1, int(size)),
                topic=self._topic,
                source_time=self._sim.now,
                timeliness_s=self._timeliness_s,
            )
            self._producer.offer(record)
            self.keys.append(record.key)
            self._emitted += 1
            if self._emitted >= self._count:
                self._producer.finish_input()
                return
        self._sim.schedule(self._delta, self._poll)

    def _next_interval(self) -> float:  # pragma: no cover - unused override
        return self._delta


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
        **kwargs,
    ) -> None:
        super().__init__(sim, producer, count, payload_bytes, rng, **kwargs)
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._interval = 1.0 / rate

    def _next_interval(self) -> float:
        return self._interval


class PoissonSource(SourceDriver):
    """Memoryless arrivals at a mean rate (messages/second)."""

    def __init__(
        self,
        sim: Simulator,
        producer: KafkaProducer,
        count: int,
        payload_bytes: int,
        rng: Rng,
        rate: float,
        **kwargs,
    ) -> None:
        super().__init__(sim, producer, count, payload_bytes, rng, **kwargs)
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._rate = rate

    def _next_interval(self) -> float:
        return float(self._rng.exponential(1.0 / self._rate))
