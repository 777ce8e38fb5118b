"""Broker nodes: produce-request handling and log appends.

A broker serialises request processing the way a real Kafka broker's
request handler threads + log appends do: each request costs a fixed
processing time plus size-proportional append time, queued FIFO.  Brokers
can be crashed and restored by the fault injector (the paper's future-work
failure mode); a crashed broker silently drops requests, which the
producer experiences as a request timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..observability.trace import EventKind
from ..simulation.simulator import Simulator
from .config import BrokerConfig
from .message import ProducerRecord
from .partition import Partition

__all__ = ["ProduceRequest", "ProduceResponse", "Broker"]


class ProduceRequest:
    """A batch of records bound for one partition.

    A plain ``__slots__`` class: the producer builds one per send attempt.

    Attributes
    ----------
    request_id:
        Id, unique per producer, that the response refers back to.
    records:
        The batched producer records, in send order.
    partition:
        Destination partition (leader routing happens at the cluster).
    require_acks:
        Whether the broker must send a :class:`ProduceResponse`.
    producer_id / base_sequence:
        Idempotent-producer identity; ``None`` for non-idempotent sends.
    wire_bytes:
        Total request size on the wire (payloads + protocol overhead).
    attempt:
        Application-level retry attempt (0 = first send).
    """

    __slots__ = (
        "records",
        "partition",
        "require_acks",
        "wire_bytes",
        "producer_id",
        "base_sequence",
        "attempt",
        "request_id",
    )

    def __init__(
        self,
        request_id: int,
        records: List[ProducerRecord],
        partition: Partition,
        require_acks: bool,
        wire_bytes: int,
        producer_id: Optional[int] = None,
        base_sequence: Optional[int] = None,
        attempt: int = 0,
    ) -> None:
        if not records:
            raise ValueError("a produce request needs at least one record")
        if wire_bytes <= 0:
            raise ValueError("wire_bytes must be positive")
        self.records = records
        self.partition = partition
        self.require_acks = require_acks
        self.wire_bytes = wire_bytes
        self.producer_id = producer_id
        self.base_sequence = base_sequence
        self.attempt = attempt
        self.request_id = request_id

    @property
    def payload_bytes(self) -> int:
        """Application payload bytes across the batch."""
        return sum(record.payload_bytes for record in self.records)


@dataclass
class ProduceResponse:
    """Broker acknowledgement for one produce request."""

    request_id: int
    partition_name: str
    base_offset: Optional[int]
    timestamp: float
    appended: int


class Broker:
    """A single broker node.

    Parameters
    ----------
    sim:
        Shared simulator.
    broker_id:
        Stable identifier, e.g. ``"broker-0"``.
    config:
        Timing and replication parameters.
    """

    def __init__(self, sim: Simulator, broker_id: str, config: Optional[BrokerConfig] = None) -> None:
        self._sim = sim
        self.broker_id = broker_id
        self.config = config if config is not None else BrokerConfig()
        self.available = True
        self._busy_until = 0.0
        self.requests_handled = 0
        self.requests_dropped = 0
        self._append_listeners: List[Callable[[ProducerRecord, Partition, int], None]] = []
        self._tracer = None
        self._metrics = None

    def attach_telemetry(self, telemetry) -> None:
        """Attach run telemetry after construction (the cluster builds us)."""
        self._tracer = telemetry.tracer
        self._metrics = telemetry.metrics

    def add_append_listener(
        self, callback: Callable[[ProducerRecord, Partition, int], None]
    ) -> None:
        """Register ``callback(record, partition, offset)`` per append."""
        self._append_listeners.append(callback)

    def service_time(self, request: ProduceRequest) -> float:
        """Processing + append latency for ``request``."""
        time = self.config.processing_time_s
        time += request.payload_bytes / self.config.append_bytes_per_s
        if request.require_acks and self.config.replication_factor > 1:
            time += self.config.acks_all_extra_s
        return time

    def handle_produce(
        self,
        request: ProduceRequest,
        on_done: Optional[Callable[[ProduceResponse], None]] = None,
    ) -> None:
        """Accept ``request``; when processed, append and invoke ``on_done``.

        A crashed broker drops the request silently (the producer sees a
        timeout, exactly like a dead TCP peer).
        """
        if not self.available:
            self.requests_dropped += 1
            self._record_drop(request, phase="queued")
            return
        now = self._sim.now
        finish = max(now, self._busy_until) + self.service_time(request)
        self._busy_until = finish
        self._sim.schedule_at(finish, self._complete, request, on_done)

    def _complete(
        self,
        request: ProduceRequest,
        on_done: Optional[Callable[[ProduceResponse], None]],
    ) -> None:
        if not self.available:
            # Crashed while the request was being processed.
            self.requests_dropped += 1
            self._record_drop(request, phase="processing")
            return
        self.requests_handled += 1
        now = self._sim.now
        partition = request.partition
        producer_id = request.producer_id
        base_sequence = request.base_sequence
        base_offset: Optional[int] = None
        appended = 0
        for position, record in enumerate(request.records):
            sequence = base_sequence + position if base_sequence is not None else None
            offset = partition.append(
                record.key, record.payload_bytes, now, producer_id, sequence
            )
            if offset is None:
                continue  # idempotence fencing discarded a duplicate
            appended += 1
            if base_offset is None:
                base_offset = offset
            if self._tracer is not None:
                self._tracer.emit(
                    EventKind.APPEND,
                    now,
                    key=record.key,
                    broker=self.broker_id,
                    offset=offset,
                )
            if self._metrics is not None:
                self._metrics.counter("broker.appends").inc()
            for listener in self._append_listeners:
                listener(record, partition, offset)
        if on_done is not None:
            on_done(
                ProduceResponse(
                    request.request_id, partition.name, base_offset, now, appended
                )
            )

    def _record_drop(self, request: ProduceRequest, phase: str) -> None:
        """Telemetry for a silent drop by a crashed broker."""
        if self._metrics is not None:
            self._metrics.counter("broker.requests_dropped").inc()
        if self._tracer is not None:
            self._tracer.emit(
                EventKind.BROKER_DROP,
                self._sim.now,
                broker=self.broker_id,
                phase=phase,
                records=len(request.records),
            )

    def crash(self) -> None:
        """Take the broker down; queued and future requests are dropped."""
        self.available = False

    def restore(self) -> None:
        """Bring the broker back up."""
        self.available = True
        self._busy_until = self._sim.now
