"""Producer records and their testbed instrumentation.

The paper's testbed generates source data as messages with an incremental
unique key and a payload of definable length; the content is irrelevant
(Section III-E).  :class:`ProducerRecord` mirrors that: we carry the sizes
and timestamps the simulation needs, never actual payload bytes.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ProducerRecord"]


class ProducerRecord:
    """A message handed to the producer by an upstream application.

    A plain ``__slots__`` class: one is built per source message, and its
    fields are read on every hop of the producer's batch path.  Records are
    compared by identity (the unique ``key`` names a message).

    Attributes
    ----------
    payload_bytes:
        Message size ``M`` in bytes (the payload string length).
    key:
        Incremental unique key used for loss/duplicate reconciliation;
        when not given, :meth:`KafkaProducer.offer` stamps the next key of
        its simulation's sequence.
    ingest_time:
        Simulated time the producer polled it in; the delivery-timeout and
        staleness clocks start here (the paper's "arrives to the producer").
        ``None`` until :meth:`KafkaProducer.offer` accepts the record.
    """

    __slots__ = ("payload_bytes", "key", "ingest_time")

    def __init__(self, payload_bytes: int, key: Optional[int] = None) -> None:
        if payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if key is not None and key < 0:
            # Keys index the testbed's per-message arrays, where a negative
            # index would silently alias a slot at the end.
            raise ValueError("key must be non-negative")
        self.payload_bytes = payload_bytes
        # None only until a producer stamps the record at ``offer``.
        self.key: int = key  # type: ignore[assignment]
        self.ingest_time: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProducerRecord(key={self.key}, payload_bytes={self.payload_bytes}, "
            f"ingest_time={self.ingest_time})"
        )
