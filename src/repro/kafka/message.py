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
    key:
        Incremental unique key used for loss/duplicate reconciliation;
        when not given, :meth:`KafkaProducer.offer` stamps the next key of
        its simulation's sequence.
    payload_bytes:
        Message size ``M`` in bytes (the payload string length).
    topic:
        Destination topic name.
    source_time:
        Simulated time the upstream application emitted the record.
    ingest_time:
        Simulated time the producer polled it in; the delivery-timeout and
        staleness clocks start here (the paper's "arrives to the producer").
    timeliness_s:
        Validity period ``S``: a delivery that completes more than this long
        after ``ingest_time`` is stale.  ``None`` disables staleness.
    """

    __slots__ = ("payload_bytes", "topic", "key", "source_time", "ingest_time", "timeliness_s")

    def __init__(
        self,
        payload_bytes: int,
        topic: str = "events",
        key: Optional[int] = None,
        source_time: float = 0.0,
        ingest_time: Optional[float] = None,
        timeliness_s: Optional[float] = None,
    ) -> None:
        if payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if key is not None and key < 0:
            # Keys index the testbed's per-message arrays, where a negative
            # index would silently alias a slot at the end.
            raise ValueError("key must be non-negative")
        if timeliness_s is not None and timeliness_s <= 0:
            raise ValueError("timeliness_s must be positive when given")
        self.payload_bytes = payload_bytes
        self.topic = topic
        # None only until a producer stamps the record at ``offer``.
        self.key: int = key  # type: ignore[assignment]
        self.source_time = source_time
        self.ingest_time = ingest_time
        self.timeliness_s = timeliness_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProducerRecord(key={self.key}, payload_bytes={self.payload_bytes}, "
            f"topic={self.topic!r}, ingest_time={self.ingest_time})"
        )

    def deadline(self, timeout_s: float) -> float:
        """Absolute expiry time given the message-timeout configuration."""
        if self.ingest_time is None:
            raise ValueError("record has not been ingested by a producer yet")
        return self.ingest_time + timeout_s

    def is_stale(self, delivered_at: float) -> bool:
        """Whether a delivery completed at ``delivered_at`` is stale."""
        if self.timeliness_s is None or self.ingest_time is None:
            return False
        return (delivered_at - self.ingest_time) > self.timeliness_s
