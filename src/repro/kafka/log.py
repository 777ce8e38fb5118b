"""Append-only partition log.

The log stores records — the unique key, the payload size and append
timestamp, plus the idempotent producer's id and sequence.  Retries of an
already-persisted message append again (Kafka brokers do not deduplicate
non-idempotent producers), which is exactly how the paper's duplicate
failures materialise in the topic.

The log keeps one typed array per field rather than one object per
record; :class:`LogEntry` tuples are built only when entries are read.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, NamedTuple, Optional

__all__ = ["LogEntry", "PartitionLog"]


class LogEntry(NamedTuple):
    """One persisted record (immutable; a tuple, cheap to build per append)."""

    offset: int
    key: int
    payload_bytes: int
    timestamp: float
    producer_id: Optional[int] = None
    sequence: Optional[int] = None


class PartitionLog:
    """The append-only log backing one partition.

    Columns, one slot per offset: ``keys``, ``payload_bytes``,
    ``timestamps``, ``producer_ids`` and ``sequences`` (−1 stands for
    None in the last two).  Read the columns; append only through
    :meth:`append`.
    """

    def __init__(self) -> None:
        self.keys = array("q")
        self.payload_bytes = array("q")
        self.timestamps = array("d")
        self.producer_ids = array("q")
        self.sequences = array("q")
        # Idempotent-producer state: highest sequence seen per producer id.
        self._producer_sequences: Dict[int, int] = {}

    @property
    def next_offset(self) -> int:
        """Log end offset."""
        return len(self.keys)

    def __len__(self) -> int:
        return len(self.keys)

    def append(
        self,
        key: int,
        payload_bytes: int,
        timestamp: float,
        producer_id: Optional[int] = None,
        sequence: Optional[int] = None,
    ) -> Optional[int]:
        """Append a record and return its offset.

        When ``producer_id``/``sequence`` are given (idempotent producer),
        a duplicate or out-of-date sequence is silently discarded and
        ``None`` is returned — Kafka's exactly-once fencing.
        """
        if producer_id is not None and sequence is not None:
            last = self._producer_sequences.get(producer_id)
            if last is not None and sequence <= last:
                return None
            self._producer_sequences[producer_id] = sequence
        offset = len(self.keys)
        self.keys.append(key)
        self.payload_bytes.append(payload_bytes)
        self.timestamps.append(timestamp)
        self.producer_ids.append(-1 if producer_id is None else producer_id)
        self.sequences.append(-1 if sequence is None else sequence)
        return offset

    def read(self, start_offset: int = 0, max_entries: Optional[int] = None) -> List[LogEntry]:
        """Read entries from ``start_offset`` (inclusive), oldest first."""
        if start_offset < 0:
            raise ValueError("start_offset must be >= 0")
        stop = len(self.keys)
        if max_entries is not None:
            stop = min(stop, start_offset + max_entries)
        producer_ids = self.producer_ids
        sequences = self.sequences
        return [
            LogEntry(
                offset,
                self.keys[offset],
                self.payload_bytes[offset],
                self.timestamps[offset],
                None if producer_ids[offset] < 0 else producer_ids[offset],
                None if sequences[offset] < 0 else sequences[offset],
            )
            for offset in range(start_offset, stop)
        ]
