"""Append-only partition log.

The log stores :class:`LogEntry` records — the unique key, the payload
size and append timestamp — segmented the way Kafka rolls log segments.
Retries of an already-persisted message append again (Kafka brokers do not
deduplicate non-idempotent producers), which is exactly how the paper's
duplicate failures materialise in the topic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

__all__ = ["LogEntry", "LogSegment", "PartitionLog"]


class LogEntry(NamedTuple):
    """One persisted record (immutable; a tuple, cheap to build per append)."""

    offset: int
    key: int
    payload_bytes: int
    timestamp: float
    producer_id: Optional[int] = None
    sequence: Optional[int] = None


class LogSegment:
    """A contiguous run of offsets, mirroring a Kafka segment file."""

    def __init__(self, base_offset: int) -> None:
        self.base_offset = base_offset
        self.entries: List[LogEntry] = []

    @property
    def next_offset(self) -> int:
        """The offset the next appended entry will take."""
        return self.base_offset + len(self.entries)

    @property
    def size_bytes(self) -> int:
        """Total payload bytes stored in this segment."""
        return sum(entry.payload_bytes for entry in self.entries)

    def append(self, entry: LogEntry) -> None:
        """Append ``entry``; offsets must be contiguous."""
        if entry.offset != self.next_offset:
            raise ValueError(
                f"offset {entry.offset} does not follow {self.next_offset - 1}"
            )
        self.entries.append(entry)


class PartitionLog:
    """The append-only log backing one partition.

    Parameters
    ----------
    segment_max_entries:
        Entries per segment before rolling a new one.
    """

    def __init__(self, segment_max_entries: int = 4096) -> None:
        if segment_max_entries < 1:
            raise ValueError("segment_max_entries must be >= 1")
        self._segment_max_entries = segment_max_entries
        self._segments: List[LogSegment] = [LogSegment(0)]
        # Idempotent-producer state: highest sequence seen per producer id.
        self._producer_sequences: Dict[int, int] = {}

    @property
    def start_offset(self) -> int:
        """Oldest offset still retained (log start offset)."""
        return self._segments[0].base_offset

    @property
    def next_offset(self) -> int:
        """Log end offset."""
        return self._segments[-1].next_offset

    @property
    def segment_count(self) -> int:
        """Number of rolled segments (including the active one)."""
        return len(self._segments)

    def __len__(self) -> int:
        return self.next_offset

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
        segment = self._segments[-1]
        entries = segment.entries
        if len(entries) >= self._segment_max_entries:
            segment = LogSegment(segment.next_offset)
            self._segments.append(segment)
            entries = segment.entries
        # The offset follows the active segment by construction, so the
        # contiguity check of ``LogSegment.append`` cannot fail here.
        offset = segment.base_offset + len(entries)
        entries.append(LogEntry(offset, key, payload_bytes, timestamp, producer_id, sequence))
        return offset

    def read(self, start_offset: int = 0, max_entries: Optional[int] = None) -> List[LogEntry]:
        """Read entries from ``start_offset`` (inclusive), oldest first."""
        if start_offset < 0:
            raise ValueError("start_offset must be >= 0")
        out: List[LogEntry] = []
        for segment in self._segments:
            if segment.next_offset <= start_offset:
                continue
            for entry in segment.entries:
                if entry.offset < start_offset:
                    continue
                out.append(entry)
                if max_entries is not None and len(out) >= max_entries:
                    return out
        return out

    def __iter__(self) -> Iterator[LogEntry]:
        for segment in self._segments:
            yield from segment.entries

    def retain(
        self,
        max_bytes: Optional[int] = None,
        min_timestamp: Optional[float] = None,
    ) -> int:
        """Kafka-style retention: delete whole closed segments.

        Drops the oldest segments while (a) total payload bytes exceed
        ``max_bytes`` or (b) a segment's newest entry is older than
        ``min_timestamp``.  The active (last) segment is never deleted.
        Returns the number of entries removed.
        """
        removed = 0
        while len(self._segments) > 1:
            head = self._segments[0]
            over_bytes = (
                max_bytes is not None
                and sum(seg.size_bytes for seg in self._segments) > max_bytes
            )
            too_old = (
                min_timestamp is not None
                and head.entries
                and head.entries[-1].timestamp < min_timestamp
            )
            if not (over_bytes or too_old):
                break
            removed += len(head.entries)
            self._segments.pop(0)
        return removed

    def key_counts(self) -> Dict[int, int]:
        """Occurrences of each unique key (the reconciliation primitive)."""
        counts: Dict[int, int] = {}
        for entry in self:
            counts[entry.key] = counts.get(entry.key, 0) + 1
        return counts
