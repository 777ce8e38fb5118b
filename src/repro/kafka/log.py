"""Append-only partition log.

The log stores records — the unique key, the payload size and append
timestamp, plus the idempotent producer's id and sequence — segmented the
way Kafka rolls log segments.  Retries of an already-persisted message
append again (Kafka brokers do not deduplicate non-idempotent producers),
which is exactly how the paper's duplicate failures materialise in the
topic.

A segment keeps one typed array per field rather than one object per
record; :class:`LogEntry` tuples are built only when entries are read.
"""

from __future__ import annotations

from array import array
from collections import Counter
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
    """A contiguous run of offsets, mirroring a Kafka segment file.

    Columns, one slot per entry: ``keys``, ``payload_bytes``,
    ``timestamps``, ``producer_ids`` and ``sequences`` (−1 stands for
    None in the last two).
    """

    def __init__(self, base_offset: int) -> None:
        self.base_offset = base_offset
        self.keys = array("q")
        self.payload_bytes = array("q")
        self.timestamps = array("d")
        self.producer_ids = array("q")
        self.sequences = array("q")

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def next_offset(self) -> int:
        """The offset the next appended entry will take."""
        return self.base_offset + len(self.keys)

    @property
    def size_bytes(self) -> int:
        """Total payload bytes stored in this segment."""
        return sum(self.payload_bytes)

    def push(
        self,
        key: int,
        payload_bytes: int,
        timestamp: float,
        producer_id: Optional[int],
        sequence: Optional[int],
    ) -> None:
        """Store one entry at :attr:`next_offset`."""
        self.keys.append(key)
        self.payload_bytes.append(payload_bytes)
        self.timestamps.append(timestamp)
        self.producer_ids.append(-1 if producer_id is None else producer_id)
        self.sequences.append(-1 if sequence is None else sequence)

    def append(self, entry: LogEntry) -> None:
        """Append ``entry``; offsets must be contiguous."""
        if entry.offset != self.next_offset:
            raise ValueError(
                f"offset {entry.offset} does not follow {self.next_offset - 1}"
            )
        self.push(
            entry.key, entry.payload_bytes, entry.timestamp, entry.producer_id, entry.sequence
        )

    def entry(self, index: int) -> LogEntry:
        """The entry in slot ``index`` (offset ``base_offset + index``)."""
        producer_id = self.producer_ids[index]
        sequence = self.sequences[index]
        return LogEntry(
            self.base_offset + index,
            self.keys[index],
            self.payload_bytes[index],
            self.timestamps[index],
            None if producer_id < 0 else producer_id,
            None if sequence < 0 else sequence,
        )

    @property
    def entries(self) -> List[LogEntry]:
        """Every entry of the segment, oldest first."""
        return [self.entry(index) for index in range(len(self.keys))]


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
        offset = segment.next_offset
        if offset - segment.base_offset >= self._segment_max_entries:
            segment = LogSegment(offset)
            self._segments.append(segment)
        # The offset follows the active segment by construction, so the
        # contiguity check of ``LogSegment.append`` is not needed here.
        segment.push(key, payload_bytes, timestamp, producer_id, sequence)
        return offset

    def read(self, start_offset: int = 0, max_entries: Optional[int] = None) -> List[LogEntry]:
        """Read entries from ``start_offset`` (inclusive), oldest first."""
        if start_offset < 0:
            raise ValueError("start_offset must be >= 0")
        out: List[LogEntry] = []
        for segment in self._segments:
            if segment.next_offset <= start_offset:
                continue
            for index in range(max(0, start_offset - segment.base_offset), len(segment)):
                out.append(segment.entry(index))
                if max_entries is not None and len(out) >= max_entries:
                    return out
        return out

    @property
    def segments(self) -> List[LogSegment]:
        """The retained segments, oldest first (read their columns, do not
        append to them)."""
        return self._segments

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
                and len(head) > 0
                and head.timestamps[-1] < min_timestamp
            )
            if not (over_bytes or too_old):
                break
            removed += len(head)
            self._segments.pop(0)
        return removed

    def key_counts(self) -> Dict[int, int]:
        """Occurrences of each unique key (the reconciliation primitive)."""
        counts: Counter = Counter()
        for segment in self._segments:
            counts.update(segment.keys)
        return dict(counts)
