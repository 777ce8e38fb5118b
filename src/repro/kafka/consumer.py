"""The Kafka consumer and the testbed's reconciliation step.

In the paper's methodology the consumer runs *after* the producer finishes
and the fault injection stops: it reads every message in the topic and the
analysis compares the unique keys received against the source data
(Section III-E).  :class:`KafkaConsumer` models the fetch loop (offset
tracking, fetch batching) against the committed logs, and
:func:`reconcile` produces the loss/duplicate accounting that defines the
paper's reliability metrics.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Set

from .log import LogEntry
from .topic import Topic

__all__ = ["KafkaConsumer", "ReconciliationReport", "reconcile"]


class KafkaConsumer:
    """A subscriber that reads a topic from the beginning.

    The consumer runs after fault injection ends, so its network is clean;
    we model the fetch loop faithfully (per-partition offsets, bounded
    fetch sizes) but without network events, which keeps reconciliation
    O(messages) regardless of the experiment's network history.
    """

    def __init__(self, topic: Topic, max_poll_records: int = 500) -> None:
        if max_poll_records < 1:
            raise ValueError("max_poll_records must be >= 1")
        self._topic = topic
        self._max_poll_records = max_poll_records
        self._offsets: Dict[int, int] = {p.index: 0 for p in topic.partitions}

    @property
    def positions(self) -> Dict[int, int]:
        """Current fetch offset per partition."""
        return dict(self._offsets)

    def poll(self) -> List[LogEntry]:
        """Fetch the next batch of records across partitions."""
        out: List[LogEntry] = []
        budget = self._max_poll_records
        for partition in self._topic.partitions:
            if budget <= 0:
                break
            start = self._offsets[partition.index]
            entries = partition.read(start_offset=start, max_entries=budget)
            if entries:
                self._offsets[partition.index] = entries[-1].offset + 1
                out.extend(entries)
                budget -= len(entries)
        return out

    def consume_all(self) -> List[LogEntry]:
        """Drain the topic from the current positions to the end."""
        out: List[LogEntry] = []
        while True:
            batch = self.poll()
            if not batch:
                return out
            out.extend(batch)


@dataclass
class ReconciliationReport:
    """Source-vs-topic accounting, the ground truth behind P_l and P_d.

    Attributes
    ----------
    produced:
        Number of unique keys the source generated.
    delivered_unique:
        Keys present in the topic at least once.
    lost:
        Keys missing from the topic entirely (Cases 2 and 3).
    duplicated:
        Keys present more than once (Case 5).
    duplicate_copies:
        Extra copies beyond the first, summed over duplicated keys (τ_d).
    stale:
        Delivered keys whose first copy arrived after the message's
        timeliness window ``S`` (delivered but worthless to the app).
    """

    produced: int
    delivered_unique: int
    lost: int
    duplicated: int
    duplicate_copies: int
    stale: int = 0
    lost_keys: Set[int] = field(default_factory=set)
    duplicated_keys: Set[int] = field(default_factory=set)

    @property
    def p_loss(self) -> float:
        """The paper's P_l = N_l / N."""
        return self.lost / self.produced if self.produced else 0.0

    @property
    def p_duplicate(self) -> float:
        """The paper's P_d = N_d / N."""
        return self.duplicated / self.produced if self.produced else 0.0

    @property
    def p_stale(self) -> float:
        """Fraction of source messages delivered but stale."""
        return self.stale / self.produced if self.produced else 0.0

    def check_conservation(self) -> None:
        """Every key must be delivered or lost; duplicates are delivered."""
        if self.delivered_unique + self.lost != self.produced:
            raise AssertionError(
                f"conservation violated: {self.delivered_unique} delivered + "
                f"{self.lost} lost != {self.produced} produced"
            )


def reconcile(
    source_keys: Collection[int],
    topic: Topic,
    ingest_times: Optional[Sequence[float]] = None,
    timeliness_s: Optional[float] = None,
) -> ReconciliationReport:
    """Compare source keys with topic contents, the paper's analysis step.

    Parameters
    ----------
    source_keys:
        Unique, non-negative keys of every message the source handed to
        the producer.
    topic:
        The topic to read back, in consumer order: partition by partition,
        each from its oldest retained offset.
    ingest_times:
        Optional producer-ingest time per key (NaN for none) for
        staleness checks.
    timeliness_s:
        The message-timeliness feature ``S``; with ``ingest_times`` this
        classifies deliveries as stale when first persisted later than
        ``ingest + S``.

    Copies are counted in an array indexed by key, so a topic key that is
    neither a source key nor has an ingest time takes no part in any count
    and is skipped.  A key's first copy in consumer order is its first
    delivery, the one checked for staleness.
    """
    times: Sequence[float] = ()
    window = 0.0
    if ingest_times is not None and timeliness_s is not None:
        times, window = ingest_times, timeliness_s
    ingested = len(times)
    size = max(source_keys) + 1 if len(source_keys) else 0
    if size and min(source_keys) < 0:
        raise ValueError("source keys must be non-negative")
    size = max(size, ingested)
    copies = array("l", bytes(size * array("l").itemsize))
    stale = 0
    for partition in topic.partitions:
        for segment in partition.log.segments:
            for key, timestamp in zip(segment.keys, segment.timestamps):
                if 0 <= key < size:
                    # A NaN ingest time (never ingested) is never stale.
                    if not copies[key] and key < ingested:
                        if (timestamp - times[key]) > window:
                            stale += 1
                    copies[key] += 1
    lost_keys = {key for key in source_keys if not copies[key]}
    duplicated_keys = {key for key in source_keys if copies[key] > 1}
    duplicate_copies = sum(copies[key] - 1 for key in duplicated_keys)
    delivered_unique = len(source_keys) - len(lost_keys)
    return ReconciliationReport(
        produced=len(source_keys),
        delivered_unique=delivered_unique,
        lost=len(lost_keys),
        duplicated=len(duplicated_keys),
        duplicate_copies=duplicate_copies,
        stale=stale,
        lost_keys=lost_keys,
        duplicated_keys=duplicated_keys,
    )
