"""Topics and partitioning."""

from __future__ import annotations

from typing import Dict, List, Optional

from .log import LogEntry
from .partition import Partition

__all__ = ["Topic", "Partitioner", "RoundRobinPartitioner", "KeyHashPartitioner"]


class Partitioner:
    """Strategy mapping a record key to a partition index."""

    def select(self, key: int, partition_count: int) -> int:
        """Return the partition index for ``key``."""
        raise NotImplementedError


class RoundRobinPartitioner(Partitioner):
    """Cycle through partitions — Kafka's default for keyless records."""

    def __init__(self) -> None:
        self._next = 0

    def select(self, key: int, partition_count: int) -> int:
        index = self._next % partition_count
        self._next += 1
        return index


class KeyHashPartitioner(Partitioner):
    """Deterministic key-hash placement — Kafka's default for keyed records."""

    def select(self, key: int, partition_count: int) -> int:
        # Knuth multiplicative hash keeps small incremental keys spread out.
        return (key * 2654435761 % (2**32)) % partition_count


class Topic:
    """A named set of partitions distributed across brokers."""

    def __init__(
        self,
        name: str,
        partitions: List[Partition],
        partitioner: Optional[Partitioner] = None,
    ) -> None:
        if not partitions:
            raise ValueError("a topic needs at least one partition")
        self.name = name
        self.partitions = partitions
        self.partitioner = partitioner if partitioner is not None else KeyHashPartitioner()

    @property
    def partition_count(self) -> int:
        """Number of partitions."""
        return len(self.partitions)

    def partition_for(self, key: int) -> Partition:
        """The partition a record with ``key`` is routed to."""
        return self.partitions[self.partitioner.select(key, self.partition_count)]

    def total_messages(self) -> int:
        """Entries across all partitions (duplicates included)."""
        return sum(len(p.log) for p in self.partitions)

    def read_all(self) -> List[LogEntry]:
        """All committed entries across partitions, by partition order."""
        out: List[LogEntry] = []
        for partition in self.partitions:
            out.extend(partition.read())
        return out

    def key_counts(self) -> Dict[int, int]:
        """Merge per-partition key counts (the reconciliation input)."""
        counts: Dict[int, int] = {}
        for partition in self.partitions:
            for key, count in partition.log.key_counts().items():
                counts[key] = counts.get(key, 0) + count
        return counts
