"""Topics and key-hash partitioning."""

from __future__ import annotations

from typing import List

from .partition import Partition

__all__ = ["Topic"]


class Topic:
    """A named set of partitions distributed across brokers."""

    def __init__(self, name: str, partitions: List[Partition]) -> None:
        if not partitions:
            raise ValueError("a topic needs at least one partition")
        self.name = name
        self.partitions = partitions

    def partition_for(self, key: int) -> Partition:
        """The partition a record with ``key`` is routed to.

        Deterministic key-hash placement, Kafka's default for keyed
        records; the Knuth multiplicative hash keeps small incremental
        keys spread out.
        """
        partitions = self.partitions
        return partitions[(key * 2654435761 % (2**32)) % len(partitions)]
