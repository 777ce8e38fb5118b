"""Partitions: the unit of storage placement and replication."""

from __future__ import annotations

from typing import List, Optional

from .log import LogEntry, PartitionLog

__all__ = ["Partition"]


class Partition:
    """One partition of a topic, with a leader replica and followers.

    The leader broker serves produce requests.  Replication is synchronous
    leader-push: every follower applies a leader append before the append
    returns (the broker layer adds the acks=all latency cost), so every
    replica holds exactly the leader's entries, offsets and idempotence
    state.  The partition therefore keeps one :class:`PartitionLog`, read
    and written through the current leader, and its followers as broker
    ids; a failover moves leadership, not data.
    """

    def __init__(
        self,
        topic: str,
        index: int,
        leader_broker_id: str,
        replica_broker_ids: Optional[List[str]] = None,
    ) -> None:
        if index < 0:
            raise ValueError("partition index must be >= 0")
        self.topic = topic
        self.index = index
        #: Kafka-style ``topic-partition`` name.
        self.name = f"{topic}-{index}"
        self.leader_broker_id = leader_broker_id
        #: Follower broker ids, in failover preference order.
        self.follower_broker_ids: List[str] = [
            broker_id
            for broker_id in replica_broker_ids or []
            if broker_id != leader_broker_id
        ]
        self.log = PartitionLog()

    def read(self, start_offset: int = 0, max_entries: Optional[int] = None) -> List[LogEntry]:
        """Read committed entries."""
        return self.log.read(start_offset, max_entries)

    def elect_new_leader(self, broker_id: str) -> None:
        """Fail the current leader over to ``broker_id`` (a follower).

        The follower already holds every committed entry, so the new leader
        serves the same log; the old leader becomes the last follower.
        """
        if broker_id == self.leader_broker_id:
            return
        if broker_id not in self.follower_broker_ids:
            raise ValueError(f"{broker_id} is not a follower of {self.name}")
        self.follower_broker_ids.remove(broker_id)
        self.follower_broker_ids.append(self.leader_broker_id)
        self.leader_broker_id = broker_id
