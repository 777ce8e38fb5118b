"""Consumer groups: partition assignment, offset commits, rebalancing.

The paper's pipeline (Fig. 1) has downstream stream processors reading
via the consumer API; a production-shaped substrate therefore needs the
group protocol: members of a group split a topic's partitions among
themselves (range assignment), track positions, commit offsets to the
cluster, and rebalance when membership changes.  Consumption is
at-least-once: after a rebalance or restart a member resumes from the
last *committed* offset, so records consumed-but-uncommitted are
redelivered — the consumer-side mirror of the producer duplicates the
paper studies.
"""

from __future__ import annotations

from typing import Dict, List

from .cluster import KafkaCluster
from .log import LogEntry
from .topic import Topic

__all__ = ["GroupMember", "ConsumerGroup"]


class GroupMember:
    """One consumer process inside a group."""

    def __init__(self, group: "ConsumerGroup", member_id: str) -> None:
        self._group = group
        self.member_id = member_id
        self.assigned_partitions: List[int] = []
        self._positions: Dict[int, int] = {}
        self.generation = -1

    def _sync(self) -> None:
        """Adopt the group's current assignment (post-rebalance)."""
        if self.generation == self._group.generation:
            return
        self.generation = self._group.generation
        self.assigned_partitions = self._group.assignment.get(self.member_id, [])
        committed = self._group.committed_offsets()
        self._positions = {
            partition: committed.get(partition, 0)
            for partition in self.assigned_partitions
        }

    @property
    def positions(self) -> Dict[int, int]:
        """Current fetch position per assigned partition."""
        self._sync()
        return dict(self._positions)

    def poll(self, max_records: int = 100) -> List[LogEntry]:
        """Fetch the next batch from the member's assigned partitions."""
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        self._sync()
        out: List[LogEntry] = []
        budget = max_records
        for index in self.assigned_partitions:
            if budget <= 0:
                break
            partition = self._group.topic.partitions[index]
            entries = partition.read(
                start_offset=self._positions[index], max_entries=budget
            )
            if entries:
                self._positions[index] = entries[-1].offset + 1
                out.extend(entries)
                budget -= len(entries)
        return out

    def commit(self) -> None:
        """Commit current positions to the cluster's offset store."""
        self._sync()
        self._group.commit(self.member_id, dict(self._positions))

    def seek(self, partition_index: int, offset: int) -> None:
        """Move the fetch position of one assigned partition."""
        self._sync()
        if partition_index not in self._positions:
            raise ValueError(
                f"partition {partition_index} is not assigned to {self.member_id}"
            )
        if offset < 0:
            raise ValueError("offset must be >= 0")
        self._positions[partition_index] = offset


class ConsumerGroup:
    """A named consumer group over one topic.

    Uses range assignment (Kafka's default): partitions are split into
    contiguous ranges across members sorted by id.  Every membership
    change bumps the generation and reassigns; members detect the new
    generation on their next operation and resume from committed offsets.
    """

    def __init__(self, cluster: KafkaCluster, topic: "Topic | str", group_id: str) -> None:
        if not group_id:
            raise ValueError("group_id must be non-empty")
        self.cluster = cluster
        self.topic = cluster.topic(topic) if isinstance(topic, str) else topic
        self.group_id = group_id
        self.members: Dict[str, GroupMember] = {}
        self.assignment: Dict[str, List[int]] = {}
        self.generation = 0
        # The cluster-side offset store (the __consumer_offsets analogue).
        self._offsets: Dict[int, int] = {}

    # -------------------------------------------------------- membership

    def join(self, member_id: str) -> GroupMember:
        """Add a member and rebalance; returns the member handle."""
        if member_id in self.members:
            raise ValueError(f"member {member_id!r} already joined")
        member = GroupMember(self, member_id)
        self.members[member_id] = member
        self._rebalance()
        return member

    def leave(self, member_id: str) -> None:
        """Remove a member and rebalance the remainder."""
        if member_id not in self.members:
            raise KeyError(f"no such member: {member_id!r}")
        del self.members[member_id]
        self._rebalance()

    def _rebalance(self) -> None:
        self.generation += 1
        self.assignment = {}
        member_ids = sorted(self.members)
        if not member_ids:
            return
        count = self.topic.partition_count
        per_member = count // len(member_ids)
        remainder = count % len(member_ids)
        cursor = 0
        for rank, member_id in enumerate(member_ids):
            take = per_member + (1 if rank < remainder else 0)
            self.assignment[member_id] = list(range(cursor, cursor + take))
            cursor += take

    # ------------------------------------------------------------ offsets

    def committed_offsets(self) -> Dict[int, int]:
        """Committed offset per partition (0 when never committed)."""
        return dict(self._offsets)

    def commit(self, member_id: str, positions: Dict[int, int]) -> None:
        """Store a member's positions; only assigned partitions commit."""
        assigned = set(self.assignment.get(member_id, []))
        for partition, offset in positions.items():
            if partition in assigned:
                self._offsets[partition] = max(
                    offset, self._offsets.get(partition, 0)
                )

    # ------------------------------------------------------------- lag

    def total_lag(self) -> int:
        """Messages appended but not yet committed, across partitions."""
        lag = 0
        for partition in self.topic.partitions:
            committed = self._offsets.get(partition.index, 0)
            lag += max(0, partition.log.next_offset - committed)
        return lag
