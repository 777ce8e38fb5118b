"""Unit tests for logs, partitions and topics."""

import pytest

from repro.kafka import LogEntry, Partition, PartitionLog, Topic, reconcile


class TestPartitionLog:
    def test_offsets_are_contiguous(self):
        log = PartitionLog()
        assert [log.append(k, 10, 0.0) for k in (5, 6, 7)] == [0, 1, 2]
        assert log.next_offset == 3

    def test_read_from_offset(self):
        log = PartitionLog()
        for key in range(6):
            log.append(key, 10, 0.0)
        entries = log.read(start_offset=3)
        assert [entry.key for entry in entries] == [3, 4, 5]
        # -1 in the producer-id and sequence columns reads back as None.
        assert entries[0] == LogEntry(3, 3, 10, 0.0, None, None)

    def test_read_with_max_entries(self):
        log = PartitionLog()
        for key in range(6):
            log.append(key, 10, 0.0)
        assert len(log.read(0, max_entries=4)) == 4
        assert log.read(0, max_entries=0) == []
        assert [entry.key for entry in log.read(4, max_entries=4)] == [4, 5]

    def test_duplicate_appends_are_kept(self):
        """Non-idempotent brokers persist retries again — Case 5's substrate."""
        log = PartitionLog()
        log.append(1, 10, 0.0)
        log.append(1, 10, 0.1)
        assert list(log.keys) == [1, 1]

    def test_idempotent_sequence_fencing(self):
        log = PartitionLog()
        assert log.append(1, 10, 0.0, producer_id=9, sequence=0) == 0
        assert log.append(1, 10, 0.1, producer_id=9, sequence=0) is None
        assert log.append(2, 10, 0.2, producer_id=9, sequence=1) == 1
        assert list(log.keys) == [1, 2]
        assert list(log.sequences) == [0, 1]

    def test_idempotence_is_per_producer(self):
        log = PartitionLog()
        log.append(1, 10, 0.0, producer_id=1, sequence=0)
        assert log.append(2, 10, 0.0, producer_id=2, sequence=0) is not None


class TestPartition:
    def make(self):
        return Partition("t", 0, "broker-0", ["broker-0", "broker-1", "broker-2"])

    def test_append_replicates_to_followers(self):
        partition = self.make()
        partition.log.append(1, 10, 0.0)
        # Synchronous replication: every replica serves the one log.
        assert len(partition.log) == 1

    def test_leader_is_not_its_own_follower(self):
        partition = self.make()
        assert "broker-0" not in partition.follower_broker_ids
        assert partition.follower_broker_ids == ["broker-1", "broker-2"]

    def test_name(self):
        assert self.make().name == "t-0"

    def test_failover_promotes_follower(self):
        partition = self.make()
        partition.log.append(1, 10, 0.0)
        partition.elect_new_leader("broker-1")
        assert partition.leader_broker_id == "broker-1"
        assert len(partition.log) == 1
        assert "broker-0" in partition.follower_broker_ids
        assert partition.follower_broker_ids == ["broker-2", "broker-0"]

    def test_failover_keeps_every_entry_and_offset(self):
        partition = self.make()
        count = 25
        for key in range(count):
            offset = partition.log.append(key, 10 + key, 0.1 * key, producer_id=7, sequence=key)
            assert offset == key
        before = partition.read()
        assert len(partition.log) == count
        partition.elect_new_leader("broker-2")
        assert partition.leader_broker_id == "broker-2"
        after = partition.read()
        assert after == before
        assert [entry.offset for entry in after] == list(range(count))
        assert len(partition.log) == count
        # The idempotence state moved with the data: a replayed sequence is
        # still fenced and the next one takes the next offset.
        assert partition.log.append(3, 13, 9.0, producer_id=7, sequence=3) is None
        assert partition.log.append(count, 10, 9.0, producer_id=7, sequence=count) == count
        # Failing back to the old leader serves the same log again.
        partition.elect_new_leader("broker-0")
        assert partition.read() == before + [partition.read()[-1]]
        assert len(partition.log) == count + 1

    def test_failover_to_non_follower_rejected(self):
        with pytest.raises(ValueError):
            self.make().elect_new_leader("broker-9")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Partition("t", -1, "broker-0")


class TestTopic:
    def make(self):
        partitions = [Partition("t", i, f"broker-{i % 2}") for i in range(3)]
        return Topic("t", partitions)

    def test_requires_partitions(self):
        with pytest.raises(ValueError):
            Topic("t", [])

    def test_key_hash_partitioner_is_deterministic(self):
        topic = self.make()
        assert topic.partition_for(42) is topic.partition_for(42)

    def test_reconcile_counts_copies_across_partitions(self):
        # Reconciliation counts one key's copies across partitions.
        topic = self.make()
        topic.partitions[0].log.append(1, 10, 0.0)
        topic.partitions[1].log.append(1, 10, 0.0)
        topic.partitions[2].log.append(2, 10, 0.0)
        report = reconcile({1, 2}, topic)
        assert report.duplicated_keys == {1}
        assert report.duplicate_copies == 1
        assert report.lost == 0
