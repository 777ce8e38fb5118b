"""Unit tests for logs, partitions and topics."""

import pytest

from repro.kafka import KeyHashPartitioner, Partition, PartitionLog, RoundRobinPartitioner, Topic
from repro.kafka.log import LogSegment


class TestPartitionLog:
    def test_offsets_are_contiguous(self):
        log = PartitionLog()
        assert [log.append(k, 10, 0.0) for k in (5, 6, 7)] == [0, 1, 2]
        assert log.next_offset == 3

    def test_segment_rolling(self):
        log = PartitionLog(segment_max_entries=2)
        for key in range(5):
            log.append(key, 10, 0.0)
        assert log.segment_count == 3
        assert [entry.offset for entry in log] == list(range(5))

    def test_read_from_offset(self):
        log = PartitionLog(segment_max_entries=2)
        for key in range(6):
            log.append(key, 10, 0.0)
        entries = log.read(start_offset=3)
        assert [entry.key for entry in entries] == [3, 4, 5]

    def test_read_with_max_entries(self):
        log = PartitionLog()
        for key in range(6):
            log.append(key, 10, 0.0)
        assert len(log.read(0, max_entries=4)) == 4

    def test_duplicate_appends_are_kept(self):
        """Non-idempotent brokers persist retries again — Case 5's substrate."""
        log = PartitionLog()
        log.append(1, 10, 0.0)
        log.append(1, 10, 0.1)
        assert log.key_counts() == {1: 2}

    def test_idempotent_sequence_fencing(self):
        log = PartitionLog()
        assert log.append(1, 10, 0.0, producer_id=9, sequence=0) == 0
        assert log.append(1, 10, 0.1, producer_id=9, sequence=0) is None
        assert log.append(2, 10, 0.2, producer_id=9, sequence=1) == 1
        assert log.key_counts() == {1: 1, 2: 1}

    def test_idempotence_is_per_producer(self):
        log = PartitionLog()
        log.append(1, 10, 0.0, producer_id=1, sequence=0)
        assert log.append(2, 10, 0.0, producer_id=2, sequence=0) is not None

    def test_segment_append_offset_check(self):
        segment = LogSegment(base_offset=10)
        from repro.kafka.log import LogEntry
        with pytest.raises(ValueError):
            segment.append(LogEntry(offset=12, key=1, payload_bytes=1, timestamp=0.0))


class TestPartition:
    def make(self):
        return Partition("t", 0, "broker-0", ["broker-0", "broker-1", "broker-2"])

    def test_append_replicates_to_followers(self):
        partition = self.make()
        partition.append(1, 10, 0.0)
        # Synchronous replication: every replica serves the one log.
        assert partition.high_watermark == 1
        assert len(partition.log) == 1

    def test_leader_is_not_its_own_follower(self):
        partition = self.make()
        assert "broker-0" not in partition.follower_broker_ids
        assert partition.follower_broker_ids == ["broker-1", "broker-2"]

    def test_name(self):
        assert self.make().name == "t-0"

    def test_failover_promotes_follower(self):
        partition = self.make()
        partition.append(1, 10, 0.0)
        partition.elect_new_leader("broker-1")
        assert partition.leader_broker_id == "broker-1"
        assert len(partition.log) == 1
        assert "broker-0" in partition.follower_broker_ids
        assert partition.follower_broker_ids == ["broker-2", "broker-0"]

    def test_failover_keeps_every_entry_offset_and_high_watermark(self):
        partition = self.make()
        count = 25
        for key in range(count):
            offset = partition.append(key, 10 + key, 0.1 * key, producer_id=7, sequence=key)
            assert offset == key
        before = partition.read()
        assert partition.high_watermark == count
        partition.elect_new_leader("broker-2")
        assert partition.leader_broker_id == "broker-2"
        after = partition.read()
        assert after == before
        assert [entry.offset for entry in after] == list(range(count))
        assert partition.high_watermark == count
        # The idempotence state moved with the data: a replayed sequence is
        # still fenced and the next one takes the next offset.
        assert partition.append(3, 13, 9.0, producer_id=7, sequence=3) is None
        assert partition.append(count, 10, 9.0, producer_id=7, sequence=count) == count
        # Failing back to the old leader serves the same log again.
        partition.elect_new_leader("broker-0")
        assert partition.read() == before + [partition.read()[-1]]
        assert partition.high_watermark == count + 1

    def test_failover_to_non_follower_rejected(self):
        with pytest.raises(ValueError):
            self.make().elect_new_leader("broker-9")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Partition("t", -1, "broker-0")


class TestTopic:
    def make(self, partitioner=None):
        partitions = [Partition("t", i, f"broker-{i % 2}") for i in range(3)]
        return Topic("t", partitions, partitioner)

    def test_requires_partitions(self):
        with pytest.raises(ValueError):
            Topic("t", [])

    def test_key_hash_partitioner_is_deterministic(self):
        topic = self.make(KeyHashPartitioner())
        assert topic.partition_for(42) is topic.partition_for(42)

    def test_round_robin_cycles(self):
        partitioner = RoundRobinPartitioner()
        indices = [partitioner.select(0, 3) for _ in range(6)]
        assert indices == [0, 1, 2, 0, 1, 2]

    def test_key_counts_merge_partitions(self):
        topic = self.make()
        topic.partitions[0].append(1, 10, 0.0)
        topic.partitions[1].append(1, 10, 0.0)
        topic.partitions[2].append(2, 10, 0.0)
        assert topic.key_counts() == {1: 2, 2: 1}

    def test_total_messages(self):
        topic = self.make()
        topic.partitions[0].append(1, 10, 0.0)
        topic.partitions[0].append(2, 10, 0.0)
        assert topic.total_messages() == 2

    def test_read_all_concatenates(self):
        topic = self.make()
        topic.partitions[2].append(9, 10, 0.0)
        assert [entry.key for entry in topic.read_all()] == [9]


class TestRetention:
    def filled(self, entries=10, per_segment=3):
        log = PartitionLog(segment_max_entries=per_segment)
        for key in range(entries):
            log.append(key, 100, timestamp=float(key))
        return log

    def test_retain_by_bytes_drops_oldest_segments(self):
        log = self.filled(entries=9, per_segment=3)  # 3 segments * 300 B
        removed = log.retain(max_bytes=600)
        assert removed == 3
        assert log.start_offset == 3
        assert [entry.key for entry in log] == list(range(3, 9))

    def test_retain_by_time(self):
        log = self.filled(entries=9, per_segment=3)
        removed = log.retain(min_timestamp=4.0)
        assert removed == 3  # first segment's newest timestamp is 2.0
        assert log.start_offset == 3

    def test_active_segment_never_deleted(self):
        log = self.filled(entries=2, per_segment=10)
        assert log.retain(max_bytes=0) == 0
        assert len(log) == 2

    def test_offsets_stay_stable_after_retention(self):
        log = self.filled(entries=9, per_segment=3)
        log.retain(max_bytes=300)
        offset = log.append(99, 100, timestamp=9.0)
        assert offset == 9  # appends continue from the log end offset

    def test_read_after_retention_skips_deleted(self):
        log = self.filled(entries=9, per_segment=3)
        log.retain(max_bytes=300)
        entries = log.read(start_offset=0)
        assert entries[0].offset == log.start_offset

    def test_no_retention_criteria_is_noop(self):
        log = self.filled()
        assert log.retain() == 0
