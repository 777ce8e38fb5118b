"""Unit tests for producer records, the consumer and reconciliation."""

import math

import pytest

from repro.kafka import (
    KafkaCluster,
    KafkaConsumer,
    KafkaProducer,
    Partition,
    ProducerRecord,
    Topic,
    reconcile,
)
from repro.kafka.consumer import ReconciliationReport
from repro.network import Link, ReliableChannel
from repro.simulation import RngRegistry, Simulator


class TestProducerRecord:
    def test_keys_are_unique_and_incremental(self):
        sim = Simulator()
        cluster = KafkaCluster(sim)
        topic = cluster.create_topic("t")
        channel = ReliableChannel(sim, Link(sim, RngRegistry(1).stream("link")))
        producer = KafkaProducer(sim, cluster, channel, topic)
        a, b = ProducerRecord(payload_bytes=10), ProducerRecord(payload_bytes=10)
        assert a.key is None
        producer.offer(a)
        producer.offer(b)
        assert (a.key, b.key) == (0, 1)
        explicit = ProducerRecord(payload_bytes=10, key=7)
        producer.offer(explicit)
        assert explicit.key == 7
        later = ProducerRecord(payload_bytes=10)
        producer.offer(later)
        assert later.key == 2

    def test_deadline_requires_ingest(self):
        record = ProducerRecord(payload_bytes=10)
        with pytest.raises(ValueError):
            record.deadline(1.0)
        record.ingest_time = 5.0
        assert record.deadline(1.5) == 6.5

    def test_staleness(self):
        record = ProducerRecord(payload_bytes=10, timeliness_s=2.0)
        record.ingest_time = 1.0
        assert not record.is_stale(2.9)
        assert record.is_stale(3.1)

    def test_no_timeliness_is_never_stale(self):
        record = ProducerRecord(payload_bytes=10)
        record.ingest_time = 0.0
        assert not record.is_stale(1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProducerRecord(payload_bytes=0)
        with pytest.raises(ValueError):
            ProducerRecord(payload_bytes=10, timeliness_s=0.0)

    def test_negative_key_rejected(self):
        # A negative key would alias the last slot of the per-key arrays.
        with pytest.raises(ValueError, match="non-negative"):
            ProducerRecord(payload_bytes=10, key=-1)
        assert ProducerRecord(payload_bytes=10, key=0).key == 0


def make_topic():
    return Topic("t", [Partition("t", i, "broker-0") for i in range(2)])


class TestConsumer:
    def test_consume_all_reads_everything(self):
        topic = make_topic()
        for key in range(10):
            topic.partitions[key % 2].append(key, 10, 0.0)
        entries = KafkaConsumer(topic).consume_all()
        assert sorted(entry.key for entry in entries) == list(range(10))

    def test_poll_respects_batch_limit(self):
        topic = make_topic()
        for key in range(10):
            topic.partitions[0].append(key, 10, 0.0)
        consumer = KafkaConsumer(topic, max_poll_records=3)
        assert len(consumer.poll()) == 3
        assert len(consumer.poll()) == 3

    def test_positions_advance(self):
        topic = make_topic()
        topic.partitions[0].append(1, 10, 0.0)
        consumer = KafkaConsumer(topic)
        consumer.poll()
        assert consumer.positions[0] == 1

    def test_empty_topic_polls_nothing(self):
        assert KafkaConsumer(make_topic()).poll() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            KafkaConsumer(make_topic(), max_poll_records=0)


class TestReconciliation:
    def test_all_delivered(self):
        topic = make_topic()
        keys = set(range(5))
        for key in keys:
            topic.partitions[0].append(key, 10, 0.0)
        report = reconcile(keys, topic)
        report.check_conservation()
        assert report.p_loss == 0.0
        assert report.p_duplicate == 0.0
        assert report.delivered_unique == 5

    def test_lost_keys_counted(self):
        topic = make_topic()
        topic.partitions[0].append(0, 10, 0.0)
        report = reconcile({0, 1, 2, 3}, topic)
        assert report.lost == 3
        assert report.p_loss == pytest.approx(0.75)
        assert report.lost_keys == {1, 2, 3}

    def test_duplicates_counted_once_per_key(self):
        topic = make_topic()
        for _ in range(3):
            topic.partitions[0].append(7, 10, 0.0)
        topic.partitions[0].append(8, 10, 0.0)
        report = reconcile({7, 8}, topic)
        assert report.duplicated == 1
        assert report.duplicate_copies == 2
        assert report.p_duplicate == pytest.approx(0.5)

    def test_foreign_keys_in_topic_ignored(self):
        topic = make_topic()
        topic.partitions[0].append(999, 10, 0.0)
        topic.partitions[0].append(999, 10, 0.0)
        report = reconcile({1}, topic)
        assert report.lost == 1
        assert report.duplicated == 0

    def test_staleness_accounting(self):
        topic = make_topic()
        topic.partitions[0].append(1, 10, timestamp=10.0)
        topic.partitions[0].append(2, 10, timestamp=0.5)
        # Ingest times are indexed by key; NaN marks key 0, never ingested.
        report = reconcile(
            {1, 2}, topic, ingest_times=[math.nan, 0.0, 0.0], timeliness_s=1.0
        )
        assert report.stale == 1
        assert report.p_stale == pytest.approx(0.5)

    def test_conservation_violation_raises(self):
        report = ReconciliationReport(
            produced=5, delivered_unique=3, lost=1, duplicated=0, duplicate_copies=0
        )
        with pytest.raises(AssertionError):
            report.check_conservation()
