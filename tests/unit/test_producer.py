"""Unit tests for the Kafka producer pipeline."""

import pytest

from repro.kafka import (
    DeliverySemantics,
    KafkaCluster,
    KafkaProducer,
    ProducerConfig,
    ProducerListener,
    ProducerRecord,
)
from repro.network import ConstantLatency, Link, ReliableChannel
from repro.simulation import RngRegistry, Simulator


class RecordingListener(ProducerListener):
    def __init__(self):
        self.events = []

    def on_ingest(self, record):
        self.events.append(("ingest", record.key))

    def on_expired(self, record, after_send):
        self.events.append(("expired", record.key, after_send))

    def on_acknowledged(self, record, rtt_s):
        self.events.append(("acked", record.key))

    def on_send_attempt(self, record, attempt):
        self.events.append(("send", record.key, attempt))

    def on_perceived_lost(self, record):
        self.events.append(("lost", record.key))


def make_producer(config=None, hardware=None, listener=None, capacity=1e6):
    sim = Simulator()
    rng = RngRegistry(9)
    cluster = KafkaCluster(sim)
    topic = cluster.create_topic("t", partitions=3)
    link = Link(sim, rng.stream("link"), capacity_bps=capacity,
                latency=ConstantLatency(0.001))
    channel = ReliableChannel(sim, link)
    producer = KafkaProducer(
        sim, cluster, channel, topic,
        config=config, hardware=hardware, listener=listener,
    )
    return sim, cluster, topic, producer


def offer_n(sim, producer, count, payload=100, spacing=0.01):
    keys = []

    def emit(i=0):
        if i >= count:
            producer.finish_input()
            return
        record = ProducerRecord(payload_bytes=payload)
        producer.offer(record)
        keys.append(record.key)
        sim.schedule(spacing, emit, i + 1)

    emit()
    return keys


def test_clean_at_least_once_delivers_everything():
    sim, _, topic, producer = make_producer()
    keys = offer_n(sim, producer, 20)
    sim.run()
    assert producer.done
    assert producer.stats.acknowledged == 20
    assert sorted(topic.key_counts()) == sorted(keys)


def test_at_most_once_fire_and_forget_resolves_at_send():
    config = ProducerConfig(semantics=DeliverySemantics.AT_MOST_ONCE)
    sim, _, topic, producer = make_producer(config)
    offer_n(sim, producer, 10)
    sim.run()
    assert producer.stats.fire_and_forget == 10
    assert producer.stats.acknowledged == 0
    assert topic.total_messages() == 10


def test_batching_groups_messages_per_request():
    config = ProducerConfig(batch_size=5, linger_s=0.5)
    sim, _, topic, producer = make_producer(config)
    offer_n(sim, producer, 20, spacing=0.001)
    sim.run()
    assert producer.stats.requests_sent == 4
    assert topic.total_messages() == 20


def test_linger_flushes_partial_batch():
    config = ProducerConfig(batch_size=10, linger_s=0.05)
    sim, _, topic, producer = make_producer(config)
    record = ProducerRecord(payload_bytes=100)
    producer.offer(record)
    sim.run(until=1.0)
    assert topic.total_messages() == 1
    producer.finish_input()
    sim.run()
    assert producer.done


def test_finish_input_flushes_incomplete_batch_immediately():
    config = ProducerConfig(batch_size=10, linger_s=30.0)
    sim, _, topic, producer = make_producer(config)
    producer.offer(ProducerRecord(payload_bytes=100))
    producer.finish_input()
    sim.run()
    assert topic.total_messages() == 1


def test_queue_expiry_drops_stale_records():
    # Zero-capacity-ish link: nothing can be sent, so records expire.
    config = ProducerConfig(message_timeout_s=0.2)
    listener = RecordingListener()
    sim, _, _, producer = make_producer(config, listener=listener, capacity=10.0)
    offer_n(sim, producer, 5, spacing=0.0)
    sim.run(until=30.0)
    expired = [event for event in listener.events if event[0] == "expired"]
    assert len(expired) >= 3
    assert producer.stats.expired_in_queue + producer.stats.expired_after_send >= 3


def test_queue_capacity_drops_overflow():
    config = ProducerConfig(queue_capacity=2)
    sim, _, _, producer = make_producer(config, capacity=10.0)
    accepted = [producer.offer(ProducerRecord(payload_bytes=100)) for _ in range(6)]
    assert accepted.count(False) >= 3
    assert producer.stats.queue_dropped >= 3


def test_ingest_time_stamped_on_offer():
    sim, _, _, producer = make_producer()
    sim.schedule(2.0, lambda: None)
    sim.run()
    record = ProducerRecord(payload_bytes=50)
    producer.offer(record)
    assert record.ingest_time == 2.0
    producer.finish_input()
    sim.run()


def test_done_signal_waits_for_outstanding():
    sim, _, _, producer = make_producer()
    producer.offer(ProducerRecord(payload_bytes=100))
    producer.finish_input()
    assert not producer.done
    sim.run()
    assert producer.done


def test_done_with_no_input():
    sim, _, _, producer = make_producer()
    producer.finish_input()
    sim.run()
    assert producer.done


def test_offer_after_close_raises():
    sim, _, _, producer = make_producer()
    producer.close()
    with pytest.raises(RuntimeError):
        producer.offer(ProducerRecord(payload_bytes=100))


def test_exactly_once_deduplicates_broker_side():
    config = ProducerConfig(semantics=DeliverySemantics.EXACTLY_ONCE)
    sim, _, topic, producer = make_producer(config)
    keys = offer_n(sim, producer, 15)
    sim.run()
    counts = topic.key_counts()
    assert all(count == 1 for count in counts.values())
    assert sorted(counts) == sorted(keys)


def test_listener_sees_full_lifecycle():
    listener = RecordingListener()
    sim, _, _, producer = make_producer(listener=listener)
    offer_n(sim, producer, 3)
    sim.run()
    kinds = [event[0] for event in listener.events]
    assert kinds.count("ingest") == 3
    assert kinds.count("send") == 3
    assert kinds.count("acked") == 3


def test_stats_resolved_accounting():
    sim, _, _, producer = make_producer()
    offer_n(sim, producer, 8)
    sim.run()
    assert producer.stats.resolved == 8
    assert producer.outstanding == 0
