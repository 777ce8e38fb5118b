"""Unit tests for brokers and the cluster."""

import pytest

from repro.kafka import (
    Broker,
    BrokerConfig,
    KafkaCluster,
    Partition,
    ProduceRequest,
    ProducerRecord,
)
from repro.simulation import Simulator


def make_request(partition, records=None, acks=True):
    records = records or [ProducerRecord(payload_bytes=100, key=0)]
    for record in records:
        record.ingest_time = 0.0
    return ProduceRequest(
        request_id=0,
        records=records, partition=partition, require_acks=acks, wire_bytes=300
    )


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def partition():
    return Partition("t", 0, "broker-0", ["broker-0", "broker-1"])


class TestBroker:
    def test_produce_appends_and_responds(self, sim, partition):
        broker = Broker(sim, "broker-0")
        responses = []
        broker.handle_produce(make_request(partition), responses.append)
        sim.run()
        assert len(partition.log) == 1
        assert len(responses) == 1
        assert responses[0].base_offset == 0
        assert responses[0].appended == 1

    def test_service_time_includes_processing_and_append(self, sim, partition):
        config = BrokerConfig(processing_time_s=0.01, append_bytes_per_s=1e4,
                              replication_factor=1)
        broker = Broker(sim, "broker-0", config)
        request = make_request(partition)
        assert broker.service_time(request) == pytest.approx(0.01 + 100 / 1e4)

    def test_acks_all_extra_latency(self, sim, partition):
        config = BrokerConfig(replication_factor=3, acks_all_extra_s=0.02)
        broker = Broker(sim, "broker-0", config)
        with_acks = broker.service_time(make_request(partition, acks=True))
        without = broker.service_time(make_request(partition, acks=False))
        assert with_acks - without == pytest.approx(0.02)

    def test_requests_queue_fifo(self, sim, partition):
        config = BrokerConfig(processing_time_s=0.1, replication_factor=1)
        broker = Broker(sim, "broker-0", config)
        finish_times = []
        for _ in range(3):
            broker.handle_produce(
                make_request(partition), lambda r: finish_times.append(sim.now)
            )
        sim.run()
        assert len(finish_times) == 3
        assert finish_times == sorted(finish_times)
        assert finish_times[-1] >= 0.3

    def test_crashed_broker_drops_requests(self, sim, partition):
        broker = Broker(sim, "broker-0")
        broker.crash()
        responses = []
        broker.handle_produce(make_request(partition), responses.append)
        sim.run()
        assert responses == []
        assert broker.requests_dropped == 1
        assert len(partition.log) == 0

    def test_crash_during_processing_drops(self, sim, partition):
        broker = Broker(sim, "broker-0", BrokerConfig(processing_time_s=1.0))
        responses = []
        broker.handle_produce(make_request(partition), responses.append)
        sim.schedule(0.5, broker.crash)
        sim.run()
        assert responses == []

    def test_append_listener_fires_per_record(self, sim, partition):
        broker = Broker(sim, "broker-0")
        appended = []
        broker.add_append_listener(lambda record, part, offset: appended.append(offset))
        records = [ProducerRecord(payload_bytes=10, key=key) for key in range(3)]
        broker.handle_produce(make_request(partition, records))
        sim.run()
        assert appended == [0, 1, 2]

    def test_restore_resets_busy(self, sim):
        broker = Broker(sim, "broker-0")
        broker.crash()
        broker.restore()
        assert broker.available


class TestCluster:
    def test_create_topic_spreads_leaders(self, sim):
        cluster = KafkaCluster(sim, broker_count=3)
        topic = cluster.create_topic("t", partitions=6)
        leaders = {p.leader_broker_id for p in topic.partitions}
        assert leaders == {"broker-0", "broker-1", "broker-2"}

    def test_replication_factor_caps_at_broker_count(self, sim):
        cluster = KafkaCluster(sim, broker_count=2)
        topic = cluster.create_topic("t", partitions=1)
        partition = topic.partitions[0]
        assert partition.follower_broker_ids == ["broker-1"]  # leader + one follower

    def test_duplicate_topic_rejected(self, sim):
        cluster = KafkaCluster(sim)
        cluster.create_topic("t")
        with pytest.raises(ValueError):
            cluster.create_topic("t")

    def test_topic_lookup(self, sim):
        cluster = KafkaCluster(sim)
        topic = cluster.create_topic("t")
        assert cluster.topic("t") is topic
        with pytest.raises(KeyError):
            cluster.topic("missing")

    def test_produce_routes_to_leader(self, sim):
        cluster = KafkaCluster(sim)
        topic = cluster.create_topic("t", partitions=1)
        partition = topic.partitions[0]
        cluster.handle_produce(make_request(partition))
        sim.run()
        leader = cluster.leader_for(partition)
        assert leader.requests_handled == 1

    def test_crash_triggers_leader_election(self, sim):
        cluster = KafkaCluster(sim, broker_count=3)
        topic = cluster.create_topic("t", partitions=3)
        victims = [p for p in topic.partitions if p.leader_broker_id == "broker-0"]
        cluster.set_broker_availability("broker-0", False)
        for partition in victims:
            assert partition.leader_broker_id != "broker-0"

    def test_failover_serves_every_entry_with_its_offset(self, sim):
        cluster = KafkaCluster(sim, broker_count=3)
        partition = cluster.create_topic("t", partitions=1).partitions[0]
        assert partition.leader_broker_id == "broker-0"
        count = 12
        for _ in range(count):
            cluster.handle_produce(make_request(partition))
        sim.run()
        before = partition.read()
        assert [entry.offset for entry in before] == list(range(count))
        assert partition.high_watermark == count
        cluster.set_broker_availability("broker-0", False)
        assert partition.leader_broker_id == "broker-1"
        assert partition.read() == before
        assert partition.high_watermark == count
        # The new leader appends after the entries it inherited.
        responses = []
        cluster.handle_produce(make_request(partition), responses.append)
        sim.run()
        assert cluster.leader_for(partition).broker_id == "broker-1"
        assert responses[0].base_offset == count
        assert partition.high_watermark == count + 1

    def test_restore_brings_broker_back(self, sim):
        cluster = KafkaCluster(sim)
        cluster.create_topic("t")
        cluster.set_broker_availability("broker-1", False)
        cluster.set_broker_availability("broker-1", True)
        assert cluster.brokers["broker-1"].available

    def test_unknown_broker_rejected(self, sim):
        cluster = KafkaCluster(sim)
        with pytest.raises(KeyError):
            cluster.set_broker_availability("broker-9", False)

    def test_append_listener_attaches_to_all_brokers(self, sim):
        cluster = KafkaCluster(sim)
        topic = cluster.create_topic("t", partitions=3)
        seen = []
        cluster.add_append_listener(lambda record, part, offset: seen.append(part.index))
        for partition in topic.partitions:
            cluster.handle_produce(make_request(partition))
        sim.run()
        assert sorted(seen) == [0, 1, 2]
