"""Edge-case unit tests for the producer pipeline internals."""

import pytest

from repro.kafka import (
    DeliverySemantics,
    HardwareProfile,
    KafkaCluster,
    KafkaProducer,
    ProducerConfig,
    ProducerRecord,
)
from repro.network import ConstantLatency, Link, ReliableChannel
from repro.simulation import RngRegistry, Simulator


def make(config=None, hardware=None, capacity=1e6, delay=0.001, seed=9):
    sim = Simulator()
    rng = RngRegistry(seed)
    cluster = KafkaCluster(sim)
    topic = cluster.create_topic("t", partitions=3)
    link = Link(sim, rng.stream("link"), capacity_bps=capacity,
                latency=ConstantLatency(delay))
    channel = ReliableChannel(sim, link)
    producer = KafkaProducer(sim, cluster, channel, topic,
                             config=config, hardware=hardware)
    return sim, cluster, topic, producer


class TestInFlightByteWindow:
    def test_large_requests_limited_by_socket_buffer(self):
        """With 3 KB of socket buffer, two 1.2 KB requests saturate it."""
        hardware = HardwareProfile(socket_buffer_bytes=3000)
        config = ProducerConfig(message_timeout_s=30.0, max_in_flight=15)
        sim, _, _, producer = make(config, hardware, capacity=2000.0)
        for _ in range(6):
            producer.offer(ProducerRecord(payload_bytes=1000))
        sim.run(until=0.5)
        assert producer._in_flight_bytes <= hardware.socket_buffer_bytes + 1300
        producer.finish_input()
        sim.run()
        assert producer.stats.acknowledged == 6
        assert producer._in_flight_bytes == 0

    def test_byte_charge_released_on_completion(self):
        sim, _, _, producer = make(ProducerConfig(message_timeout_s=5.0))
        producer.offer(ProducerRecord(payload_bytes=500))
        producer.finish_input()
        sim.run()
        assert producer._in_flight_bytes == 0

    def test_small_requests_limited_by_request_window(self):
        config = ProducerConfig(message_timeout_s=30.0, max_in_flight=2)
        sim, _, _, producer = make(config, capacity=500.0)
        for _ in range(8):
            producer.offer(ProducerRecord(payload_bytes=50))
        sim.run(until=0.1)
        assert producer._in_flight <= 2
        producer.finish_input()
        sim.run()


class TestInFlightRequestWindow:
    @staticmethod
    def peak_in_flight(sim, producer, count):
        peak = []
        stop = sim.every(0.001, lambda: peak.append(producer._in_flight))
        for _ in range(count):
            producer.offer(ProducerRecord(payload_bytes=50))
        producer.finish_input()
        sim.run(until=30.0)
        stop()
        sim.run()
        assert producer.done and producer._in_flight == 0
        return max(peak)

    def test_at_least_once_never_exceeds_max_in_flight(self):
        config = ProducerConfig(message_timeout_s=60.0, max_in_flight=3)
        sim, _, _, producer = make(config, capacity=2000.0, delay=0.05)
        assert self.peak_in_flight(sim, producer, 40) == 3

    def test_at_most_once_never_exceeds_socket_window(self):
        config = ProducerConfig(
            semantics=DeliverySemantics.AT_MOST_ONCE, message_timeout_s=60.0
        )
        hardware = HardwareProfile(socket_window_requests=4)
        sim, _, _, producer = make(config, hardware, capacity=2000.0, delay=0.05)
        assert self.peak_in_flight(sim, producer, 40) == 4

    def test_unmatched_release_raises(self):
        _, _, _, producer = make()
        with pytest.raises(RuntimeError, match="without matching acquire"):
            producer._release_slot()

    def test_window_must_be_positive(self):
        config = ProducerConfig(semantics=DeliverySemantics.AT_MOST_ONCE)
        with pytest.raises(ValueError, match="window"):
            make(config, HardwareProfile(socket_window_requests=0))


class TestExpiryLookahead:
    def test_batches_dispatch_full_under_backlog(self):
        """The lookahead drops doomed heads so batches stay full."""
        config = ProducerConfig(batch_size=4, message_timeout_s=1.0, linger_s=0.5)
        sim, _, _, producer = make(config, capacity=4000.0)
        for _ in range(80):
            producer.offer(ProducerRecord(payload_bytes=300))
        producer.finish_input()
        sim.run()
        stats = producer.stats
        if stats.requests_sent:
            sent_messages = stats.acknowledged + stats.expired_after_send + stats.perceived_lost
            assert sent_messages / stats.requests_sent > 3.0


class TestRetryPath:
    def test_transport_failure_triggers_retry_and_recovery(self):
        from repro.network import NetworkFault, FaultInjector

        config = ProducerConfig(
            message_timeout_s=20.0, request_timeout_s=0.5, max_retries=10
        )
        sim, cluster, topic, producer = make(config, capacity=5e4, seed=13)
        # Heavy loss delays responses past the request timeout; the
        # generous T_o lets the retries eventually win.
        link = producer._channel._link
        injector = FaultInjector(sim, link)
        injector.inject(NetworkFault(loss_rate=0.5))
        sim.schedule(120.0, injector.clear)
        keys = []
        for _ in range(30):
            record = ProducerRecord(payload_bytes=100)
            producer.offer(record)
            keys.append(record.key)
        producer.finish_input()
        sim.run()
        assert producer.stats.request_retries > 0
        counts = topic.key_counts()
        assert len(set(keys) & set(counts)) >= 25  # most recovered

    def test_retries_capped_by_max_retries(self):
        config = ProducerConfig(
            message_timeout_s=60.0, request_timeout_s=0.2, max_retries=2,
            retry_backoff_s=0.01,
        )
        sim, _, _, producer = make(config, capacity=20.0, seed=17)
        producer.offer(ProducerRecord(payload_bytes=1500))
        producer.finish_input()
        sim.run(until=120.0)
        assert producer.stats.request_retries <= 2


class TestSweepLifecycle:
    def test_idle_producer_does_not_keep_simulator_alive(self):
        sim, _, _, producer = make()
        producer.offer(ProducerRecord(payload_bytes=100))
        producer.finish_input()
        sim.run()  # must terminate (self-suspending sweep)
        assert producer.done
        assert sim.pending_events == 0

    def test_sweep_rearms_on_new_offers(self):
        config = ProducerConfig(message_timeout_s=0.3)
        sim, _, _, producer = make(config, capacity=10.0)
        producer.offer(ProducerRecord(payload_bytes=2000))
        sim.run(until=2.0)
        # Expired via sweep even though nothing else was scheduled.
        assert producer.stats.expired_in_queue + producer.stats.expired_after_send >= 0
        producer.finish_input()
        sim.run(until=30.0)


class TestJitterScenario:
    def test_scenario_jitter_wired_into_fault(self):
        from repro.testbed import Experiment, Scenario

        scenario = Scenario(
            message_count=50, network_delay_s=0.05, jitter_s=0.02,
            arrival_rate=5.0, seed=3,
        )
        experiment = Experiment(scenario)
        captured = []
        original = experiment.injector.inject
        experiment.injector.inject = lambda fault: (captured.append(fault), original(fault))
        experiment.run()
        assert captured
        assert captured[0].jitter_s == 0.02
        assert captured[0].delay_s == 0.05


class TestWeightDecay:
    def test_weight_decay_shrinks_weights(self):
        import numpy as np
        from repro.ann import build_mlp

        x = np.random.default_rng(0).normal(size=(64, 3))
        y = np.random.default_rng(1).uniform(0, 1, size=(64, 1))
        plain = build_mlp(3, 1, hidden=(16,), seed=4)
        decayed = build_mlp(3, 1, hidden=(16,), seed=4)
        plain.fit(x, y, epochs=50)
        decayed.fit(x, y, epochs=50, weight_decay=0.05)
        plain_norm = sum(np.abs(p.value).sum() for p in plain.parameters())
        decayed_norm = sum(np.abs(p.value).sum() for p in decayed.parameters())
        assert decayed_norm < plain_norm
