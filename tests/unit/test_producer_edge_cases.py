"""Edge-case unit tests for the producer pipeline internals."""

import pytest

from repro.kafka import (
    DeliverySemantics,
    KafkaCluster,
    KafkaProducer,
    ProducerConfig,
    ProducerListener,
    ProducerRecord,
    reconcile,
)
from repro.kafka.config import SOCKET_BUFFER_BYTES, SOCKET_WINDOW_REQUESTS
from repro.network import ConstantLatency, Link, ReliableChannel
from repro.observability.trace import Tracer
from repro.simulation import RngRegistry, Simulator


def make(config=None, capacity=1e6, delay=0.001, seed=9):
    sim = Simulator()
    rng = RngRegistry(seed)
    cluster = KafkaCluster(sim)
    topic = cluster.create_topic("t", partitions=3)
    link = Link(sim, rng.stream("link"), capacity_bps=capacity,
                latency=ConstantLatency(delay))
    channel = ReliableChannel(sim, link)
    producer = KafkaProducer(sim, cluster, channel, topic, config=config)
    return sim, cluster, topic, producer


class TestInFlightByteWindow:
    def test_large_requests_limited_by_socket_buffer(self):
        """With 3 KB of socket buffer, two 1.2 KB requests saturate it."""
        config = ProducerConfig(message_timeout_s=30.0, max_in_flight=15)
        sim, _, _, producer = make(config, capacity=2000.0)
        for _ in range(6):
            producer.offer(ProducerRecord(payload_bytes=1000))
        sim.run(until=0.5)
        assert producer._in_flight_bytes <= SOCKET_BUFFER_BYTES + 1300
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
        # 12 requests of 50 + 200 B fill the 3,000-B socket buffer exactly,
        # so the buffer stops nothing before the 12th request.
        sim, _, _, producer = make(config, capacity=2000.0, delay=0.05)
        assert self.peak_in_flight(sim, producer, 40) == SOCKET_WINDOW_REQUESTS

    def test_unmatched_release_raises(self):
        _, _, _, producer = make()
        with pytest.raises(RuntimeError, match="without matching acquire"):
            producer._release_slot()


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
        assert reconcile(keys, topic).delivered_unique >= 25  # most recovered

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

    def test_exhausted_retries_free_the_slot_and_socket_bytes(self):
        # No broker ever answers, so both one-record batches run out of
        # retries long before their delivery timeout.  With one in-flight
        # slot the second batch is sent only once the first gives up.
        config = ProducerConfig(
            message_timeout_s=60.0, request_timeout_s=0.2, max_retries=1,
            retry_backoff_s=0.01, max_in_flight=1,
        )
        sim, cluster, _, producer = make(config)
        for broker_id in cluster.broker_ids:
            cluster.set_broker_availability(broker_id, False)
        producer.offer(ProducerRecord(payload_bytes=100))
        producer.offer(ProducerRecord(payload_bytes=100))
        sim.run(until=1.0)
        stats = producer.stats
        assert (stats.requests_sent, stats.request_retries) == (4, 2)
        assert stats.perceived_lost == 2
        assert stats.expired_in_queue + stats.expired_after_send == 0
        assert producer._in_flight == 0
        assert producer._in_flight_bytes == 0
        producer.finish_input()
        sim.run()
        assert producer.done


class TestSweepLifecycle:
    def test_idle_producer_does_not_keep_simulator_alive(self):
        sim, _, _, producer = make()
        producer.offer(ProducerRecord(payload_bytes=100))
        producer.finish_input()
        sim.run()  # must terminate (self-suspending sweep)
        assert producer.done
        assert sim.pending_events == 0

    def test_sweep_rearms_on_new_offers(self):
        # One in-flight slot, held by a large request on a slow link: the
        # record queued behind it can only expire through the sweep.
        config = ProducerConfig(message_timeout_s=1.0, max_in_flight=1)
        sim, _, _, producer = make(config, capacity=2000.0)
        producer.offer(ProducerRecord(payload_bytes=10))
        sim.run()  # delivered, and the idle sweep suspended itself
        assert producer.stats.acknowledged == 1
        assert sim.pending_events == 0
        start = sim.now
        producer.offer(ProducerRecord(payload_bytes=2000))
        producer.offer(ProducerRecord(payload_bytes=10))
        # The queued record times out at start + 1.0: after the first sweep
        # tick (start + 0.625), before the second (start + 1.25).  The large
        # request's transport deadline is start + 5.0.
        sim.run(until=start + 2.0)
        assert producer.stats.expired_in_queue == 1
        assert producer.stats.expired_after_send == 0
        producer.finish_input()
        sim.run()
        assert producer.done


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


class TestExpirySites:
    """Each place the producer gives up on a record past its delivery timeout.

    Every give-up counts in exactly one of ``expired_in_queue`` and
    ``expired_after_send``, reports the same ``after_send`` flag to the
    listener and writes one ``expired`` trace record.
    """

    class Listener(ProducerListener):
        def __init__(self):
            self.expired = []

        def on_expired(self, record, after_send):
            self.expired.append((record.key, after_send))

    def run(self, config, payloads, delay=0.001, brokers_down=False):
        sim = Simulator()
        cluster = KafkaCluster(sim)
        topic = cluster.create_topic("t", partitions=1)
        link = Link(sim, RngRegistry(9).stream("link"), latency=ConstantLatency(delay))
        if brokers_down:
            # Requests reach the cluster but no response ever comes back.
            for broker_id in cluster.broker_ids:
                cluster.set_broker_availability(broker_id, False)
        tracer = Tracer()
        listener = self.Listener()
        producer = KafkaProducer(
            sim, cluster, ReliableChannel(sim, link), topic,
            config=config, listener=listener, tracer=tracer,
        )
        for payload in payloads:
            producer.offer(ProducerRecord(payload_bytes=payload))
        producer.finish_input()
        sim.run()
        assert producer.done
        traced = [
            (r["key"], r["after_send"], r["t"])
            for r in tracer.records()
            if r["kind"] == "expired"
        ]
        return producer.stats, listener.expired, traced

    def test_queue_head(self):
        # One request in flight at a time and a 0.6 s round trip: the
        # second record waits behind the first past its 0.5 s timeout.
        config = ProducerConfig(
            max_in_flight=1, message_timeout_s=0.5, request_timeout_s=2.0
        )
        stats, expired, traced = self.run(config, [100, 100], delay=0.3)
        assert (stats.expired_in_queue, stats.expired_after_send) == (1, 0)
        assert stats.acknowledged == 1
        assert expired == [(1, False)]
        assert traced == [(1, False, 0.5)]

    def test_dispatch(self):
        # The lookahead prices a full batch of the 100 B head; the 50 kB
        # record behind it makes serialisation outlast both timeouts.
        config = ProducerConfig(batch_size=2, linger_s=0.01, message_timeout_s=0.2)
        stats, expired, traced = self.run(config, [100, 50_000])
        assert (stats.expired_in_queue, stats.expired_after_send) == (2, 0)
        assert stats.requests_sent == 0
        assert expired == [(0, False), (1, False)]
        assert [(key, after) for key, after, _ in traced] == expired
        assert all(t > 0.2 for _, _, t in traced)

    def test_request_failure(self):
        # The request timer fires after the record's delivery timeout.
        config = ProducerConfig(message_timeout_s=0.3, request_timeout_s=0.5)
        stats, expired, traced = self.run(config, [100], brokers_down=True)
        assert (stats.expired_in_queue, stats.expired_after_send) == (0, 1)
        assert (stats.requests_sent, stats.request_retries) == (1, 0)
        assert expired == [(0, True)]
        assert [(key, after) for key, after, _ in traced] == expired
        assert traced[0][2] > 0.5

    def test_retry_time(self):
        # The request fails in time for a retry, but the backoff outlasts
        # the delivery timeout, so the retry finds the record expired.
        config = ProducerConfig(
            message_timeout_s=0.3, request_timeout_s=0.1, retry_backoff_s=0.5
        )
        stats, expired, traced = self.run(config, [100], brokers_down=True)
        assert (stats.expired_in_queue, stats.expired_after_send) == (0, 1)
        assert (stats.requests_sent, stats.request_retries) == (1, 0)
        assert expired == [(0, True)]
        assert [(key, after) for key, after, _ in traced] == expired
        assert traced[0][2] > 0.6
