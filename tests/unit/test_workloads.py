"""Unit tests for arrival processes and stream profiles."""

import numpy as np
import pytest

from repro.kafka import KafkaCluster, KafkaProducer
from repro.network import ConstantLatency, Link, ReliableChannel
from repro.simulation import RngRegistry, Simulator
from repro.workloads import (
    ConstantRateSource,
    FullLoadSource,
    GAME_TRAFFIC,
    PAPER_STREAMS,
    PoissonSource,
    PolledSource,
    SOCIAL_MEDIA,
    StreamProfile,
    WEB_ACCESS_LOGS,
)
from repro.kafka.config import HardwareProfile


def make_producer():
    sim = Simulator()
    rng = RngRegistry(4)
    cluster = KafkaCluster(sim)
    topic = cluster.create_topic("t")
    link = Link(sim, rng.stream("link"), capacity_bps=1e6, latency=ConstantLatency(0.001))
    channel = ReliableChannel(sim, link)
    producer = KafkaProducer(sim, cluster, channel, topic)
    return sim, producer, rng.stream("source")


class TestConstantRateSource:
    def test_emits_exact_count(self):
        sim, producer, rng = make_producer()
        source = ConstantRateSource(sim, producer, 25, 100, rng, rate=100.0)
        source.start()
        sim.run()
        assert len(source.keys) == 25
        assert producer.done

    def test_deterministic_spacing(self):
        sim, producer, rng = make_producer()
        source = ConstantRateSource(sim, producer, 5, 100, rng, rate=10.0)
        source.start()
        sim.run()
        # The last record arrives at 4 intervals of 0.1s.
        assert producer.stats.ingested == 5

    def test_rate_validation(self):
        sim, producer, rng = make_producer()
        with pytest.raises(ValueError):
            ConstantRateSource(sim, producer, 5, 100, rng, rate=0.0)


class TestPoissonSource:
    def test_emits_exact_count(self):
        sim, producer, rng = make_producer()
        source = PoissonSource(sim, producer, 30, 100, rng, rate=200.0)
        source.start()
        sim.run()
        assert len(source.keys) == 30

    def test_mean_rate_roughly_holds(self):
        sim, producer, rng = make_producer()
        source = PoissonSource(sim, producer, 400, 100, rng, rate=100.0)
        source.start()
        sim.run()
        # 400 arrivals at 100/s should take about 4 simulated seconds.
        assert 2.0 < sim.now < 8.0


class TestFullLoadSource:
    def test_peak_rate_depends_on_message_size(self):
        hardware = HardwareProfile()
        sim, producer, rng = make_producer()
        small = FullLoadSource(sim, producer, 10, 100, rng, hardware, False)
        large = FullLoadSource(sim, producer, 10, 1000, rng, hardware, False)
        assert small._peak_rate > large._peak_rate

    def test_ack_handling_slows_ingest(self):
        hardware = HardwareProfile()
        sim, producer, rng = make_producer()
        amo = FullLoadSource(sim, producer, 10, 200, rng, hardware, False)
        alo = FullLoadSource(sim, producer, 10, 200, rng, hardware, True)
        assert alo._peak_rate < amo._peak_rate

    def test_bursts_create_gaps(self):
        hardware = HardwareProfile(source_burst_on_s=0.05, source_burst_off_s=1.0)
        sim, producer, rng = make_producer()
        source = FullLoadSource(sim, producer, 100, 200, rng, hardware, False)
        arrivals = []
        original = producer.offer
        producer.offer = lambda record: (arrivals.append(sim.now), original(record))[1]
        source.start()
        sim.run()
        gaps = np.diff(arrivals)
        assert gaps.max() > 10 * np.median(gaps)


class TestPolledSource:
    def test_poll_rate_caps_arrivals(self):
        sim, producer, rng = make_producer()
        source = PolledSource(sim, producer, 20, 100, rng, polling_interval_s=0.05)
        source.start()
        sim.run()
        # 20 polls at 50ms each need at least ~1 simulated second.
        assert sim.now >= 1.0
        assert len(source.keys) == 20

    def test_empty_polls_when_upstream_starved(self):
        hardware = HardwareProfile(io_bytes_per_s=100.0)  # ~1 msg/s upstream
        sim, producer, rng = make_producer()
        source = PolledSource(
            sim, producer, 5, 100, rng, polling_interval_s=0.01, hardware=hardware
        )
        source.start()
        sim.run()
        # Arrival limited by the upstream rate, not the poll rate.
        assert sim.now > 1.0

    def test_zero_delta_rejected(self):
        sim, producer, rng = make_producer()
        with pytest.raises(ValueError):
            PolledSource(sim, producer, 5, 100, rng, polling_interval_s=0.0)


class TestSourceValidation:
    def test_count_positive(self):
        sim, producer, rng = make_producer()
        with pytest.raises(ValueError):
            ConstantRateSource(sim, producer, 0, 100, rng, rate=1.0)

    def test_payload_sampler_used(self):
        sim, producer, rng = make_producer()
        source = ConstantRateSource(
            sim, producer, 5, 100, rng, rate=100.0,
            payload_sampler=lambda r: 77,
        )
        sizes = []
        original = producer.offer
        producer.offer = lambda record: (sizes.append(record.payload_bytes), original(record))[1]
        source.start()
        sim.run()
        assert sizes == [77] * 5


class TestStreamProfiles:
    def test_paper_streams_cover_table2(self):
        assert [stream.name for stream in PAPER_STREAMS] == [
            "social media messages",
            "web server access records",
            "game traffic messages",
        ]

    def test_weights_sum_to_one(self):
        for stream in PAPER_STREAMS:
            assert sum(stream.kpi_weights) == pytest.approx(1.0)

    def test_game_traffic_is_small_and_strict(self):
        assert GAME_TRAFFIC.mean_payload_bytes < 100
        assert GAME_TRAFFIC.timeliness_s < SOCIAL_MEDIA.timeliness_s

    def test_web_logs_prioritise_completeness(self):
        assert WEB_ACCESS_LOGS.kpi_weights[2] > 0.5

    def test_payload_sampler_respects_jitter(self):
        rng = np.random.default_rng(0)
        sampler = SOCIAL_MEDIA.payload_sampler()
        sizes = [sampler(rng) for _ in range(500)]
        mean = SOCIAL_MEDIA.mean_payload_bytes
        jitter = SOCIAL_MEDIA.payload_jitter
        assert all(mean * (1 - jitter) - 1 <= s <= mean * (1 + jitter) + 1 for s in sizes)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            StreamProfile("bad", 100, 0.1, 1.0, (0.5, 0.5, 0.5, 0.5), 10.0)
        with pytest.raises(ValueError):
            StreamProfile("bad", 0, 0.1, 1.0, (0.25, 0.25, 0.25, 0.25), 10.0)
