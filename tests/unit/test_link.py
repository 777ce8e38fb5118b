"""Unit tests for the finite-capacity link."""

import numpy as np
import pytest

from repro.network import (
    BernoulliLoss,
    ConstantLatency,
    FORWARD,
    Link,
    NoLoss,
    Packet,
    PacketKind,
    REVERSE,
    UniformLatency,
)
from repro.simulation import Simulator


def make_packet(size=1000):
    return Packet(kind=PacketKind.DATA, size_bytes=size, message_id=0)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def test_packet_arrives_after_tx_plus_propagation(sim, rng):
    link = Link(sim, rng, capacity_bps=1000.0, latency=ConstantLatency(0.5))
    arrivals = []
    link.send(make_packet(size=100), FORWARD, lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [pytest.approx(0.1 + 0.5)]


def test_installed_latency_model_sets_the_delay(sim, rng):
    link = Link(sim, rng, capacity_bps=1000.0, latency=ConstantLatency(0.5))
    link.forward.latency = ConstantLatency(0.25)
    link.reverse.latency = UniformLatency(0.25, 0.1)
    arrivals = []
    link.send(make_packet(size=100), FORWARD, lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [0.1 + 0.25]
    # A jittered model is sampled per packet, from the link's stream.
    expected = UniformLatency(0.25, 0.1).sample(np.random.default_rng(3))
    sent = sim.now
    link.send(make_packet(size=100), REVERSE, lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals[1] == sent + 0.1 + expected


def test_fifo_serialisation_queues_packets(sim, rng):
    link = Link(
        sim, rng, capacity_bps=1000.0, latency=ConstantLatency(0.0), max_queue_delay_s=10.0
    )
    arrivals = []
    for _ in range(3):
        link.send(make_packet(size=500), FORWARD, lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [pytest.approx(0.5), pytest.approx(1.0), pytest.approx(1.5)]


def test_shared_capacity_couples_directions(sim, rng):
    link = Link(
        sim, rng, capacity_bps=1000.0, latency=ConstantLatency(0.0), max_queue_delay_s=10.0
    )
    arrivals = []
    link.send(make_packet(size=500), FORWARD, lambda p: arrivals.append(("fwd", sim.now)))
    link.send(make_packet(size=500), REVERSE, lambda p: arrivals.append(("rev", sim.now)))
    sim.run()
    # The reverse packet had to wait for the forward transmission.
    assert arrivals == [("fwd", pytest.approx(0.5)), ("rev", pytest.approx(1.0))]


def test_tail_drop_beyond_queue_bound(sim, rng):
    link = Link(
        sim, rng, capacity_bps=1000.0, latency=ConstantLatency(0.0), max_queue_delay_s=1.0
    )
    accepted = [
        link.send(make_packet(size=600), FORWARD, lambda p: None) for _ in range(5)
    ]
    # 600B at 1000B/s = 0.6s each; the third packet sees 1.2s backlog > 1.0s.
    assert accepted == [True, True, False, False, False]
    assert link.forward.stats.dropped_queue == 3


def test_lossy_link_drops_without_arrival(sim, rng):
    link = Link(sim, rng, capacity_bps=1e6, loss=BernoulliLoss(0.999))
    # Independent loss model instances per direction are installed by the
    # constructor caller; here both share, which is fine for Bernoulli.
    arrivals = []
    for _ in range(50):
        link.send(make_packet(), FORWARD, lambda p: arrivals.append(1))
    sim.run()
    assert len(arrivals) < 5
    assert link.forward.stats.dropped_loss > 40


def test_lost_packet_still_consumes_capacity(sim, rng):
    link = Link(
        sim,
        rng,
        capacity_bps=1000.0,
        latency=ConstantLatency(0.0),
        loss=BernoulliLoss(0.999),
        max_queue_delay_s=10.0,
    )
    link.send(make_packet(size=1000), FORWARD, lambda p: None)
    assert link.forward.stats.dropped_loss == 1
    link.forward.loss = NoLoss()
    arrivals = []
    link.send(make_packet(size=1000), FORWARD, lambda p: arrivals.append(sim.now))
    sim.run()
    # 1 s on an idle link; the lost packet's transmission adds 1 s.
    assert arrivals == [pytest.approx(2.0)]


def test_stats_count_sent_and_delivered(sim, rng):
    link = Link(sim, rng, capacity_bps=1e6)
    for _ in range(4):
        link.send(make_packet(size=100), FORWARD, lambda p: None)
    sim.run()
    assert link.forward.stats.sent == 4
    assert link.forward.stats.delivered == 4
    assert link.forward.stats.bytes_sent == 400


def test_direction_lookup(sim, rng):
    link = Link(sim, rng)
    assert link.direction(FORWARD) is link.forward
    assert link.direction(REVERSE) is link.reverse
    with pytest.raises(ValueError):
        link.direction("sideways")


def test_capacity_validation(sim, rng):
    with pytest.raises(ValueError):
        Link(sim, rng, capacity_bps=0.0)
