"""Unit tests for the TCP-like reliable channel."""

import numpy as np
import pytest

from repro.network import (
    BernoulliLoss,
    ConstantLatency,
    FORWARD,
    Link,
    NoLoss,
    REVERSE,
    ReliableChannel,
    SendFailure,
)
from repro.network.transport import MAX_RETRANSMITS
from repro.simulation import Simulator


def make_channel(loss_rate=0.0, capacity=1e6, delay=0.001, seed=5):
    sim = Simulator()
    rng = np.random.default_rng(seed)
    loss = BernoulliLoss(loss_rate) if loss_rate else NoLoss()
    link = Link(sim, rng, capacity_bps=capacity, latency=ConstantLatency(delay), loss=loss)
    channel = ReliableChannel(sim, link)
    return sim, link, channel


def test_clean_send_delivers_payload_once():
    sim, _, channel = make_channel()
    received = []
    channel.set_receiver(FORWARD, lambda payload, size: received.append((payload, size)))
    channel.send(FORWARD, 500, payload="hello")
    sim.run()
    assert received == [("hello", 500)]


def test_on_delivered_fires_after_all_acks():
    sim, _, channel = make_channel()
    delivered = []
    channel.send(FORWARD, 500, payload="p", on_delivered=lambda p, rtt: delivered.append(rtt))
    sim.run()
    assert len(delivered) == 1
    assert delivered[0] > 0.0


def test_multi_segment_message_reassembles():
    sim, _, channel = make_channel()
    received = []
    channel.set_receiver(FORWARD, lambda payload, size: received.append(size))
    channel.send(FORWARD, 5000, payload="big")  # several MTU segments
    sim.run()
    assert received == [5000]
    assert channel.stats(FORWARD).segments_sent >= 4


def test_lossy_link_recovers_via_retransmission():
    sim, _, channel = make_channel(loss_rate=0.3)
    received = []
    channel.set_receiver(FORWARD, lambda payload, size: received.append(payload))
    for index in range(30):
        channel.send(FORWARD, 400, payload=index)
    sim.run()
    assert sorted(received) == list(range(30))
    assert channel.stats(FORWARD).retransmissions > 0


def test_retries_exhausted_reports_failure():
    # At 90 % loss a segment often goes unacknowledged through all
    # MAX_RETRANSMITS retransmissions; without a deadline that is the only
    # way a send fails.
    sim, _, channel = make_channel(loss_rate=0.9, seed=11)
    failures = []
    for index in range(10):
        channel.send(
            FORWARD, 400, payload=index,
            on_failed=lambda payload, reason: failures.append(reason),
        )
    sim.run()
    assert failures
    assert set(failures) == {SendFailure.RETRIES_EXHAUSTED}
    assert channel.stats(FORWARD).messages_failed == len(failures)
    assert channel.stats(FORWARD).retransmissions >= len(failures) * MAX_RETRANSMITS


def test_deadline_aborts_send():
    sim, _, channel = make_channel(loss_rate=0.97, seed=13)
    failures = []
    channel.send(
        FORWARD, 400, payload="late",
        deadline=0.5,
        on_failed=lambda payload, reason: failures.append(reason),
    )
    sim.run()
    assert failures == [SendFailure.DEADLINE]
    assert sim.now >= 0.5


def test_expired_deadline_fails_immediately():
    sim, _, channel = make_channel()
    sim.schedule(1.0, lambda: None)
    sim.run()
    failures = []
    channel.send(FORWARD, 100, deadline=0.5, on_failed=lambda p, r: failures.append(r))
    sim.run()
    assert failures == [SendFailure.DEADLINE]


def test_duplicate_segments_not_delivered_twice():
    # Heavy ACK loss forces data retransmissions that the receiver dedups.
    sim, link, channel = make_channel(loss_rate=0.4, seed=17)
    received = []
    channel.set_receiver(FORWARD, lambda payload, size: received.append(payload))
    for index in range(20):
        channel.send(FORWARD, 300, payload=index)
    sim.run()
    assert len(received) == len(set(received))


def test_reverse_direction_is_symmetric():
    sim, _, channel = make_channel()
    received = []
    channel.set_receiver(REVERSE, lambda payload, size: received.append(payload))
    channel.send(REVERSE, 200, payload="resp")
    sim.run()
    assert received == ["resp"]


def test_stats_track_message_counts():
    sim, _, channel = make_channel()
    for _ in range(3):
        channel.send(FORWARD, 200)
    sim.run()
    stats = channel.stats(FORWARD)
    assert stats.messages_sent == 3
    assert stats.messages_delivered == 3
    assert stats.messages_failed == 0


def test_rtt_estimator_converges():
    sim, _, channel = make_channel(delay=0.05)
    for _ in range(10):
        channel.send(FORWARD, 200)
    sim.run()
    endpoint = channel._endpoint(FORWARD)
    assert endpoint.srtt is not None
    assert endpoint.srtt == pytest.approx(0.1, rel=0.5)


def test_size_must_be_positive():
    _, _, channel = make_channel()
    with pytest.raises(ValueError):
        channel.send(FORWARD, 0)


def test_unknown_direction_rejected():
    _, _, channel = make_channel()
    with pytest.raises(ValueError):
        channel.send("sideways", 100)
