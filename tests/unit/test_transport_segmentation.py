"""Unit tests for multi-segment transport behaviour."""

import numpy as np

from repro.network import (
    BernoulliLoss,
    ConstantLatency,
    FORWARD,
    Link,
    ReliableChannel,
    SendFailure,
)
from repro.network.transport import SEGMENT_PAYLOAD_BYTES
from repro.simulation import Simulator


def make(loss=0.0, capacity=1e6, seed=23):
    sim = Simulator()
    rng = np.random.default_rng(seed)
    link = Link(
        sim, rng, capacity_bps=capacity, latency=ConstantLatency(0.001),
        loss=BernoulliLoss(loss) if loss else None, max_queue_delay_s=100.0,
    )
    return sim, link, ReliableChannel(sim, link)


def test_segment_count_matches_mtu():
    sim, link, channel = make()
    channel.send(FORWARD, 10_000)
    sim.run()
    assert SEGMENT_PAYLOAD_BYTES == 1500 - 66
    expected = -(-10_000 // SEGMENT_PAYLOAD_BYTES)
    assert channel.stats(FORWARD).segments_sent == expected


def test_partial_arrival_never_delivers():
    """If one segment exhausts retries, the message must not surface."""
    sim, link, channel = make(loss=0.5, seed=3)
    received = []
    failed = []
    channel.set_receiver(FORWARD, lambda payload, size: received.append(payload))
    for index in range(30):
        channel.send(
            FORWARD, 4000, payload=index,
            on_failed=lambda payload, reason: failed.append(payload),
        )
    sim.run()
    # Every message resolves: fully arrived, sender-failed, or both (the
    # ack-loss race: receiver complete, sender unaware — Kafka's Case 5
    # substrate).  What never happens is a message in neither set, or a
    # duplicate receiver-side delivery.
    assert failed  # the loss rate is high enough that some send fails
    assert set(received) | set(failed) == set(range(30))
    assert len(received) == len(set(received))


def test_multi_segment_deadline_covers_all_segments():
    sim, link, channel = make(loss=0.95, seed=5)
    outcomes = []
    channel.send(
        FORWARD, 6000, deadline=1.0,
        on_failed=lambda payload, reason: outcomes.append(reason),
    )
    sim.run()
    assert outcomes == [SendFailure.DEADLINE]
    assert sim.now >= 1.0


def test_segment_sizes_sum_to_message():
    sim, link, channel = make()
    channel.send(FORWARD, 3000)
    sim.run()
    # Wire bytes = payload + one header per segment.
    segments = channel.stats(FORWARD).segments_sent
    assert link.forward.stats.bytes_sent == 3000 + segments * 66


def test_interleaved_messages_reassemble_independently():
    sim, link, channel = make(capacity=5e4)
    received = []
    channel.set_receiver(FORWARD, lambda payload, size: received.append((payload, size)))
    channel.send(FORWARD, 4000, payload="big-a")
    channel.send(FORWARD, 100, payload="small")
    channel.send(FORWARD, 4000, payload="big-b")
    sim.run()
    assert sorted(size for _, size in received) == [100, 4000, 4000]
    assert {payload for payload, _ in received} == {"big-a", "small", "big-b"}
