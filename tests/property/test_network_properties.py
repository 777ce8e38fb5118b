"""Property-based tests on the network substrate."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import (
    BernoulliLoss,
    FORWARD,
    GilbertElliottLoss,
    Link,
    NetworkFault,
    ReliableChannel,
)
from repro.simulation import Simulator


def _gilbert_elliott_run(p_gb, p_bg, loss_bad, count=40_000):
    model = GilbertElliottLoss(p_gb, p_bg, loss_good=0.0, loss_bad=loss_bad)
    rng = np.random.default_rng(17)
    losses = sum(model.is_lost(rng) for _ in range(count))
    return model, losses / count


@given(
    p_gb=st.floats(min_value=0.001, max_value=0.5),
    p_bg=st.floats(min_value=0.001, max_value=0.5),
    loss_bad=st.floats(min_value=0.1, max_value=1.0),
)
# Long bursts: a deviation of ~2 sigma under the autocorrelated variance,
# which the i.i.d. bound (0.03 here) used to reject.
@example(p_gb=0.015625, p_bg=0.015625, loss_bad=1.0)
@settings(max_examples=20, deadline=None)
def test_gilbert_elliott_long_run_frequency_matches_theory(p_gb, p_bg, loss_bad):
    """Gilbert-Elliott losses are autocorrelated: the chain's state at lag k
    correlates with lambda**k, lambda = 1 - p_gb - p_bg, so the variance of
    the observed loss frequency over n packets is

        [pi*l*(1 - pi*l) + 2*l**2*pi*(1 - pi)*lambda/(1 - lambda)] / n

    (pi the stationary Bad fraction, l the Bad-state loss probability), not
    the i.i.d. pi*l*(1 - pi*l) / n."""
    count = 40_000
    model, observed = _gilbert_elliott_run(p_gb, p_bg, loss_bad, count)
    expected = model.expected_loss_rate()
    pi_bad = model.stationary_bad_fraction()
    lam = 1.0 - p_gb - p_bg
    variance = (
        expected * (1 - expected)
        + 2 * loss_bad**2 * pi_bad * (1 - pi_bad) * lam / (1 - lam)
    ) / count
    tolerance = 4 * np.sqrt(variance) + 0.02
    assert abs(observed - expected) < tolerance


@given(
    p_gb=st.floats(min_value=0.05, max_value=0.95),
    loss_bad=st.floats(min_value=0.1, max_value=1.0),
)
@settings(max_examples=10, deadline=None)
def test_gilbert_elliott_memoryless_chain_keeps_the_iid_bound(p_gb, loss_bad):
    """With p_gb + p_bg = 1 (lambda = 0) the next state no longer depends on
    the current one, the draws are i.i.d., and the tight bound holds."""
    count = 40_000
    model, observed = _gilbert_elliott_run(p_gb, 1.0 - p_gb, loss_bad, count)
    expected = model.expected_loss_rate()
    tolerance = 4 * np.sqrt(expected * (1 - expected) / count) + 0.02
    assert abs(observed - expected) < tolerance


@given(rate=st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=15, deadline=None)
def test_fault_build_loss_matches_requested_rate(rate):
    fault = NetworkFault(loss_rate=rate)
    assert fault.build_loss().expected_loss_rate() == rate
    bursty = NetworkFault(loss_rate=rate, bursty=True)
    assert abs(bursty.build_loss().expected_loss_rate() - rate) < 0.02


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=25),
    size=st.integers(min_value=1, max_value=4000),
    loss=st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=20, deadline=None)
def test_transport_without_deadline_delivers_or_fails_every_message(
    seed, count, size, loss
):
    """Every send resolves exactly once: delivered or failed, never both."""
    sim = Simulator()
    rng = np.random.default_rng(seed)
    link = Link(sim, rng, capacity_bps=1e6, loss=BernoulliLoss(loss))
    channel = ReliableChannel(sim, link)
    outcomes = {}

    def delivered(payload, rtt):
        assert payload not in outcomes
        outcomes[payload] = "delivered"

    def failed(payload, reason):
        assert payload not in outcomes
        outcomes[payload] = "failed"

    received = []
    channel.set_receiver(FORWARD, lambda payload, n: received.append(payload))
    for index in range(count):
        channel.send(FORWARD, size, payload=index, on_delivered=delivered, on_failed=failed)
    sim.run()
    assert len(outcomes) == count
    # Receiver-side delivery implies no duplicate handoffs.
    assert len(received) == len(set(received))
    # Sender-side "delivered" implies the receiver actually got it.
    for payload, outcome in outcomes.items():
        if outcome == "delivered":
            assert payload in received


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sizes=st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=20),
)
@settings(max_examples=20, deadline=None)
def test_clean_link_conserves_bytes(seed, sizes):
    sim = Simulator()
    rng = np.random.default_rng(seed)
    link = Link(sim, rng, capacity_bps=1e9, max_queue_delay_s=1e6)
    channel = ReliableChannel(sim, link)
    received_sizes = []
    channel.set_receiver(FORWARD, lambda payload, n: received_sizes.append(n))
    for size in sizes:
        channel.send(FORWARD, size)
    sim.run()
    assert sorted(received_sizes) == sorted(sizes)
