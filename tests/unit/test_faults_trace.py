"""Unit tests for fault injection and network traces."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.network import (
    BernoulliLoss,
    FaultInjector,
    GilbertElliottLoss,
    GilbertElliottRateProcess,
    Link,
    NetworkFault,
    NetworkTrace,
    NoLoss,
    TracePoint,
    generate_paper_trace,
)
from repro.simulation import Simulator


@pytest.fixture
def wiring():
    sim = Simulator()
    link = Link(sim, np.random.default_rng(1))
    return sim, link, FaultInjector(sim, link)


class TestNetworkFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkFault(delay_s=-1)
        with pytest.raises(ValueError):
            NetworkFault(loss_rate=1.0)
        with pytest.raises(ValueError):
            NetworkFault(burst_length=0.5)

    def test_build_loss_bernoulli(self):
        assert isinstance(NetworkFault(loss_rate=0.1).build_loss(), BernoulliLoss)

    def test_build_loss_zero_is_noloss(self):
        assert isinstance(NetworkFault().build_loss(), NoLoss)

    def test_build_loss_bursty_matches_rate(self):
        model = NetworkFault(loss_rate=0.15, bursty=True, burst_length=5).build_loss()
        assert isinstance(model, GilbertElliottLoss)
        assert model.expected_loss_rate() == pytest.approx(0.15, rel=0.05)

    def test_build_latency_constant(self):
        model = NetworkFault(delay_s=0.1).build_latency()
        assert model.mean() == pytest.approx(0.1)


class TestFaultInjector:
    def test_inject_installs_treatments(self, wiring):
        _, link, injector = wiring
        injector.inject(NetworkFault(delay_s=0.2, loss_rate=0.1))
        assert link.forward.latency.mean() == pytest.approx(0.2)
        assert link.forward.loss.expected_loss_rate() == pytest.approx(0.1)
        assert link.reverse.loss.expected_loss_rate() == pytest.approx(0.1)

    def test_directions_get_independent_loss_instances(self, wiring):
        _, link, injector = wiring
        injector.inject(NetworkFault(loss_rate=0.1, bursty=True))
        assert link.forward.loss is not link.reverse.loss

    def test_clear_restores_baseline(self, wiring):
        _, link, injector = wiring
        baseline_latency = link.forward.latency
        injector.inject(NetworkFault(delay_s=0.5))
        injector.clear()
        assert link.forward.latency is baseline_latency

    def test_scheduled_injection_fires(self, wiring):
        sim, link, injector = wiring
        baseline_latency = link.forward.latency
        injector.inject_at(5.0, NetworkFault(delay_s=0.3))
        injector.clear_at(10.0)
        sim.run(until=6.0)
        assert link.forward.latency.mean() == pytest.approx(0.3)
        sim.run(until=11.0)
        assert link.forward.latency is baseline_latency

    def test_broker_callbacks(self, wiring):
        sim, _, injector = wiring
        events = []
        injector.on_broker_availability(lambda broker, up: events.append((broker, up)))
        injector.crash_broker_at(1.0, "broker-0")
        injector.restore_broker_at(2.0, "broker-0")
        sim.run()
        assert events == [("broker-0", False), ("broker-0", True)]


class TestTrace:
    def test_generate_paper_trace_shape(self):
        rng = np.random.default_rng(2)
        trace = generate_paper_trace(rng, duration_s=300, interval_s=10)
        assert len(trace) == 30
        assert trace.duration_s == 300
        assert all(p.delay_s >= 0.02 for p in trace)
        assert all(0.0 <= p.loss_rate <= 0.95 for p in trace)

    def test_trace_at_clamps(self):
        trace = NetworkTrace(interval_s=10, points=[
            TracePoint(0, 0.01, 0.0), TracePoint(10, 0.02, 0.1),
        ])
        assert trace.at(-5).delay_s == 0.01
        assert trace.at(15).loss_rate == 0.1
        assert trace.at(1e9).loss_rate == 0.1

    @pytest.mark.parametrize(
        "duration_s, interval_s, step_s, count",
        [(300, 10, 0.1, 3000), (1, 0.1, 0.1, 10), (0.7, 0.1, 0.1, 7),
         (600, 60, 60, 10), (100, 10, 30, 4),
         (3, 0.1, 0.1, 30), (9, 0.3, 0.3, 30), (3, 0.1, 0.3, 10)],
    )
    def test_sample_count_and_times(self, duration_s, interval_s, step_s, count):
        steps = int(round(duration_s / interval_s))
        trace = NetworkTrace(interval_s=interval_s, points=[
            TracePoint(i * interval_s, 0.01, 0.0) for i in range(steps)
        ])
        samples = list(trace.sample(step_s))
        times = [time_s for time_s, _ in samples]
        assert len(times) == count
        assert times == [i * float(step_s) for i in range(count)]
        # Sample i lies in point floor(i * step / interval), in exact
        # arithmetic: ``0.5 // 0.1`` alone would pick point 4 for 0.5 s.
        ratio = Fraction(str(step_s)) / Fraction(str(interval_s))
        expected = [trace.points[math.floor(i * ratio)] for i in range(count)]
        assert [point for _, point in samples] == expected

    def test_empty_trace_at_raises(self):
        with pytest.raises(ValueError):
            NetworkTrace(interval_s=10).at(0)

    def test_rate_process_bounds(self):
        rng = np.random.default_rng(3)
        process = GilbertElliottRateProcess(good_rate=0.01, bad_rate=0.2)
        rates = [process.sample(rng) for _ in range(500)]
        assert all(0.0 <= rate <= 0.95 for rate in rates)
        assert max(rates) > 0.1  # bad episodes happen

    def test_generate_trace_validation(self):
        with pytest.raises(ValueError):
            generate_paper_trace(np.random.default_rng(0), duration_s=0)
