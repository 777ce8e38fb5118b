"""Unit tests for graceful degradation: breaker, fallback chain, and the
controller's breaker, min-hold and fire-and-forget guards."""

import pytest

from repro.kafka.config import DEFAULT_PRODUCER_CONFIG
from repro.kafka.semantics import DeliverySemantics
from repro.kpi import (
    PARKED_CONFIG,
    CircuitBreaker,
    Controller,
    IntervalObservation,
)
from repro.models.predictor import (
    CONSERVATIVE_ESTIMATE,
    ReliabilityPredictor,
)
from repro.models.features import FeatureVector
from repro.testbed import Scenario, run_experiment
from repro.workloads.streams import WEB_ACCESS_LOGS

SILENT = IntervalObservation(requests_sent=100, acknowledged=2)
HEALTHY = IntervalObservation(requests_sent=100, acknowledged=97, min_rtt_s=0.01)


def make_vector(semantics=DeliverySemantics.AT_LEAST_ONCE):
    return FeatureVector(
        message_bytes=200.0,
        timeliness_s=5.0,
        network_delay_s=0.02,
        loss_rate=0.05,
        semantics=semantics,
        batch_size=8.0,
        polling_interval_s=0.01,
        message_timeout_s=1.5,
    )


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        # The threshold is one interval: the first silent one opens it.
        breaker = CircuitBreaker()
        assert breaker.allows_selection
        assert breaker.record(healthy=False) == CircuitBreaker.OPEN
        assert breaker.trips == 1
        assert not breaker.allows_selection

    def test_cooldown_reaches_half_open_probe(self):
        breaker = CircuitBreaker()
        breaker.record(healthy=False)  # open
        assert breaker.record(healthy=False) == CircuitBreaker.OPEN
        assert breaker.record(healthy=False) == CircuitBreaker.HALF_OPEN
        assert breaker.allows_selection

    def test_failed_probe_reopens_counting_a_trip(self):
        breaker = CircuitBreaker()
        for _ in range(3):
            breaker.record(healthy=False)  # open, open, half-open
        assert breaker.record(healthy=False) == CircuitBreaker.OPEN
        assert breaker.trips == 2
        # The cooldown starts over: two more silent intervals to the probe.
        assert breaker.record(healthy=False) == CircuitBreaker.OPEN
        assert breaker.record(healthy=False) == CircuitBreaker.HALF_OPEN

    def test_any_healthy_interval_closes(self):
        breaker = CircuitBreaker()
        breaker.record(healthy=False)
        assert breaker.record(healthy=True) == CircuitBreaker.CLOSED
        assert breaker.allows_selection
        # Closed again: the next silent interval re-opens at once.
        assert breaker.record(healthy=False) == CircuitBreaker.OPEN
        assert breaker.trips == 2


class TestIntervalObservation:
    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            IntervalObservation(requests_sent=-1, acknowledged=0)
        with pytest.raises(ValueError):
            IntervalObservation(requests_sent=1, acknowledged=0, retransmissions=-2)

    def test_ack_ratio(self):
        assert HEALTHY.ack_ratio == pytest.approx(0.97)
        assert SILENT.ack_ratio == pytest.approx(0.02)

    def test_no_signal_yields_none(self):
        nothing_sent = IntervalObservation(requests_sent=0, acknowledged=0)
        assert nothing_sent.ack_ratio is None
        fire_and_forget = IntervalObservation(
            requests_sent=50, acknowledged=0, waits_for_ack=False
        )
        assert fire_and_forget.ack_ratio is None


class TestFallbackChain:
    def test_untrained_predictor_is_conservative(self):
        [fallback] = ReliabilityPredictor().predict_with_fallback_batch([make_vector()])
        assert fallback.source == "conservative"
        assert fallback.degraded
        assert fallback.estimate == CONSERVATIVE_ESTIMATE

    def test_neighbour_tier_serves_remembered_measurements(self):
        predictor = ReliabilityPredictor()
        result = run_experiment(Scenario(message_count=60, seed=3))
        predictor.remember([result])
        [fallback] = predictor.predict_with_fallback_batch([make_vector()])
        assert fallback.source == "neighbour"
        assert fallback.degraded
        assert fallback.estimate.p_loss == pytest.approx(
            min(1.0, max(0.0, result.p_loss))
        )

    def test_neighbour_requires_matching_semantics(self):
        predictor = ReliabilityPredictor()
        result = run_experiment(Scenario(message_count=60, seed=3))
        predictor.remember([result])
        [fallback] = predictor.predict_with_fallback_batch(
            [make_vector(semantics=DeliverySemantics.EXACTLY_ONCE)]
        )
        assert fallback.source == "conservative"


class TestDegradedModeController:
    """The controller with the chaos campaign's degraded-mode guards."""

    def controller(self, **kwargs):
        guards = dict(hysteresis=0.02, min_hold_intervals=2, breaker=CircuitBreaker())
        return Controller(ReliabilityPredictor(), **{**guards, **kwargs})

    def test_validation(self):
        with pytest.raises(ValueError):
            self.controller(hysteresis=-0.1)
        with pytest.raises(ValueError):
            self.controller(min_hold_intervals=0)

    def test_silence_parks_on_safe_config(self):
        controller = self.controller()
        controller.observe(SILENT, message_bytes=200, batch_size=8)
        decision = controller.decide(WEB_ACCESS_LOGS, DEFAULT_PRODUCER_CONFIG)
        assert decision.reason == "parked"
        assert decision.config == PARKED_CONFIG
        assert decision.breaker_state == CircuitBreaker.OPEN
        assert decision.changed

    def test_recovery_closes_breaker_and_unparks(self):
        controller = self.controller()
        controller.observe(SILENT, message_bytes=200, batch_size=8)
        controller.decide(WEB_ACCESS_LOGS, DEFAULT_PRODUCER_CONFIG)
        controller.observe(HEALTHY, message_bytes=200, batch_size=8)
        decision = controller.decide(WEB_ACCESS_LOGS, PARKED_CONFIG)
        assert decision.breaker_state == CircuitBreaker.CLOSED
        assert decision.reason != "parked"

    def test_no_signal_interval_does_not_close_open_breaker(self):
        controller = self.controller()
        controller.observe(SILENT, message_bytes=200, batch_size=8)
        assert controller.breaker.state == CircuitBreaker.OPEN
        fire_and_forget = IntervalObservation(
            requests_sent=50, acknowledged=0, waits_for_ack=False
        )
        controller.observe(fire_and_forget, message_bytes=200, batch_size=8)
        assert controller.breaker.state == CircuitBreaker.OPEN

    def test_min_hold_damps_flapping(self):
        controller = self.controller(min_hold_intervals=3)
        for _ in range(3):
            controller.observe(HEALTHY, message_bytes=200, batch_size=8)
        # A park/unpark cycle resets the hold counter via the change.
        controller.observe(SILENT, message_bytes=200, batch_size=8)
        parked = controller.decide(WEB_ACCESS_LOGS, DEFAULT_PRODUCER_CONFIG)
        assert parked.changed
        controller.observe(HEALTHY, message_bytes=200, batch_size=8)
        decision = controller.decide(WEB_ACCESS_LOGS, PARKED_CONFIG)
        assert decision.reason == "held"
        assert decision.config == PARKED_CONFIG

    def test_degraded_tier_never_switches_to_fire_and_forget(self):
        # With an untrained predictor every prediction is a fallback tier;
        # the observability guard must keep the ack stream alive no matter
        # what the performance term prefers.
        controller = self.controller(min_hold_intervals=1)
        current = DEFAULT_PRODUCER_CONFIG
        for _ in range(6):
            controller.observe(HEALTHY, message_bytes=200, batch_size=8)
            decision = controller.decide(WEB_ACCESS_LOGS, current)
            assert decision.config.semantics.waits_for_ack
            current = decision.config

    def test_decisions_report_prediction_source(self):
        controller = self.controller()
        controller.observe(HEALTHY, message_bytes=200, batch_size=8)
        decision = controller.decide(WEB_ACCESS_LOGS, DEFAULT_PRODUCER_CONFIG)
        assert decision.prediction_source in ("ann", "neighbour", "conservative")
        assert 0.0 <= decision.predicted_gamma <= 1.0
