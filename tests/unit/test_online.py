"""Unit tests for the EWMA estimator, and for the controller acting on it.

The controller's other source, the trace oracle, is covered by the plan
tests in ``test_selection_dynamic``; its breaker, min-hold and
fire-and-forget guards by ``test_degraded``; its hysteresis guard here.
"""

import pytest

from repro.kafka import ProducerConfig
from repro.kpi import (
    IntervalObservation,
    KpiWeights,
    NetworkStateEstimator,
    OnlineDynamicController,
)
from repro.models import FallbackEstimate, FeatureVector, ReliabilityEstimate
from repro.performance import ProducerPerformanceModel
from repro.workloads import WEB_ACCESS_LOGS


class StubPredictor:
    def predict_with_fallback_batch(self, vectors):
        return [FallbackEstimate(self.estimate(vector), "ann") for vector in vectors]

    def estimate(self, vector: FeatureVector) -> ReliabilityEstimate:
        loss = min(1.0, vector.loss_rate * 3.0 / vector.batch_size)
        return ReliabilityEstimate(p_loss=loss, p_duplicate=0.0)


def feed(controller, delay_s, loss_rate, message_bytes=200, batch_size=1):
    """One interval whose transport and RTT signals read exactly
    ``(delay_s, loss_rate)``: two samples, so the estimate is confident."""
    model = controller.performance_model
    wire = model.request_wire_bytes(message_bytes, batch_size)
    base = (wire + 66) / model.hardware.link_capacity_bps + 2 * model.hardware.link_base_delay_s
    controller.observe(
        IntervalObservation(
            segments_sent=1000,
            retransmissions=round(loss_rate * 1000),
            min_rtt_s=base + 2 * delay_s,
        ),
        message_bytes,
        batch_size,
    )


class TestEstimator:
    def test_starts_unconfident_and_zeroed(self):
        estimator = NetworkStateEstimator()
        estimate = estimator.estimate()
        assert not estimate.confident
        assert estimate.delay_s == 0.0
        assert estimate.loss_rate == 0.0

    def test_rtt_observation_infers_delay(self):
        model = ProducerPerformanceModel()
        estimator = NetworkStateEstimator(model)
        wire = model.request_wire_bytes(200, 1)
        base = (wire + 66) / model.hardware.link_capacity_bps + 2 * model.hardware.link_base_delay_s
        estimator.observe_rtt(base + 0.2, 200, 1)
        assert estimator.estimate().delay_s == pytest.approx(0.1, rel=0.01)

    def test_rtt_below_baseline_clamps_to_zero(self):
        estimator = NetworkStateEstimator()
        estimator.observe_rtt(0.0, 200, 1)
        assert estimator.estimate().delay_s == 0.0

    def test_transport_observation_infers_loss(self):
        estimator = NetworkStateEstimator()
        estimator.observe_transport(segments_sent=100, retransmissions=15)
        assert estimator.estimate().loss_rate == pytest.approx(0.15)

    def test_ewma_smooths_observations(self):
        estimator = NetworkStateEstimator(smoothing=0.5)
        estimator.observe_transport(100, 0)
        estimator.observe_transport(100, 40)
        assert estimator.estimate().loss_rate == pytest.approx(0.2)

    def test_zero_segments_ignored(self):
        estimator = NetworkStateEstimator()
        estimator.observe_transport(0, 0)
        assert estimator.estimate().samples == 0

    def test_negative_rtt_rejected(self):
        with pytest.raises(ValueError):
            NetworkStateEstimator().observe_rtt(-1.0, 200, 1)

    def test_smoothing_validation(self):
        with pytest.raises(ValueError):
            NetworkStateEstimator(smoothing=0.0)

    def test_confidence_threshold(self):
        estimator = NetworkStateEstimator()
        estimator.observe_transport(100, 10)
        assert not estimator.estimate().confident
        estimator.observe_transport(100, 10)
        assert estimator.estimate().confident


class TestController:
    """The controller on its estimator source, plus the hysteresis guard."""

    def make(self, **kwargs):
        return OnlineDynamicController(
            StubPredictor(),
            ProducerPerformanceModel(),
            weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights),
            gamma_requirement=0.95,
            **kwargs,
        )

    def test_unconfident_estimate_keeps_config(self):
        controller = self.make()
        current = ProducerConfig(batch_size=1)
        controller.estimator.observe_transport(segments_sent=100, retransmissions=30)
        assert controller.estimator.estimate().samples == 1
        decision = controller.decide(WEB_ACCESS_LOGS, current)
        assert decision.config is current
        assert decision.reason == "insufficient_signal"
        assert decision.predicted_gamma is None

    def test_heavy_loss_triggers_batching(self):
        controller = self.make()
        current = ProducerConfig(batch_size=1)
        feed(controller, delay_s=0.05, loss_rate=0.25)
        decision = controller.decide(WEB_ACCESS_LOGS, current)
        assert decision.config.batch_size > 1
        assert decision.reason == "reconfigured"
        assert decision.estimated_loss_rate == pytest.approx(0.25)
        assert decision.estimated_delay_s == pytest.approx(0.05)

    def test_clean_network_keeps_config_when_requirement_met(self):
        # With a reachable requirement the search stops at the start
        # configuration (the paper's criterion: meet, don't maximise).
        controller = OnlineDynamicController(
            StubPredictor(),
            ProducerPerformanceModel(),
            weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights),
            gamma_requirement=0.5,
        )
        current = ProducerConfig(batch_size=1)
        feed(controller, delay_s=0.005, loss_rate=0.0)
        decision = controller.decide(WEB_ACCESS_LOGS, current)
        assert decision.config.batch_size == 1

    def test_hysteresis_blocks_marginal_changes(self):
        controller = self.make(hysteresis=10.0)  # nothing can improve by 10
        current = ProducerConfig(batch_size=1)
        feed(controller, delay_s=0.05, loss_rate=0.25)
        decision = controller.decide(WEB_ACCESS_LOGS, current)
        assert decision.config is current
        assert decision.reason == "held"
