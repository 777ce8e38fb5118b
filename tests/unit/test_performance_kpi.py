"""Unit tests for the performance model, weighted KPI and Eq. 3."""

import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.kafka.config import full_load_rate
from repro.kpi import (
    DEFAULT_WEIGHTS,
    Decision,
    Interval,
    IntervalRecord,
    KpiWeights,
    overall_rates,
    scale_producers,
    weighted_kpi,
)
from repro.performance import ProducerPerformanceModel
from repro.testbed import ExperimentResult


def replayed(p_loss, p_duplicate=0.0, shortfall=0.0):
    """A replayed interval whose experiment measured ``p_loss``/``p_duplicate``."""
    result = ExperimentResult(
        message_bytes=200, timeliness_s=None, network_delay_s=0.0, loss_rate=0.0,
        semantics="at_least_once", batch_size=1, polling_interval_s=0.0,
        message_timeout_s=1.5, produced=100, p_loss=p_loss, p_duplicate=p_duplicate,
    )
    return IntervalRecord(
        Interval(duration_s=1.0, seed=0, delay_s=0.0, loss_rate=0.0),
        Decision(ProducerConfig(), "static"),
        result,
        shortfall,
    )


class TestPerformanceModel:
    def setup_method(self):
        self.model = ProducerPerformanceModel()

    def test_service_rate_falls_with_message_size(self):
        config = ProducerConfig()
        fast = self.model.service_rate(config, 100)
        slow = self.model.service_rate(config, 1000)
        assert fast > slow

    def test_batching_raises_service_rate(self):
        single = self.model.service_rate(ProducerConfig(batch_size=1), 200)
        batched = self.model.service_rate(ProducerConfig(batch_size=8), 200)
        assert batched > single

    def test_delay_lowers_window_bound(self):
        # A single-request window makes the round trip the binding stage.
        config = ProducerConfig(max_in_flight=1)
        clean = self.model.service_rate(config, 200, network_delay_s=0.0)
        delayed = self.model.service_rate(config, 200, network_delay_s=0.2)
        assert delayed < clean

    def test_arrival_rate_polled_is_inverse_delta(self):
        config = ProducerConfig(polling_interval_s=0.05)
        assert self.model.arrival_rate(config, 200) == pytest.approx(20.0)

    def test_arrival_rate_full_load_uses_duty_cycle(self):
        config = ProducerConfig(semantics=DeliverySemantics.AT_MOST_ONCE)
        rate = self.model.arrival_rate(config, 200)
        peak = full_load_rate(200, False)
        assert rate < peak

    def test_predict_outputs_in_unit_interval(self):
        estimate = self.model.predict(ProducerConfig(), 200)
        assert 0.0 <= estimate.bandwidth_utilization <= 1.0
        assert 0.0 <= estimate.service_rate_norm <= 1.0
        assert estimate.mean_latency_s > 0.0

    def test_round_trip_bytes_include_response_only_with_acks(self):
        with_acks = self.model.round_trip_bytes(200, 1, True)
        without = self.model.round_trip_bytes(200, 1, False)
        assert with_acks > without

    def test_predict_validation(self):
        with pytest.raises(ValueError):
            self.model.predict(ProducerConfig(), 0)


class TestKpiWeights:
    def test_default_weights_match_paper(self):
        assert DEFAULT_WEIGHTS.as_tuple() == (0.3, 0.3, 0.3, 0.1)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            KpiWeights(0.5, 0.5, 0.5, 0.5)

    def test_weights_must_be_non_negative(self):
        with pytest.raises(ValueError):
            KpiWeights(-0.1, 0.5, 0.5, 0.1)

    def test_of_tuple(self):
        weights = KpiWeights.of((0.1, 0.1, 0.7, 0.1))
        assert weights.loss == 0.7


class TestWeightedKpi:
    def test_perfect_system_scores_one(self):
        assert weighted_kpi(1.0, 1.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_paper_equation_by_hand(self):
        gamma = weighted_kpi(0.5, 0.6, 0.2, 0.1, DEFAULT_WEIGHTS)
        expected = 0.3 * 0.5 + 0.3 * 0.6 + 0.3 * 0.8 + 0.1 * 0.9
        assert gamma == pytest.approx(expected)

    def test_loss_penalises_gamma(self):
        clean = weighted_kpi(0.5, 0.5, 0.0, 0.0)
        lossy = weighted_kpi(0.5, 0.5, 0.5, 0.0)
        assert lossy < clean

    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(ValueError):
            weighted_kpi(1.5, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            weighted_kpi(0.5, 0.5, -0.1, 0.0)

    def test_weight_emphasis_changes_ranking(self):
        """A lossy-but-fast config beats a slow-but-safe one only when the
        user weights throughput over reliability."""
        fast_lossy = dict(bandwidth_utilization=0.9, service_rate_norm=0.9, p_loss=0.3, p_duplicate=0.0)
        slow_safe = dict(bandwidth_utilization=0.3, service_rate_norm=0.3, p_loss=0.0, p_duplicate=0.0)
        throughput_first = KpiWeights(0.4, 0.4, 0.1, 0.1)
        reliability_first = KpiWeights(0.1, 0.1, 0.7, 0.1)
        assert weighted_kpi(weights=throughput_first, **fast_lossy) > weighted_kpi(
            weights=throughput_first, **slow_safe
        )
        assert weighted_kpi(weights=reliability_first, **fast_lossy) < weighted_kpi(
            weights=reliability_first, **slow_safe
        )


class TestAggregateEq3:
    def test_weighted_average(self):
        # The second interval polled 3/4 of its stream; the missing quarter
        # is charged as loss: P_l = 0.5·(1 − 0.25) + 0.25 = 0.625.
        records = [replayed(0.1), replayed(0.5, 0.04, shortfall=0.25)]
        assert records[1].p_loss == 0.625
        rates = overall_rates(records, [100, 300])
        assert rates.r_loss == pytest.approx((100 * 0.1 + 300 * 0.625) / 400)
        assert rates.r_duplicate == pytest.approx(300 * 0.04 / 400)
        assert rates.total_messages == 400

    def test_bounds(self):
        rates = overall_rates([replayed(0.2), replayed(0.6)], [10, 10])
        assert 0.2 <= rates.r_loss <= 0.6

    def test_empty_aggregation_rejected(self):
        with pytest.raises(ValueError):
            overall_rates([], [])
        with pytest.raises(ValueError):
            overall_rates([replayed(0.5)], [0.0])


class TestProducerScaling:
    def test_paper_rule(self):
        # N_p/δ = N_p'/(δ+Δδ): doubling δ doubles the producers.
        assert scale_producers(2, 0.03, 0.06) == 4

    def test_rounds_up(self):
        assert scale_producers(1, 0.04, 0.09) == 3

    def test_never_scales_down(self):
        assert scale_producers(4, 0.08, 0.02) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            scale_producers(0, 0.01, 0.02)
        with pytest.raises(ValueError):
            scale_producers(1, 0.0, 0.02)
