"""Unit tests for configuration selection and the dynamic controller.

These use a stub predictor so the selection logic is tested in isolation
from ANN training.
"""

import json

import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.kpi import (
    PARKED_CONFIG,
    ConfigurationPlan,
    DynamicConfigurationController,
    KpiWeights,
    OnlineDynamicController,
    ParameterSteps,
    SelectionContext,
    evaluate_configs,
    required_producers,
    select_configuration,
)
from repro.kpi.dynamic import ConfigPlanEntry
from repro.models import (
    FallbackEstimate,
    FeatureVector,
    ReliabilityEstimate,
    ReliabilityPredictor,
)
from repro.network import NetworkTrace, TracePoint
from repro.performance import ProducerPerformanceModel
from repro.workloads import GAME_TRAFFIC, WEB_ACCESS_LOGS

from .test_online import feed
from .test_predictor_batch import FAST, make_result, training_rows


class StubPredictor:
    """Analytic stand-in: loss falls with batch size, rises with loss rate."""

    def estimate(self, vector: FeatureVector) -> ReliabilityEstimate:
        base = min(1.0, vector.loss_rate * 3.0 / vector.batch_size)
        duplicate = 0.02 / vector.batch_size if vector.semantics.waits_for_ack else 0.0
        return ReliabilityEstimate(p_loss=base, p_duplicate=min(1.0, duplicate))

    def predict_with_fallback_batch(self, vectors):
        return [FallbackEstimate(self.estimate(vector), "ann") for vector in vectors]


@pytest.fixture
def context():
    return SelectionContext(
        message_bytes=200, timeliness_s=5.0, network_delay_s=0.1, loss_rate=0.15
    )


@pytest.fixture
def performance_model():
    return ProducerPerformanceModel()


class TestEvaluateConfig:
    def test_gamma_in_unit_interval(self, context, performance_model):
        [(gamma, source)] = evaluate_configs(
            [ProducerConfig()], context, StubPredictor(), performance_model
        )
        assert 0.0 <= gamma <= 1.0
        assert source == "ann"

    def test_batching_improves_gamma_under_loss(self, context, performance_model):
        weights = KpiWeights(0.1, 0.1, 0.7, 0.1)
        [(single, _), (batched, _)] = evaluate_configs(
            [ProducerConfig(batch_size=1), ProducerConfig(batch_size=8)],
            context,
            StubPredictor(),
            performance_model,
            weights,
        )
        assert batched > single


class TestSelectConfiguration:
    def test_meets_requirement_by_batching(self, context, performance_model):
        weights = KpiWeights(0.1, 0.1, 0.7, 0.1)
        result = select_configuration(
            context,
            StubPredictor(),
            performance_model,
            weights=weights,
            gamma_requirement=0.85,
            start=ProducerConfig(batch_size=1),
        )
        assert result.met_requirement
        assert result.config.batch_size > 1

    def test_stops_immediately_when_start_satisfies(self, context, performance_model):
        result = select_configuration(
            context,
            StubPredictor(),
            performance_model,
            gamma_requirement=0.0,
        )
        assert result.met_requirement
        assert result.steps_taken == 0

    def test_unreachable_requirement_reports_best_effort(self, context, performance_model):
        result = select_configuration(
            context,
            StubPredictor(),
            performance_model,
            gamma_requirement=1.01,
        )
        assert not result.met_requirement
        assert result.gamma <= 1.0
        assert result.trace[0][0] == "start"

    def test_search_never_worsens_gamma(self, context, performance_model):
        result = select_configuration(
            context, StubPredictor(), performance_model, gamma_requirement=0.99
        )
        gammas = [gamma for _, gamma in result.trace]
        assert gammas == sorted(gammas)

    def test_config_source_is_the_tier_behind_gamma(self, context, performance_model):
        result = select_configuration(
            context, StubPredictor(), performance_model, gamma_requirement=0.99
        )
        [(gamma, source)] = evaluate_configs(
            [result.config], context, StubPredictor(), performance_model
        )
        assert (result.gamma, result.config_source) == (gamma, source)

    def test_custom_steps_respected(self, context, performance_model):
        steps = ParameterSteps(batch_size=(1, 2))
        result = select_configuration(
            context,
            StubPredictor(),
            performance_model,
            gamma_requirement=1.01,
            steps=steps,
        )
        assert result.config.batch_size <= 2


class TestRequiredProducers:
    def test_full_load_needs_one(self):
        assert required_producers(ProducerConfig(polling_interval_s=0.0), GAME_TRAFFIC) == 1

    def test_polling_scales_with_rate(self):
        config = ProducerConfig(polling_interval_s=0.15)
        # game traffic: 20 msg/s * 0.15 s = 3 producers
        assert required_producers(config, GAME_TRAFFIC) == 3


class TestConfigurationPlan:
    def make_plan(self):
        plan = ConfigurationPlan(interval_s=60.0)
        plan.entries.append(
            ConfigPlanEntry(0.0, ProducerConfig(batch_size=2), 1, 0.9)
        )
        plan.entries.append(
            ConfigPlanEntry(
                60.0,
                ProducerConfig(
                    batch_size=6, semantics=DeliverySemantics.AT_MOST_ONCE
                ),
                2,
                0.8,
            )
        )
        return plan

    def test_at_selects_interval(self):
        plan = self.make_plan()
        assert plan.at(10.0).config.batch_size == 2
        assert plan.at(61.0).config.batch_size == 6
        assert plan.at(1e9).producers == 2

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationPlan(interval_s=60.0).at(0.0)

    def test_save_load_round_trip(self, tmp_path):
        plan = self.make_plan()
        path = tmp_path / "dynamic_conf.json"
        plan.save(path)
        loaded = ConfigurationPlan.load(path)
        assert loaded.interval_s == 60.0
        assert loaded.at(70.0).config.semantics is DeliverySemantics.AT_MOST_ONCE
        assert loaded.at(70.0).config.batch_size == 6
        # A plan searched from a non-default start keeps every field of
        # every entry's configuration, not only the searched ones.
        trace = NetworkTrace(interval_s=60, points=[
            TracePoint(0.0, 0.02, 0.0), TracePoint(60.0, 0.05, 0.25)
        ])
        controller = DynamicConfigurationController(
            StubPredictor(), weights=KpiWeights(0.1, 0.1, 0.7, 0.1),
            gamma_requirement=0.93,
        )
        plan = controller.generate_plan(trace, WEB_ACCESS_LOGS, start=PARKED_CONFIG)
        plan.entries.append(
            ConfigPlanEntry(
                120.0,
                PARKED_CONFIG.with_(max_in_flight=2, linger_s=0.05, queue_capacity=64),
                1,
                0.5,
            )
        )
        plan.save(path)
        loaded = ConfigurationPlan.load(path)
        assert [e.config for e in loaded.entries] == [e.config for e in plan.entries]
        assert loaded.entries == plan.entries
        assert plan.entries[0].config.retry_backoff_s == PARKED_CONFIG.retry_backoff_s

    def test_load_accepts_plans_without_newer_fields(self, tmp_path):
        path = tmp_path / "old_conf.json"
        path.write_text(json.dumps({
            "interval_s": 60.0,
            "entries": [{
                "time_s": 0.0,
                "producers": 1,
                "predicted_gamma": 0.9,
                "config": {
                    "semantics": "at_most_once",
                    "batch_size": 4,
                    "polling_interval_s": 0.02,
                    "message_timeout_s": 1.5,
                    "request_timeout_s": 2.5,
                    "max_retries": 10,
                },
            }],
        }))
        [entry] = ConfigurationPlan.load(path).entries
        assert entry.config == ProducerConfig(
            semantics=DeliverySemantics.AT_MOST_ONCE,
            batch_size=4,
            polling_interval_s=0.02,
            message_timeout_s=1.5,
        )


class TestController:
    """The controller on its trace-oracle source: the offline plan."""

    def test_generate_plan_one_entry_per_interval(self, performance_model):
        trace = NetworkTrace(interval_s=10, points=[
            TracePoint(t * 10.0, 0.05, 0.1) for t in range(12)
        ])
        controller = DynamicConfigurationController(
            StubPredictor(),
            performance_model,
            weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights),
            gamma_requirement=0.9,
            reconfig_interval_s=60.0,
        )
        plan = controller.generate_plan(trace, WEB_ACCESS_LOGS)
        assert len(plan.entries) == 2  # 120 s trace / 60 s interval

    def test_plan_adapts_to_loss_bursts(self, performance_model):
        points = [TracePoint(0.0, 0.02, 0.0), TracePoint(60.0, 0.05, 0.25)]
        trace = NetworkTrace(interval_s=60, points=points)
        controller = DynamicConfigurationController(
            StubPredictor(),
            performance_model,
            weights=KpiWeights(0.1, 0.1, 0.7, 0.1),
            gamma_requirement=0.93,
            reconfig_interval_s=60.0,
        )
        plan = controller.generate_plan(trace, WEB_ACCESS_LOGS)
        assert plan.entries[1].config.batch_size > plan.entries[0].config.batch_size

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            DynamicConfigurationController(StubPredictor(), reconfig_interval_s=0.0)


class RecordingPredictor(ReliabilityPredictor):
    """A real predictor that logs the tier of every answer it gives."""

    def __init__(self):
        super().__init__()
        self.answers = []

    def predict_with_fallback_batch(self, vectors):
        out = super().predict_with_fallback_batch(vectors)
        self.answers += [(v.semantics, tiered.source) for v, tiered in zip(vectors, out)]
        return out


class TestTierPolicy:
    """Every controller scores a candidate no submodel covers from the
    fallback chain instead of skipping it."""

    @pytest.fixture
    def predictor(self):
        # Submodels for at-least-once only; at-most-once is known solely
        # through two remembered loss-free measurements (neighbour tier).
        predictor = RecordingPredictor()
        predictor.fit(
            training_rows(DeliverySemantics.AT_LEAST_ONCE, "normal")
            + training_rows(DeliverySemantics.AT_LEAST_ONCE, "abnormal", seed=3),
            FAST,
        )
        predictor.remember([
            make_result(semantics="at_most_once", network_delay_s=delay,
                        loss_rate=loss, p_loss=0.0, p_duplicate=0.0)
            for delay, loss in ((0.05, 0.0), (0.3, 0.1))
        ])
        predictor.answers.clear()
        return predictor

    def test_generate_plan_scores_uncovered_candidate_from_neighbour(self, predictor):
        trace = NetworkTrace(interval_s=60, points=[
            TracePoint(0.0, 0.05, 0.0), TracePoint(60.0, 0.3, 0.1)
        ])
        controller = DynamicConfigurationController(
            predictor,
            weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights),
            gamma_requirement=0.99,
        )
        plan = controller.generate_plan(trace, WEB_ACCESS_LOGS)
        assert (DeliverySemantics.AT_MOST_ONCE, "neighbour") in predictor.answers
        # A skipped candidate could never be chosen.
        assert all(
            entry.config.semantics is DeliverySemantics.AT_MOST_ONCE
            for entry in plan.entries
        )

    def test_online_decide_scores_uncovered_candidate_from_neighbour(self, predictor):
        controller = OnlineDynamicController(
            predictor,
            weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights),
            gamma_requirement=0.99,
        )
        feed(controller, delay_s=0.3, loss_rate=0.1)
        decided = controller.decide(WEB_ACCESS_LOGS, ProducerConfig())
        assert (DeliverySemantics.AT_MOST_ONCE, "neighbour") in predictor.answers
        assert decided.config.semantics is DeliverySemantics.AT_MOST_ONCE
