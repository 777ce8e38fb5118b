"""Integration tests: training pipeline, registry and dynamic configuration."""

import pytest

from repro.kafka import DEFAULT_PRODUCER_CONFIG
from repro.kpi import (
    DynamicConfigurationController,
    KpiWeights,
    run_traced_experiment,
)
from repro.models import (
    FeatureVector,
    ModelRegistry,
    TrainingSettings,
    train_reliability_model,
)
from repro.network import NetworkTrace, TracePoint
from repro.performance import ProducerPerformanceModel
from repro.testbed import Scenario, abnormal_case_plan, normal_case_plan
from repro.workloads import WEB_ACCESS_LOGS

FAST_SETTINGS = TrainingSettings(
    hidden=(24, 12), epochs=60, learning_rate=0.3, patience=20
)


@pytest.fixture(scope="module")
def trained_report():
    base = Scenario(message_count=250)
    plans = [
        normal_case_plan(base=base, max_rows=16),
        abnormal_case_plan(base=base, max_rows=24),
    ]
    return train_reliability_model(plans=plans, settings=FAST_SETTINGS, seed=3)


def test_pipeline_trains_submodels(trained_report):
    assert trained_report.train_rows > 0
    assert trained_report.test_rows > 0
    assert len(trained_report.predictor.submodels) >= 2
    assert 0.0 <= trained_report.overall_mae <= 1.0


def test_predictions_available_for_measured_rows(trained_report):
    for row in trained_report.test_results[:5]:
        vector = FeatureVector.from_result(row)
        if vector.submodel_key in trained_report.predictor.submodels:
            estimate = trained_report.predictor.predict_vectors([vector])[0]
            assert 0.0 <= estimate.p_loss <= 1.0


def test_registry_round_trip(trained_report, tmp_path):
    registry = ModelRegistry(tmp_path)
    registry.save("pipeline-model", trained_report.predictor)
    assert registry.list_models() == ["pipeline-model"]
    loaded = registry.load("pipeline-model")
    row = trained_report.train_results[0]
    vector = FeatureVector.from_result(row)
    if vector.submodel_key in trained_report.predictor.submodels:
        original = trained_report.predictor.predict_vectors([vector])[0]
        restored = loaded.predict_vectors([vector])[0]
        assert restored.p_loss == pytest.approx(original.p_loss)
    registry.delete("pipeline-model")
    assert registry.list_models() == []


def test_registry_missing_model_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        ModelRegistry(tmp_path).load("ghost")


def test_dynamic_configuration_end_to_end(trained_report):
    trace = NetworkTrace(interval_s=10, points=[
        TracePoint(0.0, 0.03, 0.0),
        TracePoint(10.0, 0.08, 0.15),
        TracePoint(20.0, 0.05, 0.05),
    ])
    controller = DynamicConfigurationController(
        trained_report.predictor,
        ProducerPerformanceModel(),
        weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights),
        gamma_requirement=0.95,
        reconfig_interval_s=10.0,
    )
    plan = controller.generate_plan(trace, WEB_ACCESS_LOGS)
    assert len(plan.entries) == 3

    dynamic = run_traced_experiment(
        trace, WEB_ACCESS_LOGS, plan=plan, messages_cap_per_interval=60
    )
    default = run_traced_experiment(
        trace,
        WEB_ACCESS_LOGS,
        static_config=DEFAULT_PRODUCER_CONFIG,
        messages_cap_per_interval=60,
    )
    for report in (dynamic, default):
        assert 0.0 <= report.rates.r_loss <= 1.0
        assert len(report.records) == 3
    assert dynamic.policy == "dynamic"
    assert default.policy == "default"


def test_traced_experiment_requires_exactly_one_policy():
    trace = NetworkTrace(interval_s=10, points=[TracePoint(0.0, 0.01, 0.0)])
    with pytest.raises(ValueError):
        run_traced_experiment(trace, WEB_ACCESS_LOGS)
    with pytest.raises(ValueError):
        run_traced_experiment(
            trace,
            WEB_ACCESS_LOGS,
            plan=None,
            static_config=None,
        )
