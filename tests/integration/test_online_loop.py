"""Integration test: the closed-loop online configuration experiment."""

import pytest

from repro.kafka import DEFAULT_PRODUCER_CONFIG, ProducerConfig
from repro.kpi import (
    ConfigurationPlan,
    DynamicConfigurationController,
    KpiWeights,
    OnlineDynamicController,
    run_online_experiment,
    run_traced_experiment,
)
from repro.models import FallbackEstimate, FeatureVector, ReliabilityEstimate
from repro.network import NetworkTrace, TracePoint
from repro.performance import ProducerPerformanceModel
from repro.workloads import WEB_ACCESS_LOGS


class AnalyticPredictor:
    """Loss grows with loss rate, shrinks with batching — enough structure
    for the controller to make sensible moves without ANN training."""

    def predict_with_fallback_batch(self, vectors):
        return [FallbackEstimate(self.estimate(vector), "ann") for vector in vectors]

    def estimate(self, vector: FeatureVector) -> ReliabilityEstimate:
        loss = min(1.0, (vector.loss_rate * 2.5 + vector.network_delay_s) / vector.batch_size)
        dup = 0.01 if vector.semantics.waits_for_ack else 0.0
        return ReliabilityEstimate(p_loss=loss, p_duplicate=dup)


@pytest.fixture
def trace():
    return NetworkTrace(interval_s=30, points=[
        TracePoint(0.0, 0.02, 0.0),
        TracePoint(30.0, 0.08, 0.18),
        TracePoint(60.0, 0.08, 0.18),
        TracePoint(90.0, 0.03, 0.02),
    ])


def make_controller(**kwargs):
    return OnlineDynamicController(
        AnalyticPredictor(),
        ProducerPerformanceModel(),
        weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights),
        gamma_requirement=0.97,
        **kwargs,
    )


def test_online_loop_runs_and_aggregates(trace):
    report = run_online_experiment(
        trace, WEB_ACCESS_LOGS, make_controller(),
        reconfig_interval_s=30.0, messages_cap_per_interval=80, seed=5,
    )
    assert report.policy == "online"
    assert len(report.intervals) == 4
    assert 0.0 <= report.rates.r_loss <= 1.0


def test_online_adapts_during_loss_episode(trace):
    """After the first lossy interval, the controller must batch up."""
    controller = make_controller()
    decisions = []
    original = controller.decide

    def spy(stream, current, known=None):
        decided = original(stream, current, known)
        decisions.append(decided.config.batch_size)
        return decided

    controller.decide = spy
    run_online_experiment(
        trace, WEB_ACCESS_LOGS, controller,
        reconfig_interval_s=30.0, messages_cap_per_interval=80, seed=5,
    )
    assert max(decisions) > 1


def test_online_no_worse_than_default_on_this_trace(trace):
    online = run_online_experiment(
        trace, WEB_ACCESS_LOGS, make_controller(),
        reconfig_interval_s=30.0, messages_cap_per_interval=120, seed=7,
    )
    default = run_traced_experiment(
        trace, WEB_ACCESS_LOGS, static_config=DEFAULT_PRODUCER_CONFIG,
        messages_cap_per_interval=120, seed=7,
    )
    assert online.rates.r_loss <= default.rates.r_loss + 0.05


def test_online_respects_start_config(trace):
    start = ProducerConfig(batch_size=3, message_timeout_s=2.0)
    report = run_online_experiment(
        trace, WEB_ACCESS_LOGS, make_controller(),
        start=start, reconfig_interval_s=30.0,
        messages_cap_per_interval=60, seed=9,
    )
    assert len(report.intervals) == 4


def make_plan(trace):
    return DynamicConfigurationController(
        AnalyticPredictor(), ProducerPerformanceModel(),
        weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights),
        gamma_requirement=0.97, reconfig_interval_s=60.0,
    ).generate_plan(trace, WEB_ACCESS_LOGS)


def test_loaded_plan_replays_like_the_original(trace, tmp_path):
    plan = make_plan(trace)
    plan.save(tmp_path / "plan.json")
    loaded = ConfigurationPlan.load(tmp_path / "plan.json")
    original, replayed = (
        run_traced_experiment(
            trace, WEB_ACCESS_LOGS, plan=p, messages_cap_per_interval=30, seed=3
        )
        for p in (plan, loaded)
    )
    assert replayed.rates == original.rates
    assert {d.reason for d in replayed.decisions} == {"planned"}
    assert [d.config for d in replayed.decisions] == [d.config for d in original.decisions]


def test_every_report_carries_one_decision_per_interval(trace):
    """Plan, static and online reports record the decision behind each
    interval: the state it acted on and the interval's true state."""
    plan = make_plan(trace)
    planned = run_traced_experiment(
        trace, WEB_ACCESS_LOGS, plan=plan, messages_cap_per_interval=30, seed=3,
    )
    static = run_traced_experiment(
        trace, WEB_ACCESS_LOGS, static_config=DEFAULT_PRODUCER_CONFIG,
        messages_cap_per_interval=30, seed=3,
    )
    online = run_online_experiment(
        trace, WEB_ACCESS_LOGS, make_controller(),
        reconfig_interval_s=30.0, messages_cap_per_interval=30, seed=3,
    )
    for report in (planned, static, online):
        assert len(report.decisions) == len(report.intervals) == 4
        assert [(d.true_delay_s, d.true_loss_rate) for d in report.decisions] == [
            (p.delay_s, p.loss_rate) for p in trace
        ]
    # The plan decides at 0 s and 60 s from the oracle's state then.
    assert [d.estimated_loss_rate for d in planned.decisions] == [0.0, 0.0, 0.18, 0.18]
    assert [d.config for d in planned.decisions] == [
        plan.at(p.time_s).config for p in trace
    ]
    assert all(d.prediction_source == "ann" for d in planned.decisions)
    assert all(
        d.predicted_gamma == plan.at(p.time_s).predicted_gamma
        for d, p in zip(planned.decisions, trace)
    )
    assert {d.reason for d in static.decisions} == {"static"}
    assert all(d.predicted_gamma is None for d in static.decisions)
    # Online: the start, then the estimator's belief after each interval.
    assert online.decisions[0].reason == "start"
    assert all(
        d.reason in ("held", "reconfigured", "insufficient_signal")
        for d in online.decisions[1:]
    )
    assert all(d.estimated_loss_rate is not None for d in online.decisions[1:])
