"""Integration tests: full testbed experiments end to end."""

import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.kafka.state import DeliveryCase
from repro.testbed import Experiment, Scenario, run_experiment


def test_clean_network_delivers_everything():
    scenario = Scenario(
        message_bytes=200,
        message_count=300,
        seed=2,
        arrival_rate=8.0,
        config=ProducerConfig(message_timeout_s=5.0),
    )
    result = run_experiment(scenario)
    assert result.p_loss == 0.0
    assert result.p_duplicate == 0.0
    assert result.case_fractions.get("case1", 0.0) == pytest.approx(1.0)


def test_heavy_loss_causes_message_loss():
    scenario = Scenario(
        message_bytes=100,
        message_count=400,
        loss_rate=0.25,
        network_delay_s=0.1,
        seed=3,
        config=ProducerConfig(
            semantics=DeliverySemantics.AT_MOST_ONCE, message_timeout_s=1.0
        ),
    )
    result = run_experiment(scenario)
    assert result.p_loss > 0.05


def test_tracker_and_reconciliation_agree_on_losses():
    """Producer-view case census vs consumer ground truth.

    Keys the consumer finds missing must be exactly the messages whose
    state machine never recorded a persist.
    """
    scenario = Scenario(
        message_bytes=150,
        message_count=300,
        loss_rate=0.2,
        seed=4,
        config=ProducerConfig(message_timeout_s=0.8),
    )
    experiment = Experiment(scenario)
    result = experiment.run()
    tracker = experiment.tracker
    never_persisted = sum(
        1 for key in range(result.produced) if not tracker.persisted(key)
    )
    assert never_persisted == round(result.p_loss * result.produced)


def test_duplicated_keys_match_case5_census():
    scenario = Scenario(
        message_bytes=200,
        message_count=400,
        loss_rate=0.2,
        network_delay_s=0.1,
        seed=7,
        arrival_rate=6.0,
        config=ProducerConfig(
            message_timeout_s=6.0, request_timeout_s=0.9
        ),
    )
    experiment = Experiment(scenario)
    result = experiment.run()
    census = experiment.tracker.census()
    case5 = census.case_counts.get(DeliveryCase.CASE5, 0)
    assert case5 == round(result.p_duplicate * result.produced)


def test_throughput_reported():
    result = run_experiment(
        Scenario(message_count=200, arrival_rate=8.0, seed=5)
    )
    assert result.throughput_msgs_per_s is not None
    assert result.throughput_msgs_per_s > 0
    assert result.simulated_duration_s > 0


def test_staleness_measured_when_timeliness_set():
    scenario = Scenario(
        message_bytes=200,
        message_count=200,
        timeliness_s=0.001,  # absurdly strict: everything delivered is stale
        seed=6,
        arrival_rate=8.0,
    )
    result = run_experiment(scenario)
    assert result.p_stale > 0.8


def test_results_reproducible_across_runs():
    scenario = Scenario(message_count=250, loss_rate=0.15, seed=11)
    first = run_experiment(scenario)
    second = run_experiment(scenario)
    assert first.p_loss == second.p_loss
    assert first.case_fractions == second.case_fractions


def test_different_seeds_vary_results():
    base = Scenario(message_count=300, loss_rate=0.15, message_bytes=100)
    results = {run_experiment(base.with_(seed=s)).p_loss for s in range(4)}
    assert len(results) > 1


def test_polled_scenario_uses_polling_interval():
    scenario = Scenario(
        message_count=100,
        seed=8,
        config=ProducerConfig(polling_interval_s=0.05, message_timeout_s=5.0),
    )
    result = run_experiment(scenario)
    # 100 messages at >= 50 ms each require >= 5 simulated seconds.
    assert result.simulated_duration_s >= 5.0
    assert result.p_loss <= 0.05
