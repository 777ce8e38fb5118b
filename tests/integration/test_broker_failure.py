"""Integration tests for broker-failure scenarios (paper future work)."""

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.testbed import Experiment, Scenario


def run_with_crash(crash_at, restore_at=None, semantics=DeliverySemantics.AT_LEAST_ONCE):
    scenario = Scenario(
        message_bytes=200,
        message_count=300,
        seed=12,
        arrival_rate=20.0,
        config=ProducerConfig(semantics=semantics, message_timeout_s=2.0),
    )
    experiment = Experiment(scenario)
    experiment.injector.crash_broker_at(crash_at, "broker-0")
    if restore_at is not None:
        experiment.injector.restore_broker_at(restore_at, "broker-0")
    return experiment, experiment.run()


def test_crash_with_failover_keeps_most_messages():
    experiment, result = run_with_crash(crash_at=2.0)
    # Leader election moves broker-0's partitions to the replicas, so the
    # cluster stays available and losses stay bounded.
    assert result.p_loss < 0.5
    for topic in experiment.cluster.topics.values():
        for partition in topic.partitions:
            assert partition.leader_broker_id != "broker-0"


def test_crash_and_restore_recovers():
    _, crashed = run_with_crash(crash_at=2.0)
    _, recovered = run_with_crash(crash_at=2.0, restore_at=4.0)
    assert recovered.p_loss <= crashed.p_loss + 0.05


def test_all_brokers_down_loses_messages():
    scenario = Scenario(
        message_bytes=200,
        message_count=150,
        seed=13,
        arrival_rate=20.0,
        config=ProducerConfig(
            semantics=DeliverySemantics.AT_MOST_ONCE, message_timeout_s=1.0
        ),
    )
    experiment = Experiment(scenario)
    for broker_id in list(experiment.cluster.brokers):
        experiment.injector.crash_broker_at(0.0, broker_id)
    result = experiment.run()
    assert result.p_loss == 1.0


def test_fault_injector_combined_with_network_fault():
    scenario = Scenario(
        message_bytes=200,
        message_count=200,
        seed=14,
        arrival_rate=15.0,
        loss_rate=0.1,
        config=ProducerConfig(message_timeout_s=2.0),
    )
    experiment = Experiment(scenario)
    experiment.injector.crash_broker_at(3.0, "broker-1")
    result = experiment.run()
    assert 0.0 <= result.p_loss <= 1.0
    result_clean = Experiment(scenario).run()
    assert result.p_loss >= result_clean.p_loss - 0.05
