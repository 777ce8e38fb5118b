"""Integration tests for scaled producer fleets (Section IV-C)."""

import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.observability.invariants import verify_trace
from repro.testbed import Experiment, Scenario, TelemetryConfig, run_experiment


BASE = Scenario(
    message_bytes=200,
    message_count=1200,
    seed=5,
    arrival_rate=24.0,
    config=ProducerConfig(message_timeout_s=1.0),
)


def test_scaling_relieves_overload():
    single = run_experiment(BASE)
    fleet = run_experiment(BASE, producers=4)
    assert single.p_loss > 0.3
    assert fleet.p_loss < 0.1


def test_fleet_conserves_all_keys():
    result = run_experiment(BASE.with_(message_count=900), producers=3)
    # The conservation laws ran inside; produced must equal the request.
    assert result.produced == 900


@pytest.mark.parametrize("producers", [1, 3])
def test_source_keys_are_dense_with_queue_drops(producers):
    # The experiment reconciles range(produced) as its source keys, which
    # holds only while every emitted record, queue-dropped ones included,
    # takes the next key of the simulator's one counter.
    scenario = Scenario(
        message_count=300,
        loss_rate=0.1,
        seed=3,
        config=ProducerConfig(queue_capacity=2),
    )
    experiment = Experiment(scenario, producers=producers)
    result = experiment.run()
    assert sum(member.producer.stats.queue_dropped for member in experiment.members) >= 1
    assert next(experiment.sim.record_keys) == result.produced == scenario.message_count


def test_one_producer_fleet_matches_single_experiment_shape():
    scenario = BASE.with_(arrival_rate=6.0, message_count=600)
    single = run_experiment(scenario)
    fleet = run_experiment(scenario, producers=1)
    assert fleet == single


def test_fault_applies_to_every_member():
    scenario = BASE.with_(
        loss_rate=0.2,
        network_delay_s=0.1,
        arrival_rate=8.0,
        message_count=900,
        config=BASE.config.with_(
            semantics=DeliverySemantics.AT_MOST_ONCE, message_timeout_s=0.5
        ),
    )
    experiment = Experiment(scenario, producers=3)
    fleet = experiment.run()
    assert fleet.p_loss > 0.02  # faults visible through every uplink
    assert all(member.link.forward.stats.dropped_loss for member in experiment.members)


def test_uneven_message_split_covers_total():
    result = run_experiment(
        BASE.with_(message_count=1001, arrival_rate=9.0), producers=3
    )
    assert result.produced == 1001


def test_producers_validation():
    with pytest.raises(ValueError):
        run_experiment(BASE, producers=0)


def test_more_producers_than_messages_rejected():
    with pytest.raises(ValueError, match="message_count"):
        Experiment(BASE.with_(message_count=2), producers=3)
    assert run_experiment(BASE.with_(message_count=3), producers=3).produced == 3


def test_scaled_run_is_deterministic():
    scenario = BASE.with_(message_count=600, arrival_rate=12.0)
    first = run_experiment(scenario, producers=2)
    second = run_experiment(scenario, producers=2)
    assert first.p_loss == second.p_loss
    assert first.p_duplicate == second.p_duplicate


def test_fleet_telemetry_passes_trace_invariants():
    scenario = BASE.with_(message_count=450, arrival_rate=12.0, loss_rate=0.1)
    experiment = Experiment(scenario, telemetry=TelemetryConfig(), producers=3)
    result = experiment.run()
    manifest = result.manifest
    verify_trace(experiment.telemetry.tracer.records(), manifest)

    def counter(name):
        return manifest["metrics"][name]["value"]

    assert counter("reconciliation.produced") == result.produced == 450
    assert counter("reconciliation.delivered_unique") == manifest["delivered_unique"]
    assert counter("reconciliation.lost") == manifest["lost"]
    assert counter("reconciliation.duplicated") == manifest["duplicated"]
    assert counter("producer.ingested") == 450
    assert counter("transport.forward.retransmissions") == result.retransmissions
    assert result.case_fractions


def test_fleet_links_get_the_scenario_jitter():
    """Every member's link draws its delay from the jittered range, so
    each member's fastest round trip beats the steady link's."""
    scenario = BASE.with_(message_count=300, arrival_rate=9.0, network_delay_s=0.05)

    def fastest_rtts(scenario):
        experiment = Experiment(scenario, producers=3)
        experiment.run()
        return [member.channel.minimum_rtt("forward") for member in experiment.members]

    steady = fastest_rtts(scenario)
    jittered = fastest_rtts(scenario.with_(jitter_s=0.03))
    assert all(rtt is not None for rtt in steady + jittered)
    assert all(j < s for j, s in zip(jittered, steady))
