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
    # check_conservation ran inside; produced must equal the request.
    assert result.produced == 900


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
    counters = experiment.telemetry.metrics
    assert counters.counter("reconciliation.produced").value == result.produced == 450
    assert counters.counter("reconciliation.delivered_unique").value == manifest[
        "delivered_unique"
    ]
    assert counters.counter("reconciliation.lost").value == manifest["lost"]
    assert counters.counter("reconciliation.duplicated").value == manifest["duplicated"]
    assert counters.counter("producer.ingested").value == 450
    assert counters.counter("transport.forward.retransmissions").value == (
        result.retransmissions
    )
    assert result.case_fractions and result.p95_ack_latency_s is not None


def test_fleet_links_get_the_scenario_jitter():
    scenario = BASE.with_(message_count=300, arrival_rate=9.0, network_delay_s=0.05)
    steady = run_experiment(scenario, producers=3)
    jittered = run_experiment(scenario.with_(jitter_s=0.03), producers=3)
    assert jittered.mean_ack_latency_s != steady.mean_ack_latency_s
