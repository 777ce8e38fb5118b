"""End-to-end observability: every integration-style scenario must satisfy
the conservation laws, and file traces must survive an offline replay.

Running with a ``TelemetryConfig`` checks each run's trace against the
conservation laws as it finishes, which makes the experiment itself raise
:class:`InvariantViolation` on any breach, so each ``run_experiment`` call
below *is* the assertion; the explicit checks on top pin the round-trip
through the JSONL file format.
"""

import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.observability import (
    conservation_violations,
    load_trace_file,
    trace_violations,
    verify_trace,
)
from repro.testbed import Scenario, TelemetryConfig, run_experiment


def scenario_matrix():
    """A cross-section of the integration suite's shapes."""
    return [
        # Clean network, at-least-once, full load.
        Scenario(message_count=200, seed=11),
        # Heavy random loss + delay, all three semantics.
        *[
            Scenario(
                message_count=200,
                message_bytes=150,
                loss_rate=0.15,
                network_delay_s=0.05,
                seed=12,
                config=ProducerConfig(
                    semantics=semantics,
                    message_timeout_s=2.0,
                    request_timeout_s=0.8,
                ),
            )
            for semantics in DeliverySemantics
        ],
        # Bursty (Gilbert–Elliott) loss with batching.
        Scenario(
            message_count=200,
            loss_rate=0.2,
            bursty_loss=True,
            seed=13,
            config=ProducerConfig(batch_size=4, message_timeout_s=2.0),
        ),
        # Polled source with a tight timeout (expiry paths).
        Scenario(
            message_count=150,
            seed=14,
            config=ProducerConfig(
                message_timeout_s=0.4, polling_interval_s=0.05
            ),
        ),
    ]


@pytest.mark.parametrize(
    "scenario", scenario_matrix(), ids=lambda s: f"seed{s.seed}-{s.config.semantics.value}"
)
def test_invariants_hold_for_integration_scenarios(scenario):
    result = run_experiment(scenario, telemetry=TelemetryConfig())
    manifest = result.manifest
    assert manifest is not None
    # The run already verified itself; re-check explicitly so a future
    # change that silently disables in-run checking still fails here.
    assert conservation_violations(manifest) == []
    assert manifest["trace_complete"] is True
    assert manifest["heap"]["ok"] is True


def test_file_trace_survives_offline_replay(tmp_path):
    path = tmp_path / "roundtrip.jsonl"
    scenario = Scenario(
        message_count=200,
        loss_rate=0.15,
        seed=15,
        config=ProducerConfig(message_timeout_s=2.0, request_timeout_s=0.8),
    )
    result = run_experiment(
        scenario, telemetry=TelemetryConfig(trace_path=str(path))
    )
    events, manifest = load_trace_file(path)
    assert manifest is not None
    # The file round-trip preserves the event stream bit-for-bit: the
    # recomputed digest matches, the replayed census matches, nothing is
    # lost to float formatting or line splitting.
    verify_trace(events, manifest)
    assert trace_violations(events, manifest) == []
    assert manifest["trace_digest"] == result.manifest["trace_digest"]
    assert len(events) == manifest["trace_events"]


def test_ring_and_file_sinks_agree_on_the_digest(tmp_path):
    scenario = Scenario(message_count=150, loss_rate=0.1, seed=16)
    ring = run_experiment(scenario, telemetry=TelemetryConfig())
    file_based = run_experiment(
        scenario,
        telemetry=TelemetryConfig(trace_path=str(tmp_path / "t.jsonl")),
    )
    assert ring.manifest["trace_digest"] == file_based.manifest["trace_digest"]
    assert ring.manifest["trace_events"] == file_based.manifest["trace_events"]
    assert ring == file_based  # measured outputs identical too
