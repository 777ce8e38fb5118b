"""Parallel path integration: pool results must equal serial bit-for-bit.

The experiment is a pure function of its scenario, so fanning a grid out
over forked worker processes must return exactly the rows the serial
loop measures — same P_l, P_d, timings, everything — in the same order.
"""

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.testbed import (
    Scenario,
    TelemetryConfig,
    run_experiment,
    run_many,
    sweep,
)
from repro.testbed.sweep import grid_scenarios


def small_grid():
    base = Scenario(
        message_count=250,
        seed=21,
        config=ProducerConfig(message_timeout_s=1.0),
    )
    return grid_scenarios(
        base,
        {
            "message_bytes": [100, 400],
            "loss_rate": [0.0, 0.12],
            "config.semantics": [
                DeliverySemantics.AT_MOST_ONCE,
                DeliverySemantics.AT_LEAST_ONCE,
            ],
        },
    )


def test_run_many_parallel_matches_serial_exactly():
    scenarios = small_grid()
    serial = run_many(scenarios, workers=1)
    parallel = run_many(scenarios, workers=4)
    assert len(serial) == len(parallel) == len(scenarios)
    for left, right in zip(serial, parallel):
        # ExperimentResult is a dataclass: == compares every field,
        # including float metrics, exactly.
        assert left == right


def test_trace_digest_deterministic_serial_and_parallel():
    """Same scenario + seed → identical trace digest, however it is run.

    The digest covers every structured event of the run (sends, acks,
    retransmissions, state transitions, ...), so equality here is a much
    stronger determinism statement than comparing the result rows.
    """
    scenarios = small_grid()
    telemetry = TelemetryConfig()
    serial = [run_experiment(s, telemetry=telemetry) for s in scenarios]
    parallel = run_many(scenarios, workers=4, telemetry=telemetry)
    rerun = run_many(scenarios, workers=1, telemetry=telemetry)
    for direct, pooled, again in zip(serial, parallel, rerun):
        assert direct.manifest is not None
        assert pooled.manifest is not None
        assert direct.manifest["trace_digest"] == pooled.manifest["trace_digest"]
        assert direct.manifest["trace_digest"] == again.manifest["trace_digest"]
        assert direct.manifest["trace_events"] == pooled.manifest["trace_events"]
        assert (
            direct.manifest["metrics_digest"] == pooled.manifest["metrics_digest"]
        )
    # Distinct scenarios must not collide on one digest.
    digests = {r.manifest["trace_digest"] for r in parallel}
    assert len(digests) == len(scenarios)


def test_telemetry_does_not_perturb_results():
    """Runs with telemetry on are bit-identical to uninstrumented runs."""
    scenarios = small_grid()[:4]
    plain = run_many(scenarios, workers=1)
    traced = run_many(scenarios, workers=1, telemetry=TelemetryConfig())
    for left, right in zip(plain, traced):
        assert left == right  # manifest is excluded from equality
        assert left.manifest is None
        assert right.manifest is not None


def test_sweep_workers_match_serial():
    base = Scenario(message_count=200, seed=8)
    axes = {"message_bytes": [150, 300], "config.batch_size": [1, 2]}
    assert sweep(base, axes, workers=2) == sweep(base, axes, workers=1)
