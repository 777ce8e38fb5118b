"""Auto-serial fallback, worker resolution and the lean payload codec.

The engine must never lose to serial execution on dispatch overhead:
whenever a pool cannot win (one worker, one usable CPU, one pending
scenario) `run_many` drops to the in-process loop and records *why*
— in the `execution_info` out-param and a `runner.auto_serial.<reason>`
metrics counter.
"""

import multiprocessing
import os
import time

import pytest

import repro.testbed.runner as runner_mod
from repro.kafka import DeliverySemantics, HardwareProfile, ProducerConfig
from repro.observability import MetricsRegistry
from repro.testbed import (
    ExperimentFailed,
    RetryPolicy,
    Scenario,
    resolve_workers,
    run_many,
)
from repro.testbed.runner import (
    _decode_scenario,
    _encode_scenario,
)


def fake_run_experiment(scenario, telemetry=None):
    return ("ran", scenario.seed)


class SeedCache:
    """A result cache stand-in keyed by scenario seed."""

    salt = "test"

    def __init__(self, hits):
        self.hits = hits

    def get(self, scenario):
        return self.hits.get(scenario.seed)

    def put(self, scenario, result):
        self.hits[scenario.seed] = result


def failing_run_experiment(scenario, telemetry=None):
    if scenario.seed % 2:
        raise RuntimeError(f"boom {scenario.seed}")
    return ("ran", scenario.seed)


def hanging_run_experiment(scenario, telemetry=None):
    time.sleep(30)


def doubled_run_experiment(scenario, telemetry=None):
    return ("doubled", 2 * scenario.seed)


@pytest.fixture(autouse=True)
def stub_experiment(monkeypatch):
    monkeypatch.setattr(runner_mod, "run_experiment", fake_run_experiment)


def scenarios(count):
    return [Scenario(message_count=10, seed=i + 1) for i in range(count)]


class TestResolveWorkersAuto:
    def test_auto_string_behaves_like_none(self, monkeypatch):
        monkeypatch.delenv(runner_mod.WORKERS_ENV_VAR, raising=False)
        assert resolve_workers("auto") == resolve_workers(None)

    def test_numeric_string_accepted(self):
        assert resolve_workers("3") == 3

    def test_auto_env_value_falls_back_to_cpu(self, monkeypatch):
        # Every usable CPU runs a worker: the parent only blocks on results.
        monkeypatch.setenv(runner_mod.WORKERS_ENV_VAR, "auto")
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 9)
        assert resolve_workers(None) == 9

    def test_garbage_string_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers("many")

    def test_zero_still_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestAutoSerialReasons:
    def test_workers_le_1(self):
        registry = MetricsRegistry()
        info = {}
        run_many(scenarios(4), workers=1, metrics=registry, execution_info=info)
        assert info["mode"] == "serial"
        assert info["reason"] == "workers<=1"
        assert registry.counter("runner.auto_serial.workers_le_1").value == 1

    def test_cpu_count_eq_1(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 1)
        registry = MetricsRegistry()
        info = {}
        run_many(scenarios(8), workers=4, metrics=registry, execution_info=info)
        assert info["mode"] == "serial"
        assert info["reason"] == "cpu_count==1"
        assert registry.counter("runner.auto_serial.cpu_count_eq_1").value == 1

    def test_single_scenario(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 8)
        cache = SeedCache({1: ("hit", 1), 2: ("hit", 2), 3: ("hit", 3)})
        registry = MetricsRegistry()
        info = {}
        # Three of four slots are cache hits: one pending scenario, so a
        # pool has nothing to spread.
        results = run_many(
            scenarios(4), workers=4, cache=cache,
            metrics=registry, execution_info=info,
        )
        assert results == [("hit", 1), ("hit", 2), ("hit", 3), ("ran", 4)]
        assert info["mode"] == "serial"
        assert info["reason"] == "single_scenario"
        assert (info["pending"], info["total"]) == (1, 4)
        assert registry.counter("runner.auto_serial.single_scenario").value == 1

    def test_single_scenario_never_pays_for_a_pool(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 8)
        info = {}
        run_many(scenarios(1), workers=4, execution_info=info)
        assert info["mode"] == "serial"
        assert info["reason"] == "single_scenario"

    def test_no_fork_runs_serially(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 8)
        monkeypatch.setattr(runner_mod, "_fork_context", lambda: None)
        registry = MetricsRegistry()
        info = {}
        results = run_many(
            scenarios(4), workers=4, metrics=registry, execution_info=info
        )
        assert results == [("ran", seed) for seed in range(1, 5)]
        assert info["mode"] == "serial"
        assert info["reason"] == "no_fork"
        assert registry.counter("runner.auto_serial.no_fork").value == 1

    def test_metrics_optional(self):
        [result] = run_many(scenarios(1), workers=1)
        assert result == ("ran", 1)


class TestExecutionInfoShape:
    def test_serial_info_fields(self):
        info = {}
        run_many(scenarios(3), workers=1, execution_info=info)
        assert info == {
            "mode": "serial",
            "workers": 1,
            "reason": "workers<=1",
            "pending": 3,
            "total": 3,
        }


class TestUsableCpus:
    """The pool is sized to the CPUs this process may run on."""

    def test_cpu_count_reads_affinity(self, monkeypatch):
        monkeypatch.setattr(
            runner_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 64)
        assert runner_mod._cpu_count() == 1

    @pytest.mark.parametrize("workers, env", [(16, "auto"), (None, "7")])
    def test_requests_capped_at_usable_cpus(self, monkeypatch, workers, env):
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 2)
        monkeypatch.setenv(runner_mod.WORKERS_ENV_VAR, env)
        info = {}
        results = run_many(scenarios(6), workers=workers, execution_info=info)
        assert results == [("ran", seed) for seed in range(1, 7)]
        assert info["mode"] == "pool"
        assert info["workers"] == 2

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity"
    )
    def test_affinity_pinned_to_one_cpu_runs_serially(self, monkeypatch):
        monkeypatch.delenv(runner_mod.WORKERS_ENV_VAR, raising=False)
        original = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(original)})
        try:
            explicit, default = {}, {}
            run_many(scenarios(4), workers=4, execution_info=explicit)
            run_many(scenarios(4), execution_info=default)
        finally:
            os.sched_setaffinity(0, original)
        for info in (explicit, default):
            assert info["mode"] == "serial"
            assert info["reason"] == "cpu_count==1"


class TestPoolLifetime:
    """Each call forks its own pool and reaps it before returning."""

    def test_no_worker_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 2)
        info = {}
        run_many(scenarios(4), workers=2, execution_info=info)
        assert info["mode"] == "pool"
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_failed_grid(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 2)
        monkeypatch.setattr(runner_mod, "run_experiment", failing_run_experiment)
        with pytest.raises(ExperimentFailed):
            run_many(scenarios(4), workers=2)
        assert multiprocessing.active_children() == []

    def test_timed_out_attempt_is_reaped(self, monkeypatch):
        # A per-attempt timeout forces the pool even for one scenario; the
        # hung worker is terminated with the pool, not left running.
        monkeypatch.setattr(runner_mod, "run_experiment", hanging_run_experiment)
        info = {}
        [failure] = run_many(
            scenarios(1), workers=2, on_error="collect", execution_info=info,
            retry=RetryPolicy(max_attempts=1, timeout_s=0.2),
        )
        assert info["mode"] == "pool"
        assert "TimeoutError" in failure.error
        assert multiprocessing.active_children() == []

    def test_pool_sees_state_set_before_the_call(self, monkeypatch):
        # Workers fork per call, so a stand-in installed now is what runs.
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 2)
        monkeypatch.setattr(runner_mod, "run_experiment", doubled_run_experiment)
        assert run_many(scenarios(2), workers=2) == [("doubled", 2), ("doubled", 4)]


class TestLeanPayloadCodec:
    def test_default_scenario_is_empty_payload(self):
        assert _encode_scenario(Scenario()) == {}
        assert _decode_scenario({}) == Scenario()

    def test_round_trip_preserves_every_field(self):
        scenario = Scenario(
            message_bytes=900,
            timeliness_s=4.0,
            network_delay_s=0.25,
            loss_rate=0.1,
            jitter_s=0.01,
            config=ProducerConfig(
                semantics=DeliverySemantics.AT_MOST_ONCE,
                batch_size=6,
                polling_interval_s=0.04,
                message_timeout_s=2.0,
                max_retries=3,
            ),
            message_count=777,
            seed=42,
            bursty_loss=True,
            arrival_rate=123.0,
            broker_count=5,
            partition_count=7,
            hardware=HardwareProfile(),
            topic_name="alt",
        )
        payload = _encode_scenario(scenario)
        assert _decode_scenario(payload) == scenario

    def test_payload_only_carries_diffs(self):
        payload = _encode_scenario(Scenario(seed=9, message_bytes=500))
        assert payload == {"message_bytes": 500, "seed": 9}

    def test_nested_enum_encodes_as_wire_value(self):
        payload = _encode_scenario(
            Scenario(config=ProducerConfig(semantics=DeliverySemantics.EXACTLY_ONCE))
        )
        assert payload == {"config": {"semantics": "exactly_once"}}
