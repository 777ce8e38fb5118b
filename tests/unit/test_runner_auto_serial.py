"""Auto-serial fallback, worker resolution and the pool's lifetime.

The engine must never lose to serial execution on dispatch overhead:
whenever a pool cannot win (one worker, one usable CPU, one pending
scenario) `run_many` drops to the in-process loop and records *why*
in the `execution_info` out-param.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro.testbed.runner as runner_mod
from repro.testbed import (
    ExperimentFailed,
    Scenario,
    resolve_workers,
    run_many,
)


ROOT = Path(__file__).resolve().parents[2]

#: A grid whose fourth scenario SIGKILLs its pool worker (as the OOM
#: killer would) once the other three rows are in the cache; prints what
#: ``run_many`` left behind as JSON.
DEAD_WORKER_GRID = """
import json, multiprocessing, os, signal, sys, time
import repro.testbed.runner as runner
from repro.testbed import ExperimentFailed, ResultCache, Scenario, run_many

root = sys.argv[1]
real = runner.run_experiment

def run_or_die(scenario, telemetry=None):
    if scenario.seed == 4:
        deadline = time.monotonic() + 30
        while len(ResultCache(root)) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGKILL)
    return real(scenario)

runner.run_experiment = run_or_die
runner._cpu_count = lambda: 2
grid = [Scenario(message_count=20, seed=seed) for seed in (1, 2, 3, 4)]
cache = ResultCache(root)
info = {}
try:
    run_many(grid, workers=2, cache=cache, execution_info=info)
    failures = []
except ExperimentFailed as exc:
    failures = exc.failures
print(json.dumps({
    "mode": info.get("mode"),
    "failed": [failure.scenario.seed for failure in failures],
    "errors": [failure.error for failure in failures],
    "children": len(multiprocessing.active_children()),
    "cached": [s.seed for s in grid if cache.get(s) is not None],
}))
"""


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


def raising_run_experiment(scenario, telemetry=None):
    raise ValueError("boom")


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
        info = {}
        run_many(scenarios(4), workers=1, execution_info=info)
        assert info["mode"] == "serial"
        assert info["reason"] == "workers<=1"

    def test_cpu_count_eq_1(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 1)
        info = {}
        run_many(scenarios(8), workers=4, execution_info=info)
        assert info["mode"] == "serial"
        assert info["reason"] == "cpu_count==1"

    def test_single_scenario(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 8)
        cache = SeedCache({1: ("hit", 1), 2: ("hit", 2), 3: ("hit", 3)})
        info = {}
        # Three of four slots are cache hits: one pending scenario, so a
        # pool has nothing to spread.
        results = run_many(
            scenarios(4), workers=4, cache=cache, execution_info=info
        )
        assert results == [("hit", 1), ("hit", 2), ("hit", 3), ("ran", 4)]
        assert info["mode"] == "serial"
        assert info["reason"] == "single_scenario"
        assert (info["pending"], info["total"]) == (1, 4)

    def test_single_scenario_never_pays_for_a_pool(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 8)
        info = {}
        run_many(scenarios(1), workers=4, execution_info=info)
        assert info["mode"] == "serial"
        assert info["reason"] == "single_scenario"

    def test_no_fork_runs_serially(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 8)
        monkeypatch.setattr(runner_mod, "_fork_context", lambda: None)
        info = {}
        results = run_many(scenarios(4), workers=4, execution_info=info)
        assert results == [("ran", seed) for seed in range(1, 5)]
        assert info["mode"] == "serial"
        assert info["reason"] == "no_fork"


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

    def test_pooled_failure_carries_the_worker_traceback(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 2)
        monkeypatch.setattr(runner_mod, "run_experiment", raising_run_experiment)
        info = {}
        with pytest.raises(ExperimentFailed) as excinfo:
            run_many(scenarios(2), workers=2, execution_info=info)
        assert info["mode"] == "pool"
        message = str(excinfo.value)
        assert "ValueError('boom')" in message
        # The tail of the traceback formatted inside the worker.
        assert 'raise ValueError("boom")' in message
        assert "in raising_run_experiment" in message

    def test_dead_worker_fails_the_grid_instead_of_hanging(self, tmp_path):
        # A subprocess with its own session bounds the wait: a hung grid
        # is killed with every worker it forked.
        child = subprocess.Popen(
            [sys.executable, "-c", DEAD_WORKER_GRID, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("run_many hung after a pool worker died")
        assert child.returncode == 0, err
        report = json.loads(out)
        assert report["mode"] == "pool"
        assert report["failed"] == [4]
        assert "BrokenProcessPool" in report["errors"][0]
        assert report["children"] == 0
        # Rows finished before the kill were checkpointed for a rerun.
        assert report["cached"] == [1, 2, 3]

    def test_pool_sees_state_set_before_the_call(self, monkeypatch):
        # Workers fork per call, so a stand-in installed now is what runs.
        monkeypatch.setattr(runner_mod, "_cpu_count", lambda: 2)
        monkeypatch.setattr(runner_mod, "run_experiment", doubled_run_experiment)
        assert run_many(scenarios(2), workers=2) == [("doubled", 2), ("doubled", 4)]

