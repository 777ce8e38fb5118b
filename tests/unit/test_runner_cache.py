"""Unit tests for the parallel experiment engine and the result cache."""

import json

import pytest

import repro.testbed.runner as runner_mod
from repro.testbed import (
    ExperimentFailed,
    ResultCache,
    Scenario,
    derive_seed,
    resolve_workers,
    run_many,
    scenario_fingerprint,
    sweep,
)
from repro.testbed.cache import default_salt
from repro.testbed.runner import WORKERS_ENV_VAR
from repro.testbed.sweep import grid_scenarios

SMALL = Scenario(message_count=120, seed=5)


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert resolve_workers(3) == 3

    def test_env_var_used_when_unset(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert resolve_workers() == 5

    def test_default_is_at_least_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers() >= 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestFingerprint:
    def test_stable_for_equal_scenarios(self):
        assert scenario_fingerprint(Scenario(), "s") == scenario_fingerprint(
            Scenario(), "s"
        )

    def test_sensitive_to_every_layer(self):
        base = Scenario()
        variants = [
            base.with_(seed=2),
            base.with_(message_bytes=300),
            base.with_(config=base.config.with_(batch_size=4)),
            base.with_(hardware=base.hardware.__class__(io_bytes_per_s=50_000.0)),
        ]
        keys = {scenario_fingerprint(s, "s") for s in [base, *variants]}
        assert len(keys) == len(variants) + 1

    def test_sensitive_to_salt(self):
        assert scenario_fingerprint(Scenario(), "a") != scenario_fingerprint(
            Scenario(), "b"
        )


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        assert cache.get(SMALL) is None
        assert cache.misses == 1
        [result] = run_many([SMALL], workers=1, cache=cache)
        cached = cache.get(SMALL)
        assert cached == result
        assert cache.hits == 1
        assert len(cache) == 1

    def test_cache_short_circuits_runs(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, salt="v1")
        [result] = run_many([SMALL], workers=1, cache=cache)

        def boom(scenario):
            raise AssertionError("cache hit should not re-run")

        monkeypatch.setattr("repro.testbed.runner.run_experiment", boom)
        [again] = run_many([SMALL], workers=1, cache=cache)
        assert again == result

    def test_salt_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        run_many([SMALL], workers=1, cache=cache)
        stale = ResultCache(tmp_path, salt="v2")
        assert stale.get(SMALL) is None

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        path = cache.put(SMALL, run_many([SMALL], workers=1)[0])
        path.write_text("{not json")
        assert cache.get(SMALL) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        run_many([SMALL], workers=1, cache=cache)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestRunManySerial:
    def test_results_in_input_order(self):
        scenarios = [SMALL.with_(seed=s) for s in (11, 12, 13)]
        results = run_many(scenarios, workers=1)
        assert [r.seed for r in results] == [11, 12, 13]

    def test_progress_reports_each_completion(self):
        scenarios = [SMALL.with_(seed=s) for s in (1, 2)]
        seen = []
        run_many(
            scenarios,
            workers=1,
            progress=lambda i, total, sc: seen.append((i, total, sc.seed)),
        )
        assert seen == [(0, 2, 1), (1, 2, 2)]

    def test_error_raise_mode(self, monkeypatch):
        def boom(scenario):
            raise RuntimeError("bad scenario")

        monkeypatch.setattr("repro.testbed.runner.run_experiment", boom)
        with pytest.raises(ExperimentFailed) as excinfo:
            run_many([SMALL], workers=1)
        assert "bad scenario" in str(excinfo.value)

    def test_failure_message_carries_fingerprint_and_traceback(self, monkeypatch):
        def injected(scenario):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(runner_mod, "run_experiment", injected)
        with pytest.raises(ExperimentFailed) as excinfo:
            run_many([SMALL], workers=1)
        message = str(excinfo.value)
        fingerprint = scenario_fingerprint(SMALL, default_salt())
        assert f"{fingerprint[:12]} seed={SMALL.seed}:" in message
        assert "RuntimeError('injected failure')" in message
        # The tail of the traceback is quoted.
        assert 'raise RuntimeError("injected failure")' in message

    def test_failure_message_truncates_long_grids(self, monkeypatch):
        def injected(scenario):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(runner_mod, "run_experiment", injected)
        scenarios = [SMALL.with_(seed=seed) for seed in range(10, 16)]
        with pytest.raises(ExperimentFailed) as excinfo:
            run_many(scenarios, workers=1)
        message = str(excinfo.value)
        assert "6 scenario(s) failed" in message
        assert "and 3 more" in message


class TestCacheCorruption:
    def test_corrupt_entry_is_quarantined_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        [result] = run_many([SMALL], workers=1, cache=cache)
        path = cache._path(cache.key(SMALL))
        path.write_text("{torn write")

        assert cache.get(SMALL) is None
        assert cache.corruptions == 1
        # The bad file moved aside for post-mortem and left the lookup path.
        assert not path.exists()
        assert (tmp_path / ResultCache.CORRUPT_DIR / path.name).exists()
        assert len(cache) == 0

        # A fresh write repairs the slot.
        cache.put(SMALL, result)
        assert cache.get(SMALL) == result

    def test_unknown_fields_count_as_corruption(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        run_many([SMALL], workers=1, cache=cache)
        path = cache._path(cache.key(SMALL))
        payload = json.loads(path.read_text())
        payload["result"]["not_a_field"] = 1
        path.write_text(json.dumps(payload, sort_keys=True))
        assert cache.get(SMALL) is None
        assert cache.corruptions == 1


class TestResume:
    def test_interrupted_sweep_resumes_from_cache(self, tmp_path, monkeypatch):
        scenarios = [SMALL.with_(seed=seed) for seed in (21, 22, 23, 24)]
        cache = ResultCache(tmp_path, salt="v1")
        real = runner_mod.run_experiment

        def interrupt_third(scenario, telemetry=None):
            if scenario.seed == 23:
                raise KeyboardInterrupt
            return real(scenario)

        monkeypatch.setattr(runner_mod, "run_experiment", interrupt_third)
        with pytest.raises(KeyboardInterrupt):
            run_many(scenarios, workers=1, cache=cache)
        assert len(cache) == 2  # the two finished rows were checkpointed

        ran = []

        def counting(scenario, telemetry=None):
            ran.append(scenario.seed)
            return real(scenario)

        monkeypatch.setattr(runner_mod, "run_experiment", counting)
        results = run_many(scenarios, workers=1, cache=cache)
        assert [r.seed for r in results] == [21, 22, 23, 24]
        # Only the interrupted tail was recomputed.
        assert sorted(ran) == [23, 24]


class TestSweepSeeding:
    def test_derive_seed_unique_per_cell(self):
        seeds = {
            derive_seed(1, point, replication)
            for point in range(40)
            for replication in range(5)
        }
        assert len(seeds) == 40 * 5

    def test_derive_seed_deterministic(self):
        assert derive_seed(9, 3, 2) == derive_seed(9, 3, 2)

    def test_grid_points_no_longer_share_seeds(self):
        """Regression: base.seed + 1000 * replication reused the same seed
        set at every grid point (unintended common random numbers)."""
        scenarios = grid_scenarios(
            Scenario(message_count=50),
            {"message_bytes": [100, 200, 400]},
            replications=2,
        )
        assert len({s.seed for s in scenarios}) == len(scenarios) == 6

    def test_sweep_grid_order_with_replications(self):
        results = sweep(
            Scenario(message_count=60, seed=3),
            {"message_bytes": [100, 200]},
            replications=2,
            workers=1,
        )
        assert [r.message_bytes for r in results] == [100, 100, 200, 200]
        assert len({r.seed for r in results}) == 4
