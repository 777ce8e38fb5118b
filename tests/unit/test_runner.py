"""Unit tests for the parallel experiment engine and the run identity."""

import pytest

import repro.testbed.runner as runner_mod
from repro.testbed import (
    ExperimentFailed,
    Scenario,
    derive_seed,
    resolve_workers,
    run_many,
    scenario_fingerprint,
    sweep,
)
from repro.testbed.scenario import default_salt
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
            base.with_(loss_rate=0.1),
        ]
        keys = {scenario_fingerprint(s, "s") for s in [base, *variants]}
        assert len(keys) == len(variants) + 1

    def test_sensitive_to_salt(self):
        assert scenario_fingerprint(Scenario(), "a") != scenario_fingerprint(
            Scenario(), "b"
        )

    def test_run_identity_is_pinned(self):
        # Manifests and ExperimentFailed messages carry these values; a
        # change to either breaks the link to runs recorded earlier.
        assert default_salt() == "1.0.0+e1"
        assert scenario_fingerprint(Scenario(), default_salt()) == (
            "8a824fa43973bc88dce8d143d75535c09127cf830775c24cf6d508b405450457"
        )


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
        def boom(scenario, telemetry=None):
            raise RuntimeError("bad scenario")

        monkeypatch.setattr("repro.testbed.runner.run_experiment", boom)
        with pytest.raises(ExperimentFailed) as excinfo:
            run_many([SMALL], workers=1)
        assert "bad scenario" in str(excinfo.value)

    def test_failure_message_carries_fingerprint_and_traceback(self, monkeypatch):
        def injected(scenario, telemetry=None):
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
        def injected(scenario, telemetry=None):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(runner_mod, "run_experiment", injected)
        scenarios = [SMALL.with_(seed=seed) for seed in range(10, 16)]
        with pytest.raises(ExperimentFailed) as excinfo:
            run_many(scenarios, workers=1)
        message = str(excinfo.value)
        assert "6 scenario(s) failed" in message
        assert "and 3 more" in message


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
