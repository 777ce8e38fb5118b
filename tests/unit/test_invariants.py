"""Unit tests for the conservation laws and the trace replay checker.

The acceptance-critical test here is the seeded fault injection at the
bottom: a real experiment trace is mutilated (one transition record
dropped, one edited) and the checker must fail — proving the invariants
actually constrain the trace rather than vacuously passing.
"""

import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.observability.invariants import (
    InvariantViolation,
    conservation_violations,
    replay_census,
    trace_violations,
    validate_metrics_document,
    verify_manifest,
    verify_trace,
)
from repro.observability.trace import EventKind, trace_digest
from repro.testbed import Scenario, TelemetryConfig
from repro.testbed.experiment import Experiment


def make_manifest(**overrides):
    """A minimal, internally consistent manifest (10 produced, 1 lost)."""
    base = {
        "produced": 10,
        "delivered_unique": 9,
        "lost": 1,
        "duplicated": 1,
        "persisted_but_unacked": 0,
        "unresolved": 0,
        "case_counts": {"case1": 7, "case2": 1, "case4": 1, "case5": 1},
        "heap": {"ok": True},
        "trace_complete": False,
    }
    base.update(overrides)
    return base


class TestConservation:
    def test_consistent_manifest_has_no_violations(self):
        assert conservation_violations(make_manifest()) == []
        verify_manifest(make_manifest())  # no raise

    def test_census_must_be_exhaustive(self):
        manifest = make_manifest(produced=11)
        violations = conservation_violations(manifest)
        assert any("census not exhaustive" in v for v in violations)

    def test_reconciliation_must_partition_keys(self):
        manifest = make_manifest(lost=2)
        violations = conservation_violations(manifest)
        assert any("reconciliation not a partition" in v for v in violations)

    def test_case5_must_equal_duplicated(self):
        manifest = make_manifest(duplicated=0)
        violations = conservation_violations(manifest)
        assert any("duplicate accounting diverged" in v for v in violations)

    def test_heap_drift_is_a_violation(self):
        manifest = make_manifest(heap={"ok": False, "live": -2})
        violations = conservation_violations(manifest)
        assert any("event-heap bookkeeping drifted" in v for v in violations)

    def test_verify_manifest_raises_with_all_breaches(self):
        manifest = make_manifest(produced=11, duplicated=0)
        with pytest.raises(InvariantViolation) as excinfo:
            verify_manifest(manifest)
        assert len(excinfo.value.violations) >= 2

    def test_unresolved_messages_balance_the_loss_law(self):
        manifest = make_manifest(
            case_counts={"case1": 7, "case2": 1, "case4": 1},
            duplicated=0,
            unresolved=1,
            delivered_unique=9,
            lost=1,
            persisted_but_unacked=1,
        )
        assert conservation_violations(manifest) == []


class TestEveryRunChecked:
    def test_untracked_append_fails_a_telemetry_off_run(self):
        experiment = Experiment(Scenario(message_count=50, seed=3))
        assert experiment.telemetry is None
        tracker = experiment.tracker
        on_append = tracker.on_append
        skipped = []

        def skip_first(record, partition, offset):
            if skipped:
                on_append(record, partition, offset)
            else:
                skipped.append(record.key)

        tracker.on_append = skip_first
        with pytest.raises(InvariantViolation):
            experiment.run()
        assert len(skipped) == 1


def transition(key, edge, source, target, t=0.0):
    return {
        "kind": EventKind.TRANSITION,
        "t": t,
        "key": key,
        "edge": edge,
        "from": source,
        "to": target,
    }


class TestReplay:
    def test_replay_rebuilds_the_census(self):
        events = [
            transition(1, "I", "ready", "delivered", 0.1),
            transition(2, "II", "ready", "lost", 0.2),
            transition(2, "IV", "lost", "delivered", 0.3),
        ]
        census, machines, problems = replay_census(events)
        assert problems == []
        assert census == {"case1": 1, "case4": 1}
        assert set(machines) == {1, 2}

    def test_replay_flags_illegal_sequences(self):
        events = [
            transition(1, "I", "ready", "delivered", 0.1),
            transition(1, "I", "delivered", "delivered", 0.2),  # illegal
        ]
        _, _, problems = replay_census(events)
        assert any("illegal replay" in p for p in problems)

    def test_replay_flags_from_to_mismatches(self):
        events = [transition(1, "I", "lost", "lost", 0.1)]
        _, _, problems = replay_census(events)
        assert any("recorded from=" in p for p in problems)
        assert any("recorded to=" in p for p in problems)

    def test_trace_times_must_be_monotonic(self):
        events = [
            transition(1, "I", "ready", "delivered", 1.0),
            transition(2, "II", "ready", "lost", 0.5),
        ]
        manifest = make_manifest(trace_complete=False)
        violations = trace_violations(events, manifest)
        assert violations == ["trace times are not monotonically non-decreasing"]

    def test_verify_trace_requires_a_manifest(self):
        with pytest.raises(InvariantViolation):
            verify_trace([], None)


class TestSeededFaultInjection:
    """Acceptance: the checker must fail when the trace is mutilated."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        scenario = Scenario(
            message_count=150,
            message_bytes=150,
            loss_rate=0.12,
            seed=77,
            config=ProducerConfig(
                semantics=DeliverySemantics.AT_LEAST_ONCE,
                message_timeout_s=2.0,
                request_timeout_s=0.8,
            ),
        )
        experiment = Experiment(scenario, telemetry=TelemetryConfig())
        experiment.run()
        telemetry = experiment.telemetry
        return list(telemetry.tracer.records()), dict(telemetry.manifest)

    def test_pristine_trace_passes(self, traced_run):
        events, manifest = traced_run
        verify_trace(events, manifest)  # no raise

    def test_dropped_transition_record_is_detected(self, traced_run):
        events, manifest = traced_run
        index = next(
            i for i, r in enumerate(events) if r["kind"] == EventKind.TRANSITION
        )
        mutilated = events[:index] + events[index + 1 :]
        with pytest.raises(InvariantViolation) as excinfo:
            verify_trace(mutilated, manifest)
        text = "\n".join(excinfo.value.violations)
        assert "trace has" in text  # event count mismatch
        assert "digest mismatch" in text

    def test_edited_transition_record_is_detected(self, traced_run):
        events, manifest = traced_run
        index = next(
            i
            for i, r in enumerate(events)
            if r["kind"] == EventKind.TRANSITION and r["edge"] == "I"
        )
        edited = [dict(r) for r in events]
        edited[index]["edge"] = "II"  # flip a success into a failure
        with pytest.raises(InvariantViolation) as excinfo:
            verify_trace(edited, manifest)
        text = "\n".join(excinfo.value.violations)
        assert "digest mismatch" in text

    def test_doctored_census_is_detected(self, traced_run):
        events, manifest = traced_run
        doctored = dict(manifest)
        cases = dict(doctored["case_counts"])
        assert cases.get("case1", 0) > 0
        cases["case1"] -= 1
        cases["case2"] = cases.get("case2", 0) + 1
        doctored["case_counts"] = cases
        with pytest.raises(InvariantViolation) as excinfo:
            verify_trace(events, doctored)
        text = "\n".join(excinfo.value.violations)
        assert "replayed census" in text

    def test_recomputed_digest_matches_manifest(self, traced_run):
        events, manifest = traced_run
        assert trace_digest(events) == manifest["trace_digest"]
        assert len(events) == manifest["trace_events"]


class TestMetricsDocumentSchema:
    def test_rejects_non_objects(self):
        assert validate_metrics_document([]) == ["document is not a JSON object"]
        problems = validate_metrics_document({})
        assert "missing 'manifest' object" in problems
        assert "missing 'metrics' object" in problems

    def test_flags_missing_fields_and_bad_metrics(self):
        doc = {
            "manifest": {"seed": "not-an-int", "case_counts": {"case9": -1}},
            "metrics": {
                "good": {"type": "counter", "value": 1},
                "bad": {},
                "histogram": {"type": "histogram", "count": 1},
            },
        }
        problems = validate_metrics_document(doc)
        assert any("seed" in p and "type" in p for p in problems)
        assert any("case9" in p for p in problems)
        assert any("'bad'" in p for p in problems)
        assert any("'histogram'" in p for p in problems)
        assert not any("'good'" in p for p in problems)
