"""Unit tests for scenarios, results, tracker, sweeps and collection."""

import pytest

from repro.kafka import DeliverySemantics, ProducerRecord
from repro.kafka.state import DeliveryCase, MessageState
from repro.models.features import NORMAL, FeatureVector, region_of
from repro.testbed import (
    CollectionPlan,
    DeliveryTracker,
    ExperimentResult,
    Scenario,
    abnormal_case_plan,
    apply_axis,
    load_results_csv,
    normal_case_plan,
    save_results_csv,
    wilson_interval,
)


class TestScenario:
    def test_normal_network_predicate(self):
        assert region_of(0.1, 0.0) == NORMAL
        assert region_of(0.3, 0.0) != NORMAL
        assert region_of(0.0, 0.01) != NORMAL

    def test_with_returns_modified_copy(self):
        base = Scenario()
        changed = base.with_(message_bytes=500)
        assert changed.message_bytes == 500
        assert base.message_bytes == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(message_bytes=0)
        with pytest.raises(ValueError):
            Scenario(loss_rate=1.0)
        with pytest.raises(ValueError):
            Scenario(message_count=0)
        with pytest.raises(ValueError):
            Scenario(arrival_rate=0.0)
        for field in ("network_delay_s", "jitter_s", "loss_rate", "arrival_rate"):
            with pytest.raises(ValueError):
                Scenario(**{field: float("nan")})
        for timeliness in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                Scenario(timeliness_s=timeliness)


class TestApplyAxis:
    def test_scenario_field(self):
        scenario = apply_axis(Scenario(), "message_bytes", 321)
        assert scenario.message_bytes == 321

    def test_config_field(self):
        scenario = apply_axis(Scenario(), "config.batch_size", 7)
        assert scenario.config.batch_size == 7

    def test_config_semantics(self):
        scenario = apply_axis(
            Scenario(), "config.semantics", DeliverySemantics.AT_MOST_ONCE
        )
        assert scenario.config.semantics is DeliverySemantics.AT_MOST_ONCE


class TestWilsonInterval:
    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_interval_contains_point_estimate(self):
        low, high = wilson_interval(20, 100)
        assert low < 0.2 < high

    def test_interval_tightens_with_samples(self):
        narrow = wilson_interval(200, 1000)
        wide = wilson_interval(20, 100)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_bounds_clamped(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        low, high = wilson_interval(50, 50)
        assert high == 1.0


def make_result(**overrides):
    defaults = dict(
        message_bytes=200,
        timeliness_s=None,
        network_delay_s=0.0,
        loss_rate=0.0,
        semantics="at_least_once",
        batch_size=1,
        polling_interval_s=0.0,
        message_timeout_s=1.5,
        produced=1000,
        p_loss=0.1,
        p_duplicate=0.01,
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentResult(**defaults)


class TestResults:
    def test_feature_vector_mapping(self):
        features = FeatureVector.from_result(make_result())
        assert features.message_bytes == 200.0
        assert features.semantics == DeliverySemantics.AT_LEAST_ONCE

    def test_confidence_intervals(self):
        result = make_result()
        low, high = result.p_loss_ci
        assert low < 0.1 < high

    def test_csv_round_trip(self, tmp_path):
        results = [make_result(), make_result(message_bytes=500, timeliness_s=2.0)]
        path = tmp_path / "rows.csv"
        save_results_csv(results, path)
        loaded = load_results_csv(path)
        assert len(loaded) == 2
        assert loaded[0].message_bytes == 200
        assert loaded[0].timeliness_s is None
        assert loaded[1].timeliness_s == 2.0
        assert loaded[1].p_loss == pytest.approx(0.1)


class TestTracker:
    def make_record(self, key_time=0.0):
        record = ProducerRecord(payload_bytes=100, key=0)
        record.ingest_time = key_time
        return record

    def test_clean_delivery_is_case1(self):
        tracker = DeliveryTracker()
        record = self.make_record()
        tracker.on_ingest(record)
        tracker.on_send_attempt(record, 0)
        tracker.on_append(record, None, 0)
        tracker.on_acknowledged(record)
        census = tracker.census()
        assert census.case_counts == {DeliveryCase.CASE1: 1}

    def test_expiry_in_queue_is_case2(self):
        tracker = DeliveryTracker()
        record = self.make_record()
        tracker.on_ingest(record)
        tracker.on_expired(record, after_send=False)
        assert tracker.census().case_counts == {DeliveryCase.CASE2: 1}

    def test_retry_recovery_is_case4(self):
        tracker = DeliveryTracker()
        record = self.make_record()
        tracker.on_ingest(record)
        tracker.on_send_attempt(record, 0)
        tracker.on_attempt_failed(record, 0)
        tracker.on_send_attempt(record, 1)
        tracker.on_append(record, None, 0)
        assert tracker.census().case_counts == {DeliveryCase.CASE4: 1}

    def test_ack_loss_duplicate_is_case5(self):
        tracker = DeliveryTracker()
        record = self.make_record()
        tracker.on_ingest(record)
        tracker.on_send_attempt(record, 0)
        tracker.on_append(record, None, 0)        # persisted
        tracker.on_attempt_failed(record, 0)      # response lost → V
        tracker.on_send_attempt(record, 1)
        tracker.on_append(record, None, 1)        # persisted again → VI
        assert tracker.census().case_counts == {DeliveryCase.CASE5: 1}

    def test_late_duplicate_without_observed_failure(self):
        tracker = DeliveryTracker()
        record = self.make_record()
        tracker.on_ingest(record)
        tracker.on_append(record, None, 0)
        tracker.on_append(record, None, 1)  # retry landed before any failure
        assert tracker.state(record.key) is MessageState.DUPLICATED
        assert tracker.persisted(record.key)

    def test_persisted_but_unacked_divergence_counted(self):
        tracker = DeliveryTracker()
        record = self.make_record()
        tracker.on_ingest(record)
        tracker.on_append(record, None, 0)
        tracker.on_expired(record, after_send=True)  # producer view: lost
        assert tracker.persisted_but_unacked() == 1
        assert tracker.census().case_counts == {DeliveryCase.CASE3: 1}

    def test_ack_latencies_in_ack_order(self):
        # Acks arrive in any key order, one past the end of the arrays
        # included; each is recorded once, whatever its position.
        tracker = DeliveryTracker()
        records = [ProducerRecord(payload_bytes=100, key=key) for key in (5, 2, 9000)]
        for record in records:
            tracker.on_acknowledged(record)
        for record in records:
            with pytest.raises(RuntimeError, match="acknowledged twice"):
                tracker.on_acknowledged(record)

    def test_double_ack_raises(self):
        tracker = DeliveryTracker()
        record = self.make_record()
        tracker.on_acknowledged(record)
        with pytest.raises(RuntimeError, match="acknowledged twice"):
            tracker.on_acknowledged(record)

    def test_ingest_times_indexed_by_key(self):
        tracker = DeliveryTracker()
        tracker.on_ingest(self.make_record(key_time=1.5))
        assert tracker.ingest_times[0] == 1.5
        assert all(t != t for t in tracker.ingest_times[1:])  # NaN elsewhere

    def test_unseen_key_has_no_state(self):
        tracker = DeliveryTracker()
        tracker.on_ingest(self.make_record())
        assert tracker.state(0) is MessageState.READY
        assert not tracker.persisted(0)
        for key in (1, -1, 10**6):
            with pytest.raises(KeyError):
                tracker.state(key)

    def test_unresolved_counted_separately(self):
        tracker = DeliveryTracker()
        tracker.on_ingest(self.make_record())
        census = tracker.census()
        assert census.unresolved == 1
        assert census.total() == 0


class TestCollectionPlans:
    def test_normal_plan_has_clean_network(self):
        for scenario in normal_case_plan(max_rows=20).scenarios():
            assert region_of(scenario.network_delay_s, scenario.loss_rate) == NORMAL

    def test_abnormal_plan_covers_faults(self):
        scenarios = abnormal_case_plan(max_rows=200).scenarios()
        assert any(s.loss_rate > 0 for s in scenarios)
        assert any(s.network_delay_s >= 0.2 for s in scenarios)

    def test_max_rows_subsamples(self):
        plan = abnormal_case_plan(max_rows=15)
        assert len(plan.scenarios()) == 15

    def test_seeds_differ_per_row(self):
        scenarios = normal_case_plan(max_rows=10).scenarios()
        assert len({s.seed for s in scenarios}) == len(scenarios)

    def test_custom_plan_grid_product(self):
        plan = CollectionPlan(
            "custom", Scenario(), {"message_bytes": [100, 200], "loss_rate": [0.0, 0.1]}
        )
        assert len(plan.scenarios()) == 4
