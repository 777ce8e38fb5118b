"""Unit tests for the reliability-predictor feature schema and routing."""

import numpy as np
import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.models import (
    ABNORMAL,
    FeatureSchema,
    FeatureVector,
    NORMAL,
    ReliabilityEstimate,
    ReliabilityPredictor,
    TrainingSettings,
    region_of,
    split_results,
)
from repro.testbed import ExperimentResult, Scenario


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
    )
    defaults.update(overrides)
    return ExperimentResult(**defaults)


class TestRegion:
    def test_normal_requires_low_delay_and_zero_loss(self):
        assert region_of(0.1, 0.0) == NORMAL
        assert region_of(0.25, 0.0) == ABNORMAL
        assert region_of(0.0, 0.05) == ABNORMAL

    def test_boundary_delay(self):
        assert region_of(0.199, 0.0) == NORMAL
        assert region_of(0.200, 0.0) == ABNORMAL


class TestFeatureVector:
    def test_from_scenario(self):
        scenario = Scenario(
            message_bytes=300,
            network_delay_s=0.1,
            loss_rate=0.19,
            config=ProducerConfig(batch_size=4),
        )
        vector = FeatureVector.from_scenario(scenario)
        assert vector.message_bytes == 300.0
        assert vector.batch_size == 4.0
        assert vector.region == ABNORMAL

    def test_from_result(self):
        vector = FeatureVector.from_result(make_result(loss_rate=0.1))
        assert vector.loss_rate == 0.1
        assert vector.semantics is DeliverySemantics.AT_LEAST_ONCE

    def test_submodel_key(self):
        vector = FeatureVector.from_result(make_result())
        assert vector.submodel_key == (NORMAL, "at_least_once")


class TestFeatureSchema:
    def test_normal_region_excludes_network_features(self):
        schema = FeatureSchema(NORMAL)
        assert "network_delay_s" not in schema.columns
        assert "loss_rate" not in schema.columns

    def test_abnormal_region_includes_network_features(self):
        schema = FeatureSchema(ABNORMAL)
        assert "network_delay_s" in schema.columns
        assert "loss_rate" in schema.columns

    def test_encode_matches_columns(self):
        schema = FeatureSchema(ABNORMAL)
        vector = FeatureVector.from_result(make_result(loss_rate=0.19))
        row = schema.encode(vector)
        assert row.shape == (schema.input_dim,)
        assert row[schema.columns.index("loss_rate")] == 0.19

    def test_output_reduction_for_at_most_once(self):
        schema = FeatureSchema(NORMAL)
        assert schema.output_columns(DeliverySemantics.AT_MOST_ONCE) == ["p_loss"]
        assert schema.output_columns(DeliverySemantics.AT_LEAST_ONCE) == [
            "p_loss",
            "p_duplicate",
        ]

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema("twilight")

    def test_encode_many_stacks(self):
        schema = FeatureSchema(NORMAL)
        vectors = [FeatureVector.from_result(make_result()) for _ in range(3)]
        assert schema.encode_many(vectors).shape == (3, schema.input_dim)


class TestReliabilityEstimate:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            ReliabilityEstimate(p_loss=-0.1, p_duplicate=0.0)
        with pytest.raises(ValueError):
            ReliabilityEstimate(p_loss=0.0, p_duplicate=1.5)


def synthetic_results(count=60, seed=0):
    """Rows whose P_l is a smooth function of loss rate and batch size."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        loss_rate = float(rng.choice([0.05, 0.1, 0.15, 0.2, 0.25]))
        batch = int(rng.choice([1, 2, 4, 8]))
        p_loss = min(1.0, max(0.0, loss_rate * 2.5 / batch + rng.normal(0, 0.005)))
        rows.append(
            make_result(
                loss_rate=loss_rate,
                network_delay_s=0.1,
                batch_size=batch,
                p_loss=p_loss,
                p_duplicate=0.02 / batch,
            )
        )
    return rows


class TestPredictorTraining:
    def test_fit_and_predict_learns_trend(self):
        rows = synthetic_results()
        predictor = ReliabilityPredictor()
        predictor.fit(
            rows,
            TrainingSettings(hidden=(32, 16), epochs=300, learning_rate=0.3, patience=None),
        )
        low = predictor.predict_vectors([
            FeatureVector.from_result(make_result(loss_rate=0.05, network_delay_s=0.1, batch_size=8))
        ])[0]
        high = predictor.predict_vectors([
            FeatureVector.from_result(make_result(loss_rate=0.25, network_delay_s=0.1, batch_size=1))
        ])[0]
        assert high.p_loss > low.p_loss + 0.2

    def test_fit_requires_data(self):
        with pytest.raises(ValueError):
            ReliabilityPredictor().fit([])

    def test_small_groups_skipped(self):
        rows = synthetic_results(count=30) + [make_result()]  # 1 normal row
        predictor = ReliabilityPredictor()
        counts = predictor.fit(
            rows, TrainingSettings(hidden=(8,), epochs=5, patience=None)
        )
        assert (NORMAL, "at_least_once") not in counts

    def test_missing_submodel_raises(self):
        predictor = ReliabilityPredictor()
        predictor.fit(
            synthetic_results(), TrainingSettings(hidden=(8,), epochs=5, patience=None)
        )
        with pytest.raises(KeyError):
            predictor.predict_vectors([FeatureVector.from_result(make_result())])

    def test_evaluate_reports_mae(self):
        rows = synthetic_results()
        predictor = ReliabilityPredictor()
        predictor.fit(
            rows, TrainingSettings(hidden=(32, 16), epochs=200, learning_rate=0.3, patience=None)
        )
        report = predictor.evaluate(rows)
        assert set(report) >= {"p_loss", "overall"}
        assert report["overall"] < 0.2

    def test_predictions_clipped_to_unit_interval(self):
        rows = synthetic_results()
        predictor = ReliabilityPredictor()
        predictor.fit(rows, TrainingSettings(hidden=(8,), epochs=10, patience=None))
        estimate = predictor.predict_vectors([FeatureVector.from_result(rows[0])])[0]
        assert 0.0 <= estimate.p_loss <= 1.0
        assert 0.0 <= estimate.p_duplicate <= 1.0


class TestSplit:
    def test_split_is_disjoint_and_complete(self):
        rows = synthetic_results(count=20)
        train, test = split_results(rows, 0.25, seed=1)
        assert len(train) + len(test) == 20
        assert len(test) == 5

    def test_split_validation(self):
        with pytest.raises(ValueError):
            split_results(synthetic_results(count=3), 0.5)
