"""The one prediction core: row independence, tiers and memo hygiene.

`predict_vectors` (the ANN tier alone) and `predict_with_fallback_batch`
(the full degradation chain) share one grouping, memo and forward core.
Every estimate must equal an in-test single-row reference, whatever else
rides in the batch, across both Fig. 3 regions, all three delivery
semantics and every tier of the fallback chain.  The quantised-key memo
must never serve a stale entry after `fit()` or `remember()` changes what
the predictor knows.
"""

import dataclasses

import numpy as np
import pytest

from repro.kafka import DeliverySemantics
from repro.models import (
    CONSERVATIVE_ESTIMATE,
    FeatureVector,
    ReliabilityPredictor,
    TrainingSettings,
)
from repro.testbed import ExperimentResult

SEMANTICS = [
    DeliverySemantics.AT_MOST_ONCE,
    DeliverySemantics.AT_LEAST_ONCE,
    DeliverySemantics.EXACTLY_ONCE,
]

FAST = TrainingSettings(hidden=(8,), epochs=5, patience=None)


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


def training_rows(semantics, region, count=16, seed=0):
    """Synthetic measured rows routed to one (region, semantics) submodel."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        if region == "normal":
            delay, loss = 0.0, 0.0
        else:
            delay = float(rng.choice([0.25, 0.3, 0.4]))
            loss = float(rng.choice([0.05, 0.1, 0.2]))
        batch = int(rng.choice([1, 2, 4, 8]))
        rows.append(
            make_result(
                semantics=semantics.value,
                network_delay_s=delay,
                loss_rate=loss,
                batch_size=batch,
                message_bytes=int(rng.choice([100, 200, 500])),
                p_loss=min(1.0, max(0.0, loss * 2.0 / batch)),
                p_duplicate=0.02 / batch,
            )
        )
    return rows


def query_grid(seed=7, count=120):
    """Random queries spanning regions, semantics and the feature ranges."""
    rng = np.random.default_rng(seed)
    vectors = []
    for index in range(count):
        if index % 2 == 0:
            delay, loss = float(rng.uniform(0.0, 0.19)), 0.0
        else:
            delay = float(rng.uniform(0.2, 0.5))
            loss = float(rng.uniform(0.01, 0.3))
        vectors.append(
            FeatureVector(
                message_bytes=float(rng.choice([100, 200, 500, 900])),
                timeliness_s=float(rng.choice([0.0, 5.0, 10.0])),
                network_delay_s=delay,
                loss_rate=loss,
                semantics=SEMANTICS[index % 3],
                batch_size=float(rng.choice([1, 2, 4, 8, 10])),
                polling_interval_s=float(rng.choice([0.0, 0.02, 0.09])),
                message_timeout_s=float(rng.choice([0.5, 1.5, 3.0])),
            )
        )
    return vectors


@pytest.fixture(scope="module")
def full_predictor():
    """A predictor with all six (region, semantics) submodels trained."""
    rows = []
    for offset, semantics in enumerate(SEMANTICS):
        rows.extend(training_rows(semantics, "normal", seed=offset))
        rows.extend(training_rows(semantics, "abnormal", seed=10 + offset))
    predictor = ReliabilityPredictor()
    predictor.fit(rows, FAST)
    return predictor


@pytest.fixture()
def partial_predictor():
    """Coverage gaps exercising every fallback tier.

    Trained submodels only for at-least-once; at-most-once rows are
    *remembered* (neighbour tier); exactly-once has nothing at all
    (conservative tier).
    """
    predictor = ReliabilityPredictor()
    rows = training_rows(DeliverySemantics.AT_LEAST_ONCE, "normal")
    rows += training_rows(DeliverySemantics.AT_LEAST_ONCE, "abnormal", seed=3)
    predictor.fit(rows, FAST)
    predictor.remember(training_rows(DeliverySemantics.AT_MOST_ONCE, "abnormal", seed=5))
    return predictor


def single_row_reference(predictor, vector):
    """One vector through its submodel alone: scaler, network, clip."""
    submodel = predictor.submodels[vector.submodel_key]
    row = submodel.schema.encode(vector)[None, :]
    outputs = np.clip(submodel.network.predict(submodel.scaler.transform(row)), 0, 1)[0]
    return submodel.estimate_from_outputs(outputs)


class TestBatchedIdentity:
    def test_predict_vectors_bitwise_equals_scalar(self, full_predictor):
        full_predictor.invalidate_caches()
        vectors = query_grid()
        batched = full_predictor.predict_vectors(vectors)
        for vector, estimate in zip(vectors, batched):
            reference = single_row_reference(full_predictor, vector)
            assert estimate.p_loss == reference.p_loss, vector
            assert estimate.p_duplicate == reference.p_duplicate, vector

    def test_second_pass_serves_from_memo_identically(self, full_predictor):
        vectors = query_grid(seed=11, count=40)
        first = full_predictor.predict_vectors(vectors)
        hits_before, _ = full_predictor.memo_stats
        second = full_predictor.predict_vectors(vectors)
        hits_after, _ = full_predictor.memo_stats
        assert hits_after >= hits_before + len(vectors)
        assert first == second

    def test_missing_submodel_raises_or_skips(self, partial_predictor):
        uncovered = FeatureVector(
            message_bytes=200.0,
            timeliness_s=0.0,
            network_delay_s=0.0,
            loss_rate=0.0,
            semantics=DeliverySemantics.EXACTLY_ONCE,
            batch_size=1.0,
            polling_interval_s=0.0,
            message_timeout_s=1.5,
        )
        with pytest.raises(KeyError):
            partial_predictor.predict_vectors([uncovered])
        [tiered] = partial_predictor.predict_with_fallback_batch([uncovered])
        assert tiered.source == "conservative"
        assert tiered.estimate == CONSERVATIVE_ESTIMATE
        # The fallback answer is memoised, but the ANN-only view must
        # still refuse it.
        with pytest.raises(KeyError):
            partial_predictor.predict_vectors([uncovered])


class TestFallbackChainIdentity:
    def test_batch_matches_scalar_across_all_tiers(self, partial_predictor):
        vectors = query_grid(seed=13)
        batched = partial_predictor.predict_with_fallback_batch(vectors)
        sources = set()
        for vector, fallback in zip(vectors, batched):
            partial_predictor.invalidate_caches()
            [alone] = partial_predictor.predict_with_fallback_batch([vector])
            assert fallback == alone, vector
            if fallback.source == "ann":
                assert fallback.estimate == single_row_reference(
                    partial_predictor, vector
                )
            sources.add(fallback.source)
        # The grid must actually have exercised the whole degraded chain.
        assert sources == {"ann", "neighbour", "conservative"}

    def test_memo_hit_equals_fresh_computation(self, partial_predictor):
        vectors = query_grid(seed=37, count=60)
        partial_predictor.predict_with_fallback_batch(vectors)
        hits_before, _ = partial_predictor.memo_stats
        memoised = partial_predictor.predict_with_fallback_batch(vectors)
        hits_after, _ = partial_predictor.memo_stats
        assert hits_after == hits_before + len(vectors)
        partial_predictor.invalidate_caches()
        fresh = partial_predictor.predict_with_fallback_batch(vectors)
        assert memoised == fresh
        assert {tiered.source for tiered in fresh} == {"ann", "neighbour", "conservative"}

    def test_vectorised_neighbour_matches_python_scan(self, partial_predictor):
        scales = ReliabilityPredictor._NEIGHBOUR_SCALES
        for vector in query_grid(seed=17, count=30):
            if vector.semantics is not DeliverySemantics.AT_MOST_ONCE:
                continue
            best, best_distance = None, float("inf")
            for row in partial_predictor._memory:
                candidate = FeatureVector.from_result(row)
                if candidate.semantics is not vector.semantics:
                    continue
                distance = sum(
                    ((getattr(vector, name) - getattr(candidate, name)) / scale) ** 2
                    for name, scale in scales.items()
                )
                if distance < best_distance:
                    best, best_distance = row, distance
            estimate = partial_predictor._nearest_neighbour(vector)
            assert estimate is not None and best is not None
            assert estimate.p_loss == min(1.0, max(0.0, float(best.p_loss)))


class TestCovers:
    """``covers(v)`` is the routing of ``_predict``: true exactly when the
    ANN tier answers ``v``."""

    @staticmethod
    def assert_matches_tier(predictor, vectors):
        for vector in vectors:
            predictor.invalidate_caches()
            [fresh] = predictor.predict_with_fallback_batch([vector])
            [memoised] = predictor.predict_with_fallback_batch([vector])
            assert predictor.covers(vector) == (fresh.source == "ann"), vector
            assert memoised.source == fresh.source, vector

    def test_every_vector_covered_by_a_full_predictor(self, full_predictor):
        vectors = query_grid(seed=19, count=60)
        assert all(full_predictor.covers(vector) for vector in vectors)
        self.assert_matches_tier(full_predictor, vectors)

    def test_untrained_submodels_and_exactly_once_are_uncovered(self, partial_predictor):
        vectors = query_grid(seed=23, count=60)
        covered = [partial_predictor.covers(vector) for vector in vectors]
        assert covered == [
            vector.semantics is DeliverySemantics.AT_LEAST_ONCE for vector in vectors
        ]
        self.assert_matches_tier(partial_predictor, vectors)

    @pytest.mark.parametrize("trained_region", ["normal", "abnormal"])
    def test_fig3_region_boundary(self, trained_region):
        # One region trained: the vectors either side of the Fig. 3
        # predicate route to different submodels, so exactly one side is
        # covered.
        predictor = ReliabilityPredictor()
        predictor.fit(
            training_rows(DeliverySemantics.AT_LEAST_ONCE, trained_region, seed=2), FAST
        )
        base = query_grid(count=1)[0]
        base = dataclasses.replace(base, semantics=DeliverySemantics.AT_LEAST_ONCE)
        normal = [
            dataclasses.replace(base, network_delay_s=0.1, loss_rate=0.0),
            dataclasses.replace(
                base, network_delay_s=float(np.nextafter(0.2, 0.0)), loss_rate=0.0
            ),
        ]
        abnormal = [
            dataclasses.replace(base, network_delay_s=0.1, loss_rate=1e-10),
            dataclasses.replace(base, network_delay_s=0.2, loss_rate=0.0),
        ]
        expected = trained_region == "normal"
        assert [predictor.covers(v) for v in normal] == [expected, expected]
        assert [predictor.covers(v) for v in abnormal] == [not expected, not expected]
        self.assert_matches_tier(predictor, normal + abnormal)


class TestMemoInvalidation:
    def test_remember_invalidates_memo_and_neighbour_index(self):
        predictor = ReliabilityPredictor()
        predictor.remember(
            [make_result(semantics="at_most_once", loss_rate=0.2,
                         network_delay_s=0.3, p_loss=0.5)]
        )
        query = FeatureVector(
            message_bytes=200.0,
            timeliness_s=0.0,
            network_delay_s=0.3,
            loss_rate=0.1,
            semantics=DeliverySemantics.AT_MOST_ONCE,
            batch_size=1.0,
            polling_interval_s=0.0,
            message_timeout_s=1.5,
        )
        [before] = predictor.predict_with_fallback_batch([query])
        assert before.source == "neighbour" and before.estimate.p_loss == 0.5
        # A new, much closer measurement must win immediately: a stale
        # memo or neighbour index would keep serving p_loss=0.5.
        predictor.remember(
            [make_result(semantics="at_most_once", loss_rate=0.1,
                         network_delay_s=0.3, p_loss=0.05)]
        )
        [after] = predictor.predict_with_fallback_batch([query])
        assert after.estimate.p_loss == 0.05

    def test_fit_invalidates_memo(self):
        rows_a = training_rows(DeliverySemantics.AT_LEAST_ONCE, "abnormal", seed=1)
        predictor = ReliabilityPredictor()
        predictor.fit(rows_a, FAST)
        vectors = query_grid(seed=19, count=12)
        covered = [
            v for v in vectors
            if v.semantics is DeliverySemantics.AT_LEAST_ONCE
            and v.region == "abnormal"
        ]
        assert covered
        predictor.predict_vectors(covered)
        # Refit with a shifted target function; predictions must all track
        # the new model — bitwise equal to the unmemoised single-row
        # reference.
        rows_b = [
            dataclasses.replace(r, p_loss=min(1.0, r.p_loss + 0.3))
            for r in rows_a
        ]
        predictor.fit(rows_b, FAST)
        batched = predictor.predict_vectors(covered)
        for vector, estimate in zip(covered, batched):
            assert estimate == single_row_reference(predictor, vector)

    def test_invalidate_caches_empties_memo(self, full_predictor):
        full_predictor.predict_vectors(query_grid(seed=23, count=10))
        assert len(full_predictor._memo) > 0
        full_predictor.invalidate_caches()
        assert len(full_predictor._memo) == 0

    def test_memo_capacity_bounds_the_cache(self):
        predictor = ReliabilityPredictor()
        predictor.fit(
            training_rows(DeliverySemantics.AT_LEAST_ONCE, "normal"), FAST
        )
        predictor.MEMO_CAPACITY = 8
        rng = np.random.default_rng(29)
        vectors = [
            FeatureVector(
                message_bytes=float(100 + i),
                timeliness_s=0.0,
                network_delay_s=float(rng.uniform(0.0, 0.19)),
                loss_rate=0.0,
                semantics=DeliverySemantics.AT_LEAST_ONCE,
                batch_size=1.0,
                polling_interval_s=0.0,
                message_timeout_s=1.5,
            )
            for i in range(30)
        ]
        predictor.predict_vectors(vectors)
        assert len(predictor._memo) <= 8
