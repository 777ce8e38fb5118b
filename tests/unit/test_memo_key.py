"""The prediction memo's key, built from a table of rounded values.

`ReliabilityPredictor._memo_key` rounds each distinct feature value once
and reads repeats from a bounded per-predictor table.  It must equal the
plain key — region and semantics verbatim, then every numeric feature
through ``round(x, 9)`` — for every value, and a search must decide the
same whether the table is cold or warm.  `SelectionContext.feature_vector`
skips the frozen dataclass's ``__init__`` and must still build an equal
vector.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.kpi import SelectionContext, select_configuration
from repro.models import FeatureVector, ReliabilityPredictor, TrainingSettings, region_of
from repro.performance import ProducerPerformanceModel

from .test_predictor_batch import SEMANTICS, training_rows
from .test_selection_batched import contexts

NUMERIC = [
    "message_bytes",
    "timeliness_s",
    "network_delay_s",
    "loss_rate",
    "batch_size",
    "polling_interval_s",
    "message_timeout_s",
]


def plain_key(vector):
    return (
        region_of(vector.network_delay_s, vector.loss_rate),
        vector.semantics.value,
        *(round(getattr(vector, name), 9) for name in NUMERIC),
    )


def vector_with(value, semantics=DeliverySemantics.AT_LEAST_ONCE):
    """A vector holding ``value`` in every numeric feature."""
    return FeatureVector(**{name: value for name in NUMERIC}, semantics=semantics)


def assert_same_key(predictor, vector):
    key = predictor._memo_key(vector)
    expected = plain_key(vector)
    assert key == expected
    assert hash(key) == hash(expected)


SPECIAL = [
    -0.0,
    0.0,
    1e-10,
    -1e-10,
    0.1 + 0.2,
    0.3,
    0.1234567891,
    0.1234567894,
    0.1234567896,
    2.5e-9,
    199.9999999999,
    1e300,
    float("inf"),
]


@pytest.mark.parametrize("order", [SPECIAL, SPECIAL[::-1]], ids=["forward", "reverse"])
def test_special_values(order):
    # A fresh table in both orders: -0.0 and 0.0 share one table slot.
    predictor = ReliabilityPredictor()
    for value in order:
        assert_same_key(predictor, vector_with(value))


def test_tenth_decimal_collapses_like_round():
    predictor = ReliabilityPredictor()
    low = predictor._memo_key(vector_with(0.1234567891))
    high = predictor._memo_key(vector_with(0.1234567894))
    assert low == high == plain_key(vector_with(0.1234567891))
    assert predictor._memo_key(vector_with(0.1234567896)) != low


def test_region_reads_unrounded_values():
    predictor = ReliabilityPredictor()
    zero = FeatureVector(200.0, 0.0, 0.0, 0.0, DeliverySemantics.AT_LEAST_ONCE, 1.0, 0.0, 1.0)
    tiny = dataclasses.replace(zero, loss_rate=1e-10)
    assert predictor._memo_key(zero)[0] == "normal"
    assert predictor._memo_key(tiny)[0] == "abnormal"
    assert predictor._memo_key(zero)[2:] == predictor._memo_key(tiny)[2:]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=7, max_size=7
    ),
    st.sampled_from(SEMANTICS),
)
def test_hypothesis_floats(values, semantics):
    predictor = ReliabilityPredictor()
    vector = FeatureVector(**dict(zip(NUMERIC, values)), semantics=semantics)
    assert_same_key(predictor, vector)
    assert_same_key(predictor, vector)  # the second read comes from the table


def test_table_is_bounded_and_cleared():
    predictor = ReliabilityPredictor()
    config = ProducerConfig()
    for index in range(10_000):
        context = SelectionContext(200 + index, 1.0, 0.3 + index * 1e-6, 0.1)
        predictor.predict_with_fallback_batch([context.feature_vector(config)])
    assert 0 < len(predictor._rounded) <= ReliabilityPredictor.ROUNDED_CAPACITY
    predictor.invalidate_caches()
    assert len(predictor._rounded) == 0


def test_feature_vector_equals_dataclass_init():
    context = SelectionContext(message_bytes=500, timeliness_s=5, network_delay_s=0.25, loss_rate=0.1)
    config = ProducerConfig(
        semantics=DeliverySemantics.AT_MOST_ONCE,
        batch_size=4,
        polling_interval_s=0.02,
        message_timeout_s=1.5,
    )
    built = context.feature_vector(config)
    expected = FeatureVector(
        message_bytes=500.0,
        timeliness_s=5.0,
        network_delay_s=0.25,
        loss_rate=0.1,
        semantics=DeliverySemantics.AT_MOST_ONCE,
        batch_size=4.0,
        polling_interval_s=0.02,
        message_timeout_s=1.5,
    )
    assert built == expected
    assert hash(built) == hash(expected)
    assert vars(built) == vars(expected)
    assert [type(value) for value in vars(built).values()] == [
        type(value) for value in vars(expected).values()
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.loss_rate = 0.0


@pytest.fixture(scope="module")
def predictor():
    rows = []
    for offset, semantics in enumerate(SEMANTICS[:2]):
        rows.extend(training_rows(semantics, "normal", count=20, seed=offset))
        rows.extend(training_rows(semantics, "abnormal", count=20, seed=5 + offset))
    built = ReliabilityPredictor()
    built.fit(rows, TrainingSettings(hidden=(16,), epochs=30, patience=None))
    return built


def decide(predictor, context, start, requirement):
    return select_configuration(
        context,
        predictor,
        ProducerPerformanceModel(),
        gamma_requirement=requirement,
        start=start,
    )


def test_cold_and_warm_tables_decide_the_same(predictor):
    cases = [
        (context, start, requirement)
        for context in contexts(count=12, seed=5)
        for start in (ProducerConfig(), ProducerConfig(batch_size=4, polling_interval_s=0.04))
        for requirement in (0.8, 0.97)
    ]
    cold = []
    for case in cases:
        predictor.invalidate_caches()
        cold.append(decide(predictor, *case))
    predictor.invalidate_caches()
    for _ in range(2):
        warm = [decide(predictor, *case) for case in cases]
        assert len(predictor._rounded) > 0
        assert warm == cold
        assert [r.gamma.hex() for r in warm] == [r.gamma.hex() for r in cold]
    assert np.isfinite([r.gamma for r in cold]).all()
