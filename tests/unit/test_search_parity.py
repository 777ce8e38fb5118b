"""Bitwise parity of the configuration search's building blocks.

The stepwise search calls four pieces many times per decision: the
config copy (:meth:`ProducerConfig.with_`), the closed-form performance
model, the ANN's row-wise forward pass and its sigmoid output.  Each is
pinned here against a plain reference — ``dataclasses.replace``, a
verbatim copy of the model's original piece-by-piece formulas, the
single-row ``predict`` and the original masked sigmoid — so a faster
implementation must reproduce every value bit for bit.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from repro.ann.activations import Sigmoid
from repro.ann.network import PAPER_HIDDEN_LAYERS, build_mlp
from repro.kafka import DeliverySemantics, ProducerConfig
from repro.kafka.config import (
    ACKS_ALL_EXTRA_S,
    APPEND_BYTES_PER_S,
    BROKER_PROCESSING_TIME_S,
    LINK_BASE_DELAY_S,
    LINK_CAPACITY_BPS,
    REPLICATION_FACTOR,
    REQUEST_OVERHEAD_BYTES,
    RESPONSE_BYTES,
    SOCKET_BUFFER_BYTES,
    SOCKET_WINDOW_REQUESTS,
    SOURCE_BURST_OFF_S,
    SOURCE_BURST_ON_S,
    full_load_rate,
    serialization_time_s,
)
from repro.kpi.selection import ParameterSteps
from repro.network.packet import ACK_PACKET_BYTES, DEFAULT_MTU, WIRE_HEADER_BYTES
from repro.performance import ProducerPerformanceModel


def same_bits(a, b):
    """Float equality that also tells -0.0 from 0.0 and matches NaNs."""
    return math.copysign(1.0, a) == math.copysign(1.0, b) and (
        a == b or (math.isnan(a) and math.isnan(b))
    )


# ---------------------------------------------------------------- with_

#: A non-default value per ProducerConfig field.
FIELD_VALUES = {
    "semantics": DeliverySemantics.AT_MOST_ONCE,
    "batch_size": 6,
    "polling_interval_s": 0.04,
    "message_timeout_s": 1.5,
    "request_timeout_s": 0.8,
    "retry_backoff_s": 0.0,
    "max_retries": 0,
    "max_in_flight": 1,
    "linger_s": 0.0,
    "queue_capacity": 64,
}

INVALID_VALUES = [
    ("batch_size", 0),
    ("polling_interval_s", -0.1),
    ("message_timeout_s", 0.0),
    ("request_timeout_s", 0.0),
    ("retry_backoff_s", -1.0),
    ("max_retries", -1),
    ("max_in_flight", 0),
    ("linger_s", -0.1),
    ("queue_capacity", 0),
]


class TestWithParity:
    BASES = [
        ProducerConfig(),
        ProducerConfig(
            semantics=DeliverySemantics.EXACTLY_ONCE,
            batch_size=3,
            polling_interval_s=0.02,
            queue_capacity=10,
        ),
    ]

    def test_every_field_is_covered(self):
        names = {field.name for field in dataclasses.fields(ProducerConfig)}
        assert set(FIELD_VALUES) == names

    @pytest.mark.parametrize("name", sorted(FIELD_VALUES))
    def test_single_field_matches_replace(self, name):
        for base in self.BASES:
            changed = base.with_(**{name: FIELD_VALUES[name]})
            reference = dataclasses.replace(base, **{name: FIELD_VALUES[name]})
            assert type(changed) is ProducerConfig
            assert changed == reference
            assert hash(changed) == hash(reference)
            assert changed is not base

    def test_all_fields_at_once_match_replace(self):
        for base in self.BASES:
            changed = base.with_(**FIELD_VALUES)
            reference = dataclasses.replace(base, **FIELD_VALUES)
            assert changed == reference
            assert hash(changed) == hash(reference)

    def test_no_change_is_an_equal_copy(self):
        for base in self.BASES:
            copy = base.with_()
            assert copy == base and hash(copy) == hash(base)

    @pytest.mark.parametrize("semantics", list(DeliverySemantics))
    def test_semantics_strings_are_parsed(self, semantics):
        changed = ProducerConfig().with_(semantics=semantics.value)
        assert changed.semantics is semantics
        reference = dataclasses.replace(ProducerConfig(), semantics=semantics)
        assert changed == reference
        assert hash(changed) == hash(reference)

    def test_unknown_semantics_string_raises(self):
        with pytest.raises(ValueError):
            ProducerConfig().with_(semantics="at_best_effort")

    @pytest.mark.parametrize("name,value", INVALID_VALUES)
    def test_invalid_values_raise(self, name, value):
        with pytest.raises(ValueError):
            ProducerConfig().with_(**{name: value})

    def test_unknown_field_raises_type_error(self):
        with pytest.raises(TypeError):
            ProducerConfig().with_(batch=2)
        with pytest.raises(TypeError):
            ProducerConfig().with_(batch_size=2, acks="all")

    def test_result_stays_frozen(self):
        changed = ProducerConfig().with_(batch_size=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            changed.batch_size = 3  # type: ignore[misc]


# ----------------------------------------------------- performance model


class ReferenceModel:
    """The original piece-by-piece performance model, kept verbatim but for
    reading the machine constants."""

    def serialization_time_per_message(self, message_bytes, batch_size):
        batch_bytes = message_bytes * batch_size
        return serialization_time_s(batch_bytes, batch_size) / batch_size

    def request_segments(self, message_bytes, batch_size):
        application_bytes = message_bytes * batch_size + REQUEST_OVERHEAD_BYTES
        per_segment = DEFAULT_MTU - WIRE_HEADER_BYTES
        return max(1, -(-application_bytes // per_segment))

    def request_wire_bytes(self, message_bytes, batch_size):
        segments = self.request_segments(message_bytes, batch_size)
        return (
            message_bytes * batch_size
            + REQUEST_OVERHEAD_BYTES
            + segments * WIRE_HEADER_BYTES
        )

    def round_trip_bytes(self, message_bytes, batch_size, waits_for_ack):
        segments = self.request_segments(message_bytes, batch_size)
        total = self.request_wire_bytes(message_bytes, batch_size)
        total += segments * ACK_PACKET_BYTES
        if waits_for_ack:
            total += RESPONSE_BYTES + WIRE_HEADER_BYTES + ACK_PACKET_BYTES
        return total

    def request_round_trip_s(
        self, message_bytes, batch_size, waits_for_ack, network_delay_s=0.0
    ):
        wire = self.round_trip_bytes(message_bytes, batch_size, waits_for_ack)
        transmission = wire / LINK_CAPACITY_BPS
        propagation = 2.0 * (LINK_BASE_DELAY_S + network_delay_s)
        broker = BROKER_PROCESSING_TIME_S + (
            message_bytes * batch_size / APPEND_BYTES_PER_S
        )
        if waits_for_ack and REPLICATION_FACTOR > 1:
            broker += ACKS_ALL_EXTRA_S
        return transmission + propagation + broker

    def service_rate(self, config, message_bytes, network_delay_s=0.0):
        waits = config.semantics.waits_for_ack
        batch = config.batch_size
        cpu_rate = 1.0 / self.serialization_time_per_message(message_bytes, batch)
        round_trip = self.request_round_trip_s(
            message_bytes, batch, waits, network_delay_s
        )
        window = config.max_in_flight if waits else SOCKET_WINDOW_REQUESTS
        window = min(
            window,
            max(
                1,
                int(
                    SOCKET_BUFFER_BYTES
                    // self.request_wire_bytes(message_bytes, batch)
                )
                or 1,
            ),
        )
        if window == 1:
            cycle = round_trip + serialization_time_s(message_bytes * batch, batch)
            window_rate = batch / cycle
        else:
            window_rate = window * batch / round_trip
        link_rate = (
            LINK_CAPACITY_BPS
            * batch
            / self.round_trip_bytes(message_bytes, batch, waits)
        )
        return min(cpu_rate, window_rate, link_rate)

    def arrival_rate(self, config, message_bytes):
        if config.polling_interval_s > 0:
            return 1.0 / config.polling_interval_s
        peak = full_load_rate(message_bytes, config.semantics.waits_for_ack)
        on = SOURCE_BURST_ON_S
        off = SOURCE_BURST_OFF_S
        return peak * on / (on + off)

    def predict(self, config, message_bytes, network_delay_s=0.0):
        mu = self.service_rate(config, message_bytes, network_delay_s)
        lam = self.arrival_rate(config, message_bytes)
        throughput = min(lam, mu)
        wire_per_message = self.round_trip_bytes(
            message_bytes, config.batch_size, config.semantics.waits_for_ack
        ) / config.batch_size
        phi = min(1.0, throughput * wire_per_message / LINK_CAPACITY_BPS)
        ceiling = 1.0 / self.serialization_time_per_message(message_bytes, 1)
        mu_norm = min(1.0, mu / ceiling)
        rho = min(0.999, lam / mu) if mu > 0 else 0.999
        service_s = 1.0 / mu
        wait_s = (rho * service_s) / (2.0 * (1.0 - rho))
        latency = service_s + wait_s + self.request_round_trip_s(
            message_bytes,
            config.batch_size,
            config.semantics.waits_for_ack,
            network_delay_s,
        )
        return (mu, mu_norm, phi, latency)


def search_grid():
    """Every ParameterSteps candidate, under every delivery semantics."""
    steps = ParameterSteps()
    for semantics, batch, polling, timeout in itertools.product(
        list(DeliverySemantics),
        steps.batch_size,
        steps.polling_interval_s,
        steps.message_timeout_s,
    ):
        yield ProducerConfig(
            semantics=semantics,
            batch_size=batch,
            polling_interval_s=polling,
            message_timeout_s=timeout,
        )


MESSAGE_BYTES = (100, 200, 500, 800)
DELAYS = (0.0, 0.05, 0.3)


def as_tuple(estimate):
    """A PerformanceEstimate in ReferenceModel.predict's field order."""
    return (
        estimate.service_rate,
        estimate.service_rate_norm,
        estimate.bandwidth_utilization,
        estimate.mean_latency_s,
    )


class TestPerformanceModelParity:
    def test_predict_is_bitwise_the_reference_chain(self):
        model = ProducerPerformanceModel()
        reference = ReferenceModel()
        checked = 0
        windows = set()
        for config in search_grid():
            for message_bytes in MESSAGE_BYTES:
                windows.add(
                    model._terms(
                        message_bytes,
                        config.batch_size,
                        config.semantics.waits_for_ack,
                        config.max_in_flight,
                    ).window
                )
                for delay in DELAYS:
                    expected = reference.predict(config, message_bytes, delay)
                    # First call computes, second is served by the memo.
                    for _ in range(2):
                        actual = as_tuple(model.predict(config, message_bytes, delay))
                        assert all(map(same_bits, actual, expected)), (
                            config, message_bytes, delay, actual, expected
                        )
                    checked += 1
        assert checked == 3 * 7 * 5 * 5 * len(MESSAGE_BYTES) * len(DELAYS)
        # The grid reaches both of ``_service``'s window branches: a request
        # larger than the socket buffer (e.g. M=800, B=10) gets a window of 1.
        assert 1 in windows and max(windows) > 1
        assert model._terms(800, 10, True, 5).window == 1

    def test_memo_is_shared_only_by_equal_estimates(self):
        # One model serves configs that differ in every field: entries the
        # memo shares (knobs the model does not read) must still equal the
        # reference, and the window, acks and polling must never collide.
        model = ProducerPerformanceModel()
        reference = ReferenceModel()
        base = ProducerConfig(batch_size=2)
        variants = [base] + [
            base.with_(**{name: value})
            for name, value in FIELD_VALUES.items()
            if name != "batch_size"
        ] + [base.with_(max_in_flight=2), base.with_(max_in_flight=12)]
        for message_bytes in (100, 800):
            for config in variants:
                actual = as_tuple(model.predict(config, message_bytes, 0.05))
                expected = reference.predict(config, message_bytes, 0.05)
                assert all(map(same_bits, actual, expected)), config

    def test_public_pieces_match_the_reference(self):
        model = ProducerPerformanceModel()
        reference = ReferenceModel()
        for config in search_grid():
            waits = config.semantics.waits_for_ack
            for message_bytes in MESSAGE_BYTES:
                batch = config.batch_size
                assert model.request_wire_bytes(
                    message_bytes, batch
                ) == reference.request_wire_bytes(message_bytes, batch)
                assert model.round_trip_bytes(
                    message_bytes, batch, waits
                ) == reference.round_trip_bytes(message_bytes, batch, waits)
                assert same_bits(
                    model.arrival_rate(config, message_bytes),
                    reference.arrival_rate(config, message_bytes),
                )
                for delay in DELAYS:
                    assert same_bits(
                        model.service_rate(config, message_bytes, delay),
                        reference.service_rate(config, message_bytes, delay),
                    )


# ------------------------------------------------------- forward layout


class TestRowwiseForwardLayout:
    @pytest.mark.parametrize("input_dim,output_dim", [(6, 1), (7, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_single_row_predictions(self, input_dim, output_dim, seed):
        network = build_mlp(input_dim, output_dim, PAPER_HIDDEN_LAYERS, seed=seed)
        rng = np.random.default_rng(100 + seed)
        for n in (1, 2, 7):
            x = rng.normal(0.0, 2.0, size=(n, input_dim))
            batched = network.predict_rowwise(x)
            assert batched.shape == (n, output_dim)
            assert batched.dtype == np.float64
            for i in range(n):
                single = network.predict(x[i : i + 1])
                assert single.shape == (1, output_dim)
                assert batched[i].tobytes() == single[0].tobytes(), (n, i)

    def test_rejects_bad_shapes(self):
        network = build_mlp(6, 2, (8, 4), seed=0)
        with pytest.raises(ValueError):
            network.predict_rowwise(np.zeros(6))
        with pytest.raises(ValueError):
            network.predict_rowwise(np.zeros((2, 5)))


def reference_sigmoid(x):
    """The original two-branch masked sigmoid, kept verbatim."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


class TestSigmoidParity:
    def test_matches_the_masked_reference_bitwise(self):
        rng = np.random.default_rng(5)
        edges = np.array(
            [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.0, -36.0,
             745.0, -745.0, 1e308, -1e308, np.inf, -np.inf]
        )
        samples = [edges] + [
            rng.normal(0.0, scale, size=4096) for scale in (1e-8, 1.0, 10.0, 400.0)
        ]
        for x in samples:
            assert Sigmoid().apply(x).tobytes() == reference_sigmoid(x).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (7, 1, 2), (32, 64)])
    def test_shapes_and_range(self, shape):
        x = np.random.default_rng(6).normal(0.0, 20.0, size=shape)
        y = Sigmoid().apply(x)
        assert y.shape == x.shape and y.dtype == np.float64
        assert y.tobytes() == reference_sigmoid(x).tobytes()
        assert ((y >= 0.0) & (y <= 1.0)).all() and not np.signbit(y).any()
