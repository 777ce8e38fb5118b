"""Producer performance model — the authors' HPCC'19 queueing model [6].

The weighted KPI (paper Eq. 2) needs two performance metrics that are
*predictable from the configuration alone* under normal network
conditions: the mean service rate μ of the producer and the utilisation φ
of the network bandwidth.  Reference [6] models the producer as a
queueing station whose service time is the sum of a serialisation stage
and a network/acknowledgement stage; we re-derive that structure against
the machine constants of :mod:`repro.kafka.config`, so predicted and
simulated performance come from the same constants.

All formulas assume the normal-network regime (the paper evaluates φ and
μ "under normal circumstances, i.e. good network connection").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Tuple

from ..kafka.config import (
    ACKS_ALL_EXTRA_S,
    APPEND_BYTES_PER_S,
    BROKER_PROCESSING_TIME_S,
    LINK_BASE_DELAY_S,
    LINK_CAPACITY_BPS,
    REQUEST_OVERHEAD_BYTES,
    RESPONSE_BYTES,
    SOCKET_BUFFER_BYTES,
    SOCKET_WINDOW_REQUESTS,
    SOURCE_BURST_OFF_S,
    SOURCE_BURST_ON_S,
    ProducerConfig,
    full_load_rate,
    serialization_time_s,
)
from ..network.packet import ACK_PACKET_BYTES, WIRE_HEADER_BYTES
from ..network.transport import SEGMENT_PAYLOAD_BYTES

__all__ = ["PerformanceEstimate", "ProducerPerformanceModel"]


@dataclass(frozen=True)
class PerformanceEstimate:
    """Predicted performance of one producer configuration.

    Attributes
    ----------
    service_rate:
        μ — messages per second the producer can sustain.
    service_rate_norm:
        μ scaled into [0, 1] against the machine's serialisation ceiling
        (the fastest any configuration could go); this is the μ term used
        in the weighted KPI, which needs commensurable [0, 1] summands.
    bandwidth_utilization:
        φ — fraction of link capacity consumed at the offered arrival
        rate (capped at 1).
    mean_latency_s:
        Expected time from ingest to acknowledgement for a message under
        the M/D/1 approximation (staleness estimates build on this).
    """

    service_rate: float
    service_rate_norm: float
    bandwidth_utilization: float
    mean_latency_s: float


class ProducerPerformanceModel:
    """Queueing-based predictor of (φ, μ) per configuration.

    It reads the same machine constants (host, link and broker timing) as
    the testbed, so predictions and simulations describe one machine.
    """

    #: Capacity of each per-instance memo.
    PREDICT_CACHE_CAPACITY = 4096

    def __init__(self) -> None:
        # The model is pure, so memoising is safe for the model's lifetime.
        # An estimate depends on the configuration only through the fields
        # predict() keys on; the delay-independent terms of μ only on
        # (M, B, acks, in-flight window), and the rest of an estimate's
        # delay-independent parts on those and the polling interval δ.
        # Config searches revisit the same candidates every round and the
        # same (M, B, δ) at every decision — this turns those
        # re-evaluations into dict hits, and a new network delay into a
        # few lines of arithmetic.
        self._predict_cache: Dict[Tuple, PerformanceEstimate] = {}
        self._terms_cache: Dict[Tuple, _RequestTerms] = {}
        self._fixed_cache: Dict[Tuple, _FixedTerms] = {}

    # ------------------------------------------------------------ pieces

    def _request_bytes(
        self, message_bytes: int, batch_size: int, waits_for_ack: bool
    ) -> Tuple[int, int]:
        """(wire bytes, round-trip bytes) of one produce request, in one pass.

        Each data segment is acknowledged at the transport level; the
        application response (when acks are required) rides one further
        segment with its own acknowledgement.
        """
        application_bytes = message_bytes * batch_size + REQUEST_OVERHEAD_BYTES
        segments = max(1, -(-application_bytes // SEGMENT_PAYLOAD_BYTES))
        wire = application_bytes + segments * WIRE_HEADER_BYTES
        total = wire + segments * ACK_PACKET_BYTES
        if waits_for_ack:
            total += RESPONSE_BYTES + WIRE_HEADER_BYTES + ACK_PACKET_BYTES
        return wire, total

    def request_wire_bytes(self, message_bytes: int, batch_size: int) -> int:
        """Bytes one produce request occupies on the wire (all segments)."""
        return self._request_bytes(message_bytes, batch_size, False)[0]

    def round_trip_bytes(self, message_bytes: int, batch_size: int, waits_for_ack: bool) -> int:
        """All bytes a request's round trip puts on the (shared) link."""
        return self._request_bytes(message_bytes, batch_size, waits_for_ack)[1]

    def _terms(
        self, message_bytes: int, batch: int, waits: bool, max_in_flight: int
    ) -> "_RequestTerms":
        """The delay-independent terms of μ, computed once per key."""
        key = (message_bytes, batch, waits, max_in_flight)
        terms = self._terms_cache.get(key)
        if terms is not None:
            return terms
        wire, round_trip_bytes = self._request_bytes(message_bytes, batch, waits)
        batch_serialization_s = serialization_time_s(message_bytes * batch, batch)
        window = max_in_flight if waits else SOCKET_WINDOW_REQUESTS
        window = min(window, max(1, int(SOCKET_BUFFER_BYTES // wire) or 1))
        broker_s = BROKER_PROCESSING_TIME_S + (
            message_bytes * batch / APPEND_BYTES_PER_S
        )
        if waits:
            broker_s += ACKS_ALL_EXTRA_S
        terms = _RequestTerms(
            cpu_rate=1.0 / (batch_serialization_s / batch),
            link_rate=LINK_CAPACITY_BPS * batch / round_trip_bytes,
            window=window,
            batch_serialization_s=batch_serialization_s,
            round_trip_bytes=round_trip_bytes,
            transmission_s=round_trip_bytes / LINK_CAPACITY_BPS,
            broker_s=broker_s,
        )
        if len(self._terms_cache) >= self.PREDICT_CACHE_CAPACITY:
            self._terms_cache.clear()
        self._terms_cache[key] = terms
        return terms

    def _fixed(
        self,
        message_bytes: int,
        batch: int,
        waits: bool,
        max_in_flight: int,
        polling_interval_s: float,
    ) -> "_FixedTerms":
        """Every delay-independent part of an estimate, computed once per key."""
        key = (message_bytes, batch, waits, max_in_flight, polling_interval_s)
        fixed = self._fixed_cache.get(key)
        if fixed is not None:
            return fixed
        terms = self._terms(message_bytes, batch, waits, max_in_flight)
        fixed = _FixedTerms(
            terms=terms,
            arrival_rate=self._arrival_rate(message_bytes, waits, polling_interval_s),
            wire_per_message=terms.round_trip_bytes / batch,
            # Normalise μ by the serialisation ceiling at B=1 — the
            # fastest the machine could ever serve this message size.
            ceiling=1.0 / serialization_time_s(message_bytes, 1),
        )
        if len(self._fixed_cache) >= self.PREDICT_CACHE_CAPACITY:
            self._fixed_cache.clear()
        self._fixed_cache[key] = fixed
        return fixed

    # ----------------------------------------------------------- headline

    @staticmethod
    def _service(
        terms: "_RequestTerms", batch: int, network_delay_s: float
    ) -> Tuple[float, float]:
        """(μ, the request round trip in seconds).

        The producer pipeline is limited by the slowest of three stages:
        serialisation (CPU), the in-flight window over the request round
        trip (on an idle link), and the link's byte capacity.
        """
        propagation = 2.0 * (LINK_BASE_DELAY_S + network_delay_s)
        round_trip = terms.transmission_s + propagation + terms.broker_s
        if terms.window == 1:
            # A single-request window cannot overlap serialisation with the
            # network round trip: the stages run as one serial cycle.
            window_rate = batch / (round_trip + terms.batch_serialization_s)
        else:
            window_rate = terms.window * batch / round_trip
        return min(terms.cpu_rate, window_rate, terms.link_rate), round_trip

    def service_rate(
        self,
        config: ProducerConfig,
        message_bytes: int,
        network_delay_s: float = 0.0,
    ) -> float:
        """μ: sustainable messages/second for this configuration.

        The slowest of serialisation, the in-flight window over the
        request round trip, and the link's byte capacity.
        """
        batch = config.batch_size
        terms = self._terms(
            message_bytes, batch, config.semantics.waits_for_ack, config.max_in_flight
        )
        return self._service(terms, batch, network_delay_s)[0]

    @staticmethod
    def _arrival_rate(
        message_bytes: int, waits: bool, polling_interval_s: float
    ) -> float:
        if polling_interval_s > 0:
            return 1.0 / polling_interval_s
        peak = full_load_rate(message_bytes, waits)
        return peak * SOURCE_BURST_ON_S / (SOURCE_BURST_ON_S + SOURCE_BURST_OFF_S)

    def arrival_rate(self, config: ProducerConfig, message_bytes: int) -> float:
        """λ: the mean offered rate under the paper's source disciplines."""
        return self._arrival_rate(
            message_bytes, config.semantics.waits_for_ack, config.polling_interval_s
        )

    def predict(
        self,
        config: ProducerConfig,
        message_bytes: int,
        network_delay_s: float = 0.0,
    ) -> PerformanceEstimate:
        """Predict (φ, μ, latency) for one configuration (memoised)."""
        # Every config field the estimate reads, and nothing else: the
        # timeout and retry knobs do not change (φ, μ, latency).
        return self.predict_fields(
            message_bytes,
            network_delay_s,
            config.semantics.waits_for_ack,
            config.batch_size,
            config.max_in_flight,
            config.polling_interval_s,
        )

    def predict_fields(
        self,
        message_bytes: int,
        network_delay_s: float,
        waits_for_ack: bool,
        batch_size: int,
        max_in_flight: int,
        polling_interval_s: float,
    ) -> PerformanceEstimate:
        """:meth:`predict` from the config fields it reads (memoised).

        The configuration search scores a candidate from its fields, so it
        never has to build the candidate's :class:`ProducerConfig`.
        """
        key = (
            message_bytes,
            network_delay_s,
            waits_for_ack,
            batch_size,
            max_in_flight,
            polling_interval_s,
        )
        cached = self._predict_cache.get(key)
        if cached is not None:
            return cached
        # Checked on a miss only: an invalid size never enters the memo.
        if message_bytes < 1:
            raise ValueError("message_bytes must be >= 1")
        fixed = self._fixed(
            message_bytes, batch_size, waits_for_ack, max_in_flight, polling_interval_s
        )
        # Only what depends on the delay is computed here, in the order of
        # the piece-by-piece formulas, so every bit is theirs.
        mu, round_trip = self._service(fixed.terms, batch_size, network_delay_s)
        lam = fixed.arrival_rate
        throughput = min(lam, mu)
        phi = min(1.0, throughput * fixed.wire_per_message / LINK_CAPACITY_BPS)
        mu_norm = min(1.0, mu / fixed.ceiling)
        # M/D/1 waiting time approximation for the latency estimate.
        rho = min(0.999, lam / mu) if mu > 0 else 0.999
        service_s = 1.0 / mu
        wait_s = (rho * service_s) / (2.0 * (1.0 - rho))
        latency = service_s + wait_s + round_trip
        # Equal to PerformanceEstimate(...), without the frozen
        # dataclass's per-field object.__setattr__ calls.
        estimate = object.__new__(PerformanceEstimate)
        estimate.__dict__.update(
            service_rate=mu,
            service_rate_norm=mu_norm,
            bandwidth_utilization=phi,
            mean_latency_s=latency,
        )
        if len(self._predict_cache) >= self.PREDICT_CACHE_CAPACITY:
            self._predict_cache.clear()
        self._predict_cache[key] = estimate
        return estimate


class _RequestTerms(NamedTuple):
    """Delay-independent pieces of one request cycle (see ``_terms``)."""

    cpu_rate: float
    link_rate: float
    window: int
    batch_serialization_s: float
    round_trip_bytes: int
    transmission_s: float
    broker_s: float


class _FixedTerms(NamedTuple):
    """The delay-independent parts of one estimate (see ``_fixed``)."""

    terms: _RequestTerms
    arrival_rate: float
    wire_per_message: float
    ceiling: float
