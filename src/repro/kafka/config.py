"""Configuration surfaces of the simulated Kafka deployment.

:class:`ProducerConfig` carries exactly the tunables the paper selects as
prediction features (Section III-D) plus the secondary knobs (retries,
backoff, in-flight window) the paper holds at Kafka-like defaults.
The module constants below pin the one machine the paper assumes ("we
study how to obtain the best configuration in a scenario with a given
machine of fixed resources"): broker timing, host and link.  All
reliability phenomena are driven by the *ratios* between these constants,
so they are expressed in a scaled-down unit system that keeps
discrete-event counts tractable (see DESIGN.md §2); rescaling the machine
means editing this one module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .semantics import DeliverySemantics

__all__ = [
    "ProducerConfig",
    "DEFAULT_PRODUCER_CONFIG",
    "serialization_time_s",
    "full_load_rate",
]


@dataclass(frozen=True)
class ProducerConfig:
    """Producer tunables (the ``Confs`` of paper Eq. 1).

    Attributes
    ----------
    semantics:
        Delivery semantics (feature *e*); maps to ``acks``/``retries``.
    batch_size:
        ``B``, messages accumulated per produce request (feature *f*).
    polling_interval_s:
        ``δ``, seconds between polls of the upstream source (feature *g*);
        0 ingests as fast as the source and I/O allow.
    message_timeout_s:
        ``T_o``, the total delivery timeout per message including retries
        (feature *h*; Kafka's ``delivery.timeout.ms``).
    request_timeout_s:
        Time to wait for a broker response before an application-level
        retry (Kafka's ``request.timeout.ms``).
    retry_backoff_s:
        Pause before each application-level retry.
    max_retries:
        τ_r bound; ignored under at-most-once.
    max_in_flight:
        Bound on unacknowledged produce requests (back-pressure window);
        only effective when the semantics waits for acks.
    linger_s:
        Maximum time a partial batch may wait for more messages before
        being sent anyway (Kafka's ``linger.ms``).
    queue_capacity:
        Bound on the producer's accumulator queue; ``None`` = unbounded.
    """

    semantics: DeliverySemantics = DeliverySemantics.AT_LEAST_ONCE
    batch_size: int = 1
    polling_interval_s: float = 0.0
    message_timeout_s: float = 3.0
    request_timeout_s: float = 2.5
    retry_backoff_s: float = 0.05
    max_retries: int = 10
    max_in_flight: int = 5
    linger_s: float = 0.01
    queue_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        # Float checks are written ``not x >= 0`` so that NaN fails them.
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.polling_interval_s >= 0:
            raise ValueError("polling_interval_s must be >= 0")
        if not self.message_timeout_s > 0:
            raise ValueError("message_timeout_s must be positive")
        if not self.request_timeout_s > 0:
            raise ValueError("request_timeout_s must be positive")
        if not self.retry_backoff_s >= 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if not self.linger_s >= 0:
            raise ValueError("linger_s must be >= 0")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 or None")

    @property
    def effective_retries(self) -> int:
        """Retries actually performed given the semantics."""
        return self.max_retries if self.semantics.retries_allowed else 0

    def with_(self, **changes) -> "ProducerConfig":
        """Return a copy with the given fields replaced.

        Equal to ``dataclasses.replace`` — an unknown field raises
        ``TypeError`` and every ``__post_init__`` check runs — at about a
        third of its cost: the configuration search copies configs on
        every probe, so the field dict is copied and updated directly
        instead of going back through ``__init__``.
        """
        if "semantics" in changes:
            changes["semantics"] = DeliverySemantics.parse(changes["semantics"])
        fields = self.__dict__.copy()
        if not fields.keys() >= changes.keys():
            unknown = sorted(changes.keys() - fields.keys())
            raise TypeError(f"ProducerConfig has no field(s) {unknown}")
        fields.update(changes)
        copy = object.__new__(type(self))
        copy.__dict__.update(fields)
        copy.__post_init__()
        return copy


#: Kafka-like out-of-the-box settings used as the "Default" column of the
#: paper's Table II: streaming mode (no batching), at-least-once with a
#: short message timeout and full-speed polling.
DEFAULT_PRODUCER_CONFIG = ProducerConfig(
    semantics=DeliverySemantics.AT_LEAST_ONCE,
    batch_size=1,
    polling_interval_s=0.0,
    message_timeout_s=1.5,
    request_timeout_s=1.0,
)


# ---------------------------------------------------------------- the machine
#
# One fixed machine, as the paper assumes.  The unit system is scaled so
# that full-load message rates sit in the tens-to-hundreds per second,
# keeping event counts manageable; every figure of the paper depends on
# ratios (arrival/service, offered load/capacity), not on absolute rates.
# The simulator, the feature schema, the performance model and the
# network-state estimator all read these constants, so a prediction is
# always for the machine that was simulated.

#: Broker: fixed request handling latency (validation, indexing).
BROKER_PROCESSING_TIME_S = 0.002
#: Broker: log append throughput; adds size-proportional latency.
APPEND_BYTES_PER_S = 50e6
#: Broker: copies per partition across the cluster (capped at the broker
#: count).
REPLICATION_FACTOR = 3
#: Broker: extra latency per request when the producer requires
#: acknowledgement from all in-sync replicas.
ACKS_ALL_EXTRA_S = 0.004

#: Peak source read bandwidth; at full load (δ=0) the producer ingests
#: messages at ``IO_BYTES_PER_S / M`` during source bursts.
IO_BYTES_PER_S = 40_000.0
#: Full-load ingest slowdown when the producer also processes broker
#: responses (at-least-once); the paper's overloaded acks=0 producer reads
#: faster than its acks=1 twin because it spends no cycles on response
#: handling.
ACK_OVERHEAD_FACTOR = 0.6
#: Fixed per-message processing cost (key assignment, callbacks).
SERIALIZATION_BASE_S = 0.012
#: Byte-proportional serialisation throughput.
SERIALIZATION_BYTES_PER_S = 120_000.0
#: Fixed per-request assembly cost, amortised over a batch.
BATCH_OVERHEAD_S = 0.004
#: Protocol framing bytes added to every produce request (topic and
#: partition metadata, record-batch headers) — the fixed cost that batching
#: amortises.
REQUEST_OVERHEAD_BYTES = 200
#: Size of a produce response message.
RESPONSE_BYTES = 150
#: TCP flow-control analogue for the fire-and-forget producer: how many
#: produce requests may sit unacknowledged in the socket before further
#: sends wait in the accumulator.
SOCKET_WINDOW_REQUESTS = 12
#: Byte-based in-flight cap (the socket send buffer / bandwidth-delay
#: window).  Applies to both semantics on top of the request-count window;
#: it is what keeps a handful of large requests from flooding the link
#: queue.
SOCKET_BUFFER_BYTES = 3_000
#: Link serialisation capacity in bytes/second (per direction).
LINK_CAPACITY_BPS = 7_500.0
#: One-way propagation delay with no fault injected.
LINK_BASE_DELAY_S = 0.0005
#: The fully-loaded source alternates between reading at peak I/O rate for
#: about ``SOURCE_BURST_ON_S`` and pausing for about ``SOURCE_BURST_OFF_S``
#: (page cache misses, upstream batching); this burstiness is what makes the
#: message-timeout knee of paper Fig. 5 possible.
SOURCE_BURST_ON_S = 0.12
SOURCE_BURST_OFF_S = 1.88


def serialization_time_s(total_bytes: int, messages: int = 1) -> float:
    """CPU time to serialise ``messages`` totalling ``total_bytes``."""
    return (
        SERIALIZATION_BASE_S * messages
        + total_bytes / SERIALIZATION_BYTES_PER_S
        + BATCH_OVERHEAD_S
    )


def full_load_rate(message_bytes: int, waits_for_ack: bool) -> float:
    """Peak ingest rate (messages/s) at δ=0 during a source burst."""
    rate = IO_BYTES_PER_S / message_bytes
    if waits_for_ack:
        rate *= ACK_OVERHEAD_FACTOR
    return rate
