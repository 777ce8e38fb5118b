"""A TCP-like reliable message transport over a lossy :class:`Link`.

Kafka speaks a binary protocol over TCP, and every reliability phenomenon
the paper reports is mediated by this layer: retransmissions mask moderate
loss, retransmission and acknowledgement traffic compete with fresh data
for bandwidth, and retransmission delay pushes messages past their
delivery timeout.  This module implements the minimum mechanism that
yields those behaviours faithfully:

* segmentation of a message into MTU-sized packets,
* per-segment cumulative-free ACKs (one ACK packet per data segment),
* Jacobson/Karn adaptive RTO with exponential backoff,
* a bounded retransmission budget and an optional per-message deadline,
* receiver-side deduplication and in-order-agnostic reassembly.

It deliberately omits congestion windows: the paper's Docker bridge runs
over loopback where loss is injected by NetEm, not by congestion control,
and NetEm loss does not trigger meaningful cwnd collapse on loopback RTTs.
Contention effects instead emerge from the finite link capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, cast

from ..observability.metrics import DEFAULT_LATENCY_BUCKETS
from ..observability.trace import EventKind
from ..simulation.events import Event
from ..simulation.simulator import Simulator
from .link import FORWARD, Link, REVERSE
from .packet import ACK_PACKET_BYTES, DEFAULT_MTU, Packet, PacketKind, WIRE_HEADER_BYTES

__all__ = [
    "TransportConfig",
    "TransportStats",
    "ReliableChannel",
    "SendFailure",
]

# Enum member lookups go through the enum metaclass (about 0.14 µs each on
# Python 3.11); every packet is tagged with one of these.
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK


@dataclass
class TransportConfig:
    """Tunables of the TCP-like transport.

    Attributes
    ----------
    mtu:
        Maximum payload bytes per packet (excluding the wire header).
    initial_rto_s:
        Retransmission timeout before any RTT measurement exists.
    min_rto_s / max_rto_s:
        Clamp on the adaptive RTO.
    rto_backoff:
        Multiplicative RTO backoff per retransmission of a segment.
    max_retransmits:
        Retransmissions per segment before the whole message send fails.
    """

    mtu: int = DEFAULT_MTU
    initial_rto_s: float = 0.3
    min_rto_s: float = 0.2
    max_rto_s: float = 4.0
    rto_backoff: float = 2.0
    max_retransmits: int = 5

    def __post_init__(self) -> None:
        if self.mtu <= WIRE_HEADER_BYTES:
            raise ValueError("mtu must exceed the wire header size")
        if self.max_retransmits < 0:
            raise ValueError("max_retransmits must be non-negative")
        if not (0 < self.min_rto_s <= self.initial_rto_s <= self.max_rto_s):
            raise ValueError("require 0 < min_rto <= initial_rto <= max_rto")


@dataclass
class TransportStats:
    """Counters for one channel direction."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_failed: int = 0
    segments_sent: int = 0
    retransmissions: int = 0
    acks_received: int = 0
    duplicate_segments: int = 0


class SendFailure:
    """Reasons a message send can fail."""

    RETRIES_EXHAUSTED = "retries_exhausted"
    DEADLINE = "deadline"
    ABORTED = "aborted"


#: Receiver dedupe bitmaps start this large and double as ids outgrow them.
_MIN_COMPLETED = 64

#: The acknowledged-segment set of a single-segment message: its one
#: segment is acknowledged exactly when the message is delivered, so it
#: needs no set of its own.
_NO_SEGMENTS = cast(Set[int], frozenset())


class _OutstandingMessage:
    """Sender-side bookkeeping for one in-flight message.

    ``timers`` holds each segment's pending retransmission timer (None
    before the first send); ``acked`` the acknowledged segment indices of a
    multi-segment message.
    """

    __slots__ = (
        "message_id",
        "payload",
        "total_segments",
        "segment_payload",
        "acked",
        "timers",
        "deadline_event",
        "on_delivered",
        "on_failed",
        "failed",
        "delivered",
        "start_time",
    )

    def __init__(
        self,
        message_id: int,
        payload: Any,
        size_bytes: int,
        total_segments: int,
        on_delivered: Optional[Callable[[Any, float], None]],
        on_failed: Optional[Callable[[Any, str], None]],
        start_time: float,
    ) -> None:
        self.message_id = message_id
        self.payload = payload
        self.total_segments = total_segments
        # What every data segment of this message carries; built once.
        self.segment_payload = (payload, total_segments, size_bytes)
        self.acked: Set[int] = set() if total_segments > 1 else _NO_SEGMENTS
        self.timers: List[Optional[Event]] = [None] * total_segments
        self.deadline_event: Optional[Event] = None
        self.on_delivered = on_delivered
        self.on_failed = on_failed
        self.failed = False
        self.delivered = False
        self.start_time = start_time


class _DirectionEndpoint:
    """Sender state, receiver state and stats for one channel direction.

    ``on_data``/``on_ack`` are the link arrival callbacks for this
    direction's data segments and their acknowledgements, built once per
    channel rather than once per segment; ``reverse`` names the direction
    the acknowledgements travel.  ``rto`` is the clamped first-attempt
    retransmission timeout, recomputed whenever the RTT estimate moves.
    ``completed`` holds one byte per transport message id (ids are dense
    per simulator), set once the receiver has the whole message.
    """

    __slots__ = (
        "reverse",
        "on_data",
        "on_ack",
        "outstanding",
        "received",
        "completed",
        "receiver",
        "srtt",
        "rttvar",
        "rto",
        "min_rtt",
        "stats",
    )

    def __init__(
        self,
        reverse: str,
        on_data: Callable[[Packet], None],
        on_ack: Callable[[Packet], None],
    ) -> None:
        self.reverse = reverse
        self.on_data = on_data
        self.on_ack = on_ack
        self.outstanding: Dict[int, _OutstandingMessage] = {}
        # Segments seen so far of incomplete multi-segment messages.
        self.received: Dict[int, Set[int]] = {}
        self.completed = bytearray()
        self.receiver: Optional[Callable[[Any, int], None]] = None
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.rto = 0.0
        self.min_rtt: Optional[float] = None
        self.stats = TransportStats()


class ReliableChannel:
    """Bidirectional reliable message channel between producer and cluster.

    Messages sent ``FORWARD`` travel producer → cluster; their ACKs travel
    back on the ``REVERSE`` direction of the underlying link (and therefore
    compete with application traffic flowing that way), and vice versa.

    Use :meth:`set_receiver` to register the application-level handler for
    each direction, then :meth:`send`.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        config: Optional[TransportConfig] = None,
        telemetry=None,
    ) -> None:
        self._sim = sim
        self._link = link
        self.config = config if config is not None else TransportConfig()
        self._endpoints: Dict[str, _DirectionEndpoint] = {
            direction: _DirectionEndpoint(
                reverse,
                partial(self._on_data, direction),
                partial(self._on_ack, direction),
            )
            for direction, reverse in ((FORWARD, REVERSE), (REVERSE, FORWARD))
        }
        for endpoint in self._endpoints.values():
            endpoint.rto = self._base_rto(endpoint)
        self._tracer = telemetry.tracer if telemetry is not None else None
        if telemetry is not None:
            self._rtt_hist = telemetry.metrics.histogram(
                "transport.rtt_s", DEFAULT_LATENCY_BUCKETS
            )
        else:
            self._rtt_hist = None

    # ------------------------------------------------------------------ api

    def set_receiver(self, direction: str, callback: Callable[[Any, int], None]) -> None:
        """Register ``callback(payload, size_bytes)`` for completed messages."""
        self._endpoint(direction).receiver = callback

    def stats(self, direction: str) -> TransportStats:
        """Return the sender-side stats of ``direction``."""
        return self._endpoint(direction).stats

    def smoothed_rtt(self, direction: str) -> Optional[float]:
        """The sender's current SRTT estimate for ``direction`` (or None).

        This is exactly what a real client can observe about its network
        path, so the online configuration extension builds on it.
        """
        return self._endpoint(direction).srtt

    def minimum_rtt(self, direction: str) -> Optional[float]:
        """Smallest first-attempt RTT observed (filters queueing delay)."""
        return self._endpoint(direction).min_rtt

    def send(
        self,
        direction: str,
        size_bytes: int,
        payload: Any = None,
        deadline: Optional[float] = None,
        on_delivered: Optional[Callable[[Any, float], None]] = None,
        on_failed: Optional[Callable[[Any, str], None]] = None,
    ) -> int:
        """Send an application message of ``size_bytes`` payload bytes.

        Parameters
        ----------
        direction:
            ``FORWARD`` (producer → cluster) or ``REVERSE``.
        size_bytes:
            Application bytes; wire overhead is added per segment.
        payload:
            Opaque object handed to the receiver callback on completion.
        deadline:
            Absolute simulated time after which the send is abandoned.
        on_delivered:
            Sender-side callback ``(payload, rtt_s)`` once every segment has
            been acknowledged.
        on_failed:
            Sender-side callback ``(payload, reason)`` on failure.

        Returns the transport message id.
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        try:
            endpoint = self._endpoints[direction]
        except KeyError:
            raise ValueError(f"unknown direction {direction!r}") from None
        sim = self._sim
        now = sim.now
        message_id = next(sim.message_ids)
        payload_per_segment = self.config.mtu - WIRE_HEADER_BYTES
        total_segments = -(-size_bytes // payload_per_segment)
        message = _OutstandingMessage(
            message_id, payload, size_bytes, total_segments, on_delivered, on_failed, now
        )
        endpoint.outstanding[message_id] = message
        endpoint.stats.messages_sent += 1
        if deadline is not None:
            if deadline <= now:
                # Already expired: fail on the next event tick for causality.
                sim.schedule(0.0, self._fail, direction, message, SendFailure.DEADLINE)
                return message_id
            message.deadline_event = sim.schedule_at(
                deadline, self._fail, direction, message, SendFailure.DEADLINE
            )
        remaining = size_bytes
        for index in range(total_segments):
            seg_payload = min(payload_per_segment, remaining)
            remaining -= seg_payload
            self._transmit_segment(direction, message, index, seg_payload + WIRE_HEADER_BYTES, 0)
        return message_id

    def abort(self, direction: str, message_id: int) -> None:
        """Abandon an in-flight send (e.g. the producer gave up on it)."""
        endpoint = self._endpoint(direction)
        message = endpoint.outstanding.get(message_id)
        if message is not None:
            self._fail(direction, message, SendFailure.ABORTED)

    # ------------------------------------------------------------ internals

    def _endpoint(self, direction: str) -> _DirectionEndpoint:
        try:
            return self._endpoints[direction]
        except KeyError:
            raise ValueError(f"unknown direction {direction!r}") from None

    def _base_rto(self, endpoint: _DirectionEndpoint) -> float:
        """Jacobson RTO: SRTT + 4·RTTVAR (initial RTO before any sample), clamped."""
        config = self.config
        srtt = endpoint.srtt
        base = config.initial_rto_s if srtt is None else srtt + 4.0 * endpoint.rttvar
        return min(max(base, config.min_rto_s), config.max_rto_s)

    def _transmit_segment(
        self,
        direction: str,
        message: _OutstandingMessage,
        index: int,
        wire_bytes: int,
        attempt: int,
    ) -> None:
        if message.failed or message.delivered or index in message.acked:
            return
        endpoint = self._endpoints[direction]
        stats = endpoint.stats
        stats.segments_sent += 1
        if attempt > 0:
            stats.retransmissions += 1
            if self._tracer is not None:
                self._tracer.emit(
                    EventKind.RETRANSMIT,
                    self._sim.now,
                    direction=direction,
                    message_id=message.message_id,
                    segment=index,
                    attempt=attempt,
                )
        packet = Packet(
            _DATA,
            wire_bytes,
            message.message_id,
            index,
            message.segment_payload,
            attempt,
        )
        self._link.send(packet, direction, endpoint.on_data)
        # Exponential backoff per retransmission (Karn).
        rto = endpoint.rto
        if attempt > 0:
            config = self.config
            rto = min(rto * (config.rto_backoff**attempt), config.max_rto_s * 4)
        message.timers[index] = self._sim.schedule(
            rto, self._on_rto, direction, message, index, wire_bytes, attempt
        )

    def _on_rto(
        self,
        direction: str,
        message: _OutstandingMessage,
        index: int,
        wire_bytes: int,
        attempt: int,
    ) -> None:
        if message.failed or message.delivered or index in message.acked:
            return
        if attempt + 1 > self.config.max_retransmits:
            self._fail(direction, message, SendFailure.RETRIES_EXHAUSTED)
            return
        self._transmit_segment(direction, message, index, wire_bytes, attempt + 1)

    def _on_data(self, direction: str, packet: Packet) -> None:
        """A data segment arrived at the receiver of ``direction``."""
        endpoint = self._endpoints[direction]
        payload, total_segments, size_bytes = packet.payload
        message_id = packet.message_id
        completed = endpoint.completed
        if message_id < len(completed) and completed[message_id]:
            endpoint.stats.duplicate_segments += 1
            complete = False
        elif total_segments == 1:
            # The common case needs no per-message set of seen segments.
            complete = True
        else:
            seen = endpoint.received.setdefault(message_id, set())
            if packet.segment_index in seen:
                endpoint.stats.duplicate_segments += 1
            else:
                seen.add(packet.segment_index)
            complete = len(seen) == total_segments
        # Always acknowledge, even duplicates (the earlier ACK may be lost).
        ack = Packet(
            _ACK,
            ACK_PACKET_BYTES,
            message_id,
            packet.segment_index,
            None,
            packet.attempt,
        )
        self._link.send(ack, endpoint.reverse, endpoint.on_ack)
        if complete:
            if message_id >= len(completed):
                grown = max(message_id + 1, 2 * len(completed), _MIN_COMPLETED)
                completed.extend(bytes(grown - len(completed)))
            completed[message_id] = 1
            if total_segments > 1:
                del endpoint.received[message_id]
            if endpoint.receiver is not None:
                endpoint.receiver(payload, size_bytes)

    def _on_ack(self, direction: str, packet: Packet) -> None:
        """An ACK for a segment sent in ``direction`` returned to the sender."""
        endpoint = self._endpoints[direction]
        message = endpoint.outstanding.get(packet.message_id)
        if message is None or message.failed or message.delivered:
            return
        endpoint.stats.acks_received += 1
        index = packet.segment_index
        total_segments = message.total_segments
        if total_segments > 1:
            acked = message.acked
            if index in acked:
                return
            acked.add(index)
            complete = len(acked) == total_segments
        else:
            complete = True
        sim = self._sim
        timers = message.timers
        timer = timers[index]
        if timer is not None:
            timers[index] = None
            sim.cancel(timer)
        # Karn's rule: only sample RTT from first-attempt segments.
        if packet.attempt == 0:
            sample = sim.now - message.start_time
            if self._rtt_hist is not None:
                self._rtt_hist.observe(sample)
            if endpoint.min_rtt is None or sample < endpoint.min_rtt:
                endpoint.min_rtt = sample
            if endpoint.srtt is None:
                endpoint.srtt = sample
                endpoint.rttvar = sample / 2.0
            else:
                endpoint.rttvar = 0.75 * endpoint.rttvar + 0.25 * abs(endpoint.srtt - sample)
                endpoint.srtt = 0.875 * endpoint.srtt + 0.125 * sample
            endpoint.rto = self._base_rto(endpoint)
        if complete:
            self._complete(direction, message)

    def _complete(self, direction: str, message: _OutstandingMessage) -> None:
        endpoint = self._endpoints[direction]
        message.delivered = True
        # Each segment's ACK cancelled its timer: only the deadline is left.
        if message.deadline_event is not None:
            self._sim.cancel(message.deadline_event)
            message.deadline_event = None
        endpoint.outstanding.pop(message.message_id, None)
        endpoint.stats.messages_delivered += 1
        if message.on_delivered is not None:
            message.on_delivered(message.payload, self._sim.now - message.start_time)

    def _fail(self, direction: str, message: _OutstandingMessage, reason: str) -> None:
        if message.failed or message.delivered:
            return
        endpoint = self._endpoints[direction]
        message.failed = True
        self._clear_timers(message)
        endpoint.outstanding.pop(message.message_id, None)
        endpoint.stats.messages_failed += 1
        if self._tracer is not None:
            self._tracer.emit(
                EventKind.TRANSPORT_FAIL,
                self._sim.now,
                direction=direction,
                message_id=message.message_id,
                reason=reason,
            )
        if message.on_failed is not None:
            message.on_failed(message.payload, reason)

    def _clear_timers(self, message: _OutstandingMessage) -> None:
        timers = message.timers
        for index, timer in enumerate(timers):
            if timer is not None:
                self._sim.cancel(timer)
                timers[index] = None
        if message.deadline_event is not None:
            self._sim.cancel(message.deadline_event)
            message.deadline_event = None
