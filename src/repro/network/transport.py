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

from ..observability.trace import EventKind
from ..simulation.simulator import Event, Simulator
from .link import FORWARD, Link, REVERSE
from .packet import ACK_PACKET_BYTES, DEFAULT_MTU, Packet, PacketKind, WIRE_HEADER_BYTES

__all__ = [
    "SEGMENT_PAYLOAD_BYTES",
    "MAX_RETRANSMITS",
    "TransportStats",
    "ReliableChannel",
    "SendFailure",
]

# Enum member lookups go through the enum metaclass (about 0.14 µs each on
# Python 3.11); every packet is tagged with one of these.
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK


#: Payload bytes per packet: the MTU less the wire header.  The
#: performance model (``performance/queueing.py``) segments requests the
#: same way.
SEGMENT_PAYLOAD_BYTES = DEFAULT_MTU - WIRE_HEADER_BYTES
#: Retransmission timeout before any RTT measurement exists.
_INITIAL_RTO_S = 0.3
#: Clamp on the adaptive retransmission timeout.
_MIN_RTO_S = 0.2
_MAX_RTO_S = 4.0
#: Multiplicative RTO backoff per retransmission of a segment (Karn).
_RTO_BACKOFF = 2.0
#: Retransmissions per segment before the whole message send fails.
MAX_RETRANSMITS = 5


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
    direction's data segments and their acknowledgements, bound to this
    endpoint once per channel rather than once per segment; ``reverse``
    names the direction the acknowledgements travel.  ``rto`` is the
    clamped first-attempt retransmission timeout, recomputed whenever the
    RTT estimate moves.
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

    def __init__(self, reverse: str) -> None:
        self.reverse = reverse
        self.on_data: Callable[[Packet], None]
        self.on_ack: Callable[[Packet], None]
        self.outstanding: Dict[int, _OutstandingMessage] = {}
        # Segments seen so far of incomplete multi-segment messages.
        self.received: Dict[int, Set[int]] = {}
        self.completed = bytearray()
        self.receiver: Optional[Callable[[Any, int], None]] = None
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.rto = _INITIAL_RTO_S
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
        tracer=None,
    ) -> None:
        self._sim = sim
        self._link = link
        self._endpoints: Dict[str, _DirectionEndpoint] = {}
        for direction, reverse in ((FORWARD, REVERSE), (REVERSE, FORWARD)):
            endpoint = _DirectionEndpoint(reverse)
            endpoint.on_data = partial(self._on_data, endpoint)
            endpoint.on_ack = partial(self._on_ack, endpoint)
            self._endpoints[direction] = endpoint
        self._tracer = tracer
        self._emit_retransmit = (
            tracer.emitter(EventKind.RETRANSMIT, "direction", "message_id", "segment", "attempt")
            if tracer is not None
            else None
        )

    # ------------------------------------------------------------------ api

    def set_receiver(self, direction: str, callback: Callable[[Any, int], None]) -> None:
        """Register ``callback(payload, size_bytes)`` for completed messages."""
        self._endpoint(direction).receiver = callback

    def stats(self, direction: str) -> TransportStats:
        """Return the sender-side stats of ``direction``."""
        return self._endpoint(direction).stats

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
        total_segments = -(-size_bytes // SEGMENT_PAYLOAD_BYTES)
        message = _OutstandingMessage(
            message_id, payload, size_bytes, total_segments, on_delivered, on_failed, now
        )
        endpoint.outstanding[message_id] = message
        stats = endpoint.stats
        stats.messages_sent += 1
        if deadline is not None:
            if deadline <= now:
                # Already expired: fail on the next event tick for causality.
                sim.schedule(0.0, self._fail, direction, message, SendFailure.DEADLINE)
                return message_id
            message.deadline_event = sim.schedule_at(
                deadline, self._fail, direction, message, SendFailure.DEADLINE
            )
        if total_segments == 1:
            # The common case: exactly ``_transmit_segment``'s first attempt.
            stats.segments_sent += 1
            wire_bytes = size_bytes + WIRE_HEADER_BYTES
            self._link.send(
                Packet(_DATA, wire_bytes, message_id, 0, message.segment_payload, 0),
                direction,
                endpoint.on_data,
            )
            message.timers[0] = sim.schedule(
                endpoint.rto, self._on_rto, direction, message, 0, wire_bytes, 0
            )
            return message_id
        remaining = size_bytes
        for index in range(total_segments):
            seg_payload = min(SEGMENT_PAYLOAD_BYTES, remaining)
            remaining -= seg_payload
            self._transmit_segment(direction, message, index, seg_payload + WIRE_HEADER_BYTES, 0)
        return message_id

    # ------------------------------------------------------------ internals

    def _endpoint(self, direction: str) -> _DirectionEndpoint:
        try:
            return self._endpoints[direction]
        except KeyError:
            raise ValueError(f"unknown direction {direction!r}") from None

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
            if self._emit_retransmit is not None:
                self._emit_retransmit(
                    self._sim.now, direction, message.message_id, index, attempt
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
            rto = min(rto * (_RTO_BACKOFF**attempt), _MAX_RTO_S * 4)
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
        if attempt + 1 > MAX_RETRANSMITS:
            self._fail(direction, message, SendFailure.RETRIES_EXHAUSTED)
            return
        self._transmit_segment(direction, message, index, wire_bytes, attempt + 1)

    def _on_data(self, endpoint: _DirectionEndpoint, packet: Packet) -> None:
        """A data segment arrived at the receiver of ``endpoint``'s direction."""
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
            receiver = endpoint.receiver
            if receiver is not None:
                receiver(payload, size_bytes)

    def _on_ack(self, endpoint: _DirectionEndpoint, packet: Packet) -> None:
        """An ACK for a segment sent in ``endpoint``'s direction returned."""
        message_id = packet.message_id
        outstanding = endpoint.outstanding
        message = outstanding.get(message_id)
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
            if endpoint.min_rtt is None or sample < endpoint.min_rtt:
                endpoint.min_rtt = sample
            srtt = endpoint.srtt
            if srtt is None:
                srtt = endpoint.srtt = sample
                rttvar = endpoint.rttvar = sample / 2.0
            else:
                rttvar = endpoint.rttvar = 0.75 * endpoint.rttvar + 0.25 * abs(srtt - sample)
                srtt = endpoint.srtt = 0.875 * srtt + 0.125 * sample
            # Jacobson RTO: SRTT + 4·RTTVAR, clamped.
            endpoint.rto = min(max(srtt + 4.0 * rttvar, _MIN_RTO_S), _MAX_RTO_S)
        if not complete:
            return
        message.delivered = True
        # Each segment's ACK cancelled its timer: only the deadline is left.
        deadline_event = message.deadline_event
        if deadline_event is not None:
            message.deadline_event = None
            sim.cancel(deadline_event)
        del outstanding[message_id]
        endpoint.stats.messages_delivered += 1
        if message.on_delivered is not None:
            message.on_delivered(message.payload, sim.now - message.start_time)

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
