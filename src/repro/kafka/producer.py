"""The Kafka producer: polling, batching, semantics, retries, expiry.

This is the component whose reliability the paper predicts.  The producer
is modelled as the pipeline of a real Kafka client:

``source → accumulator queue → (batching) → serialisation → network send``

with the semantics-dependent send discipline:

* **at-most-once** (``acks=0``): requests are fired into the transport and
  forgotten; nothing is retried at the application level.
* **at-least-once** (``acks≥1``): at most ``max_in_flight`` requests are
  outstanding; each waits ``request_timeout_s`` for a broker response and
  is retried (with backoff) until the response arrives, retries are
  exhausted, or the per-message delivery timeout ``T_o`` expires.
* **exactly-once**: at-least-once plus producer id / sequence numbers that
  let brokers discard duplicate appends.

Messages expire out of the accumulator once they have waited longer than
``T_o`` — the overload loss mode behind the paper's Figs. 5 and 6.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from ..network.link import FORWARD, REVERSE
from ..network.transport import ReliableChannel
from ..observability.trace import EventKind
from ..simulation.simulator import Simulator
from .broker import ProduceRequest, ProduceResponse
from .cluster import KafkaCluster
from .config import (
    REQUEST_OVERHEAD_BYTES,
    RESPONSE_BYTES,
    SOCKET_BUFFER_BYTES,
    SOCKET_WINDOW_REQUESTS,
    ProducerConfig,
    serialization_time_s,
)
from .message import ProducerRecord
from .partition import Partition
from .topic import Topic

__all__ = ["ProducerListener", "ProducerStats", "KafkaProducer"]


class ProducerListener:
    """Instrumentation hooks; the testbed's delivery tracker subclasses this.

    Every method is a no-op by default so the producer can run without any
    instrumentation attached.
    """

    def on_ingest(self, record: ProducerRecord) -> None:
        """Record entered the accumulator."""

    def on_queue_drop(self, record: ProducerRecord) -> None:
        """Record rejected because the accumulator was full."""

    def on_expired(self, record: ProducerRecord, after_send: bool) -> None:
        """Record abandoned because its delivery timeout ``T_o`` passed."""

    def on_send_attempt(self, record: ProducerRecord, attempt: int) -> None:
        """Record included in a produce request (``attempt`` 0 = first)."""

    def on_attempt_failed(self, record: ProducerRecord, attempt: int) -> None:
        """A produce request carrying the record timed out or failed."""

    def on_acknowledged(self, record: ProducerRecord) -> None:
        """Producer received a broker response covering the record."""

    def on_perceived_lost(self, record: ProducerRecord) -> None:
        """Producer gave up on the record (its final producer-side view)."""


@dataclass
class ProducerStats:
    """Producer-side counters (the producer's own view of the world)."""

    ingested: int = 0
    queue_dropped: int = 0
    expired_in_queue: int = 0
    expired_after_send: int = 0
    requests_sent: int = 0
    request_retries: int = 0
    acknowledged: int = 0
    perceived_lost: int = 0
    fire_and_forget: int = 0
    bytes_sent: int = 0

    @property
    def resolved(self) -> int:
        """Records the producer has finished with, one way or another."""
        return (
            self.queue_dropped
            + self.expired_in_queue
            + self.expired_after_send
            + self.acknowledged
            + self.perceived_lost
            + self.fire_and_forget
        )


class _Batch:
    """Sender-side state for one produce request and its retries."""

    __slots__ = (
        "records", "attempt", "timer", "waiting", "completed", "base_sequence",
        "byte_charge", "partition",
    )

    def __init__(self, records: List[ProducerRecord]) -> None:
        self.records = records
        self.attempt = 0
        self.timer = None
        self.waiting = False
        self.completed = False
        self.base_sequence: Optional[int] = None
        self.byte_charge = 0
        #: Routed once, by the first record, so a retry whose head record
        #: expired still reaches the partition that fences its sequences.
        self.partition: Optional[Partition] = None


class KafkaProducer:
    """A simulated Kafka producer attached to one cluster via one channel.

    Parameters
    ----------
    sim:
        Shared simulator.
    cluster:
        Destination cluster (this constructor wires the channel receivers).
    channel:
        Reliable transport to the cluster; ``FORWARD`` is producer→cluster.
    topic:
        Destination topic object.
    config:
        The paper's configuration features.
    listener:
        Optional instrumentation hooks.
    tracer:
        Optional run tracer; when attached, the producer's events are traced.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: KafkaCluster,
        channel: ReliableChannel,
        topic: Topic,
        config: Optional[ProducerConfig] = None,
        listener: Optional[ProducerListener] = None,
        tracer=None,
    ) -> None:
        self._sim = sim
        self._cluster = cluster
        self._channel = channel
        self._topic = topic
        self.config = config if config is not None else ProducerConfig()
        self.listener = listener if listener is not None else ProducerListener()
        # The tracer is optional and None by default; every emission site
        # guards on the attribute so a bare producer pays one pointer
        # comparison per event, nothing more.
        self._tracer = tracer
        # The per-record events go through emitters bound once (see
        # Tracer.emitter); the rare ones through the tracer's emit.
        self._emit_send = (
            tracer.emitter(EventKind.SEND, "key", "attempt")
            if tracer is not None
            else None
        )
        self._emit_ack = (
            tracer.emitter(EventKind.ACK, "key", "rtt_s")
            if tracer is not None
            else None
        )
        self.stats = ProducerStats()
        # Read for every record on the batch path.  Every record the producer
        # holds was stamped by ``offer``, so its delivery deadline is simply
        # ``record.ingest_time + self._message_timeout_s``.  The semantics
        # flags are enum properties, read once here.
        self._message_timeout_s = self.config.message_timeout_s
        self._batch_size = self.config.batch_size
        self._waits_for_ack = self.config.semantics.waits_for_ack
        self._idempotent = self.config.semantics.idempotent
        self.producer_id = cluster.init_producer_id()
        self._sequence = itertools.count()
        self._queue: Deque[ProducerRecord] = deque()
        self._serializing = False
        self._linger_timer = None
        self._input_finished = False
        self._closed = False
        self._batches: Dict[int, _Batch] = {}
        self._outstanding = 0  # records ingested but not yet resolved
        # At-least-once: the in-flight request window (max.in.flight).
        # At-most-once: TCP flow control — a bounded number of requests may
        # sit unacknowledged in the socket; beyond that the accumulator
        # backs up, exactly like a blocked socket write.  A batch takes a
        # slot only when one is free, so nothing ever waits on the window.
        self._window = (
            self.config.max_in_flight
            if self._waits_for_ack
            else SOCKET_WINDOW_REQUESTS
        )
        self._in_flight = 0
        self._in_flight_bytes = 0
        channel.set_receiver(FORWARD, self._cluster_receive)
        channel.set_receiver(REVERSE, self._producer_receive)
        # The expiry sweep re-arms itself only while work is pending, so an
        # idle producer never keeps the simulator alive.
        self._sweep_interval = max(0.05, self.config.request_timeout_s / 4)
        self._sweep_event = None
        # ``(batch bytes, serialisation time)`` of a full batch of records
        # the size of the last queue head, so the expiry lookahead and a
        # full batch of equal records compute it once per payload size.
        self._full_batch = (0, 0.0)

    # ------------------------------------------------------------- intake

    @property
    def done(self) -> bool:
        """Whether input is finished and every record is resolved."""
        return self._input_finished and self._outstanding == 0 and not self._queue

    @property
    def outstanding(self) -> int:
        """Records ingested whose fate the producer has not yet resolved."""
        return self._outstanding

    def offer(self, record: ProducerRecord) -> bool:
        """Ingest one record from the upstream source.

        A record without a key gets the next key of the simulation's
        sequence.  Returns False when the accumulator is bounded and full
        (the record is dropped and reported through the listener).
        """
        if self._closed:
            raise RuntimeError("producer is closed")
        sim = self._sim
        if record.key is None:
            record.key = next(sim.record_keys)
        queue = self._queue
        capacity = self.config.queue_capacity
        if capacity is not None and len(queue) >= capacity:
            self.stats.queue_dropped += 1
            self.listener.on_queue_drop(record)
            if self._tracer is not None:
                self._tracer.emit(EventKind.QUEUE_DROP, sim.now, key=record.key)
            return False
        record.ingest_time = sim.now
        self.stats.ingested += 1
        self._outstanding += 1
        self.listener.on_ingest(record)
        queue.append(record)
        if self._sweep_event is None:
            self._arm_sweep()
        self._maybe_form_batch()
        return True

    def finish_input(self) -> None:
        """Signal that no further records will be offered."""
        self._input_finished = True
        self._maybe_form_batch()
        self._check_done()

    # --------------------------------------------------------- batch flow

    def _expire_from_queue_head(self, lookahead_s: float = 0.0) -> None:
        """Drop queue-head records at (or within ``lookahead_s`` of) expiry.

        The lookahead mirrors Kafka's accumulator behaviour of expiring a
        batch *before* spending cycles on it: a record that will cross its
        delivery timeout while the batch is being serialised is dead on
        arrival and only wastes the batch slot.
        """
        queue = self._queue
        now = self._sim.now
        horizon = now + lookahead_s
        timeout = self._message_timeout_s
        while queue and horizon >= queue[0].ingest_time + timeout:
            self._expire(queue.popleft(), now, after_send=False)

    def _expire(self, record: ProducerRecord, now: float, after_send: bool) -> None:
        """Give up on ``record``: its delivery timeout ``T_o`` has passed."""
        if after_send:
            self.stats.expired_after_send += 1
        else:
            self.stats.expired_in_queue += 1
        self.listener.on_expired(record, after_send=after_send)
        if self._tracer is not None:
            self._tracer.emit(EventKind.EXPIRED, now, key=record.key, after_send=after_send)
        self._resolve()

    def _live(self, records: List[ProducerRecord], after_send: bool) -> List[ProducerRecord]:
        """Expire every record past its delivery timeout; return the rest."""
        now = self._sim.now
        timeout = self._message_timeout_s
        live: List[ProducerRecord] = []
        for record in records:
            if now >= record.ingest_time + timeout:
                self._expire(record, now, after_send)
            else:
                live.append(record)
        return live

    def _arm_sweep(self) -> None:
        if self._sweep_event is not None or self._closed:
            return
        if not self._queue and self._outstanding == 0:
            return
        self._sweep_event = self._sim.schedule(self._sweep_interval, self._sweep_expired)

    def _sweep_expired(self) -> None:
        self._sweep_event = None
        self._expire_from_queue_head()
        if self._queue:
            self._maybe_form_batch()
        self._arm_sweep()

    def _maybe_form_batch(self) -> None:
        if self._serializing or self._closed:
            return
        queue = self._queue
        batch_size = self._batch_size
        sim = self._sim
        if queue:
            head = queue[0]
            batch_bytes = batch_size * head.payload_bytes
            memo_bytes, lookahead = self._full_batch
            if memo_bytes != batch_bytes:
                lookahead = serialization_time_s(batch_bytes, batch_size)
                self._full_batch = (batch_bytes, lookahead)
            if sim.now + lookahead >= head.ingest_time + self._message_timeout_s:
                self._expire_from_queue_head(lookahead)
        if not queue:
            if self._input_finished:
                self._check_done()
            return
        if self._in_flight >= self._window:
            return  # back-pressure: wait for an in-flight/socket slot
        if self._in_flight_bytes >= SOCKET_BUFFER_BYTES and self._in_flight > 0:
            return  # socket send buffer full; a completion will re-trigger
        count = len(queue)
        if count < batch_size:
            oldest_wait = sim.now - queue[0].ingest_time
            linger_s = self.config.linger_s
            if not (self._input_finished or oldest_wait >= linger_s):
                if self._linger_timer is None:
                    self._linger_timer = sim.schedule(
                        max(1e-6, linger_s - oldest_wait), self._on_linger
                    )
                return
        else:
            count = batch_size
        popleft = queue.popleft
        records = [popleft() for _ in range(count)]
        if self._linger_timer is not None:
            sim.cancel(self._linger_timer)
            self._linger_timer = None
        self._in_flight += 1
        self._serializing = True
        total_bytes = 0
        for record in records:
            total_bytes += record.payload_bytes
        memo_bytes, ser_time = self._full_batch
        if count != batch_size or total_bytes != memo_bytes:
            ser_time = serialization_time_s(total_bytes, count)
        sim.schedule(ser_time, self._dispatch, records)

    def _on_linger(self) -> None:
        self._linger_timer = None
        self._maybe_form_batch()

    def _release_slot(self) -> None:
        """Return an in-flight slot and try to form the next batch."""
        if self._in_flight == 0:
            raise RuntimeError("release without matching acquire")
        self._in_flight -= 1
        self._sim.schedule(0.0, self._maybe_form_batch)

    def _dispatch(self, records: List[ProducerRecord]) -> None:
        self._serializing = False
        live = self._live(records, after_send=False)
        if not live:
            self._release_slot()
            return
        self._send_batch(_Batch(live))
        self._sim.schedule(0.0, self._maybe_form_batch)

    def _send_batch(self, batch: _Batch) -> None:
        waits_for_ack = self._waits_for_ack
        records = batch.records
        partition = batch.partition
        if partition is None:
            partition = batch.partition = self._topic.partition_for(records[0].key)
        base_sequence = None
        producer_id = None
        if self._idempotent:
            producer_id = self.producer_id
            if batch.base_sequence is None:
                base_sequence = next(self._sequence)
                for _ in batch.records[1:]:
                    next(self._sequence)
                batch.base_sequence = base_sequence
            else:
                base_sequence = batch.base_sequence
        attempt = batch.attempt
        stats = self.stats
        wire_bytes = REQUEST_OVERHEAD_BYTES
        for record in records:
            wire_bytes += record.payload_bytes
        # Request ids number the producer's requests in send order.  A
        # retry replaces ``batch.records`` rather than editing it, so the
        # request can share the list.
        request_id = stats.requests_sent
        request = ProduceRequest(
            request_id,
            records,
            partition,
            waits_for_ack,
            wire_bytes,
            producer_id,
            base_sequence,
            attempt,
        )
        stats.requests_sent = request_id + 1
        if attempt > 0:
            stats.request_retries += 1
        stats.bytes_sent += wire_bytes
        listener = self.listener
        emit_send = self._emit_send
        for record in records:
            listener.on_send_attempt(record, attempt)
            if emit_send is not None:
                emit_send(self._sim.now, record.key, attempt)
        if waits_for_ack:
            if attempt == 0:
                batch.byte_charge = wire_bytes
                self._in_flight_bytes += wire_bytes
            self._batches[request_id] = batch
            batch.waiting = True
            # The response timer starts once the request has demonstrably
            # reached the broker (transport-level delivery); transmission
            # time therefore never eats into the response wait, mirroring
            # how Kafka's request timeout dwarfs any transfer time.  A
            # transport-level failure (connection gave up) triggers the
            # retry path immediately.
            self._channel.send(
                FORWARD,
                wire_bytes,
                request,
                self._sim.now + 2.0 * self.config.request_timeout_s,
                self._on_request_delivered,
                self._on_transport_failed,
            )
        else:
            # Fire and forget: the producer's bookkeeping ends here; the
            # testbed learns the true fate from the cluster/transport.  The
            # socket keeps trying for one delivery-timeout span from the
            # moment the batch hits the socket, after which the connection
            # abandons the data (queue waiting time is charged separately
            # by accumulator expiry).
            deadline = self._sim.now + self.config.message_timeout_s
            self._in_flight_bytes += wire_bytes
            self._channel.send(
                FORWARD,
                wire_bytes,
                request,
                deadline,
                self._on_amo_settled,
                self._on_amo_failed,
            )
            stats.fire_and_forget += len(records)
            self._resolve(len(records))

    # ------------------------------------------------- at-least-once path

    # The transport callbacks find a request's batch in ``_batches``, which
    # maps every request id sent to its batch until the response arrives;
    # a batch whose response arrived is completed, so a late callback for
    # its request changes nothing either way.

    def _on_request_delivered(self, request: ProduceRequest, rtt_s: float) -> None:
        """The request reached the broker; now wait for its response."""
        batch = self._batches.get(request.request_id)
        if batch is None or batch.completed or not batch.waiting or batch.timer is not None:
            return
        batch.timer = self._sim.schedule(
            self.config.request_timeout_s, self._handle_request_failure, batch
        )

    def _on_transport_failed(self, request: ProduceRequest, reason: str) -> None:
        # The transport gave up before the request timeout fired; handle it
        # exactly like a timeout so retry policy lives in one place.
        batch = self._batches.get(request.request_id)
        if batch is not None:
            self._handle_request_failure(batch)

    def _handle_request_failure(self, batch: _Batch) -> None:
        if batch.completed or not batch.waiting:
            return
        batch.waiting = False
        if batch.timer is not None:
            self._sim.cancel(batch.timer)
            batch.timer = None
        now = self._sim.now
        for record in batch.records:
            self.listener.on_attempt_failed(record, batch.attempt)
        survivors = batch.records = self._live(batch.records, after_send=True)
        if survivors and batch.attempt < self.config.effective_retries:
            batch.attempt += 1
            if self._tracer is not None:
                self._tracer.emit(
                    EventKind.RETRY,
                    now,
                    attempt=batch.attempt,
                    records=len(survivors),
                )
            self._sim.schedule(
                self.config.retry_backoff_s, self._retry_batch, batch
            )
            return
        for record in survivors:
            self.stats.perceived_lost += 1
            self.listener.on_perceived_lost(record)
            if self._tracer is not None:
                self._tracer.emit(EventKind.PERCEIVED_LOST, now, key=record.key)
            self._resolve()
        self._finish(batch)

    def _retry_batch(self, batch: _Batch) -> None:
        if batch.completed:
            return
        batch.records = self._live(batch.records, after_send=True)
        if batch.records:
            self._send_batch(batch)
        else:
            self._finish(batch)

    def _finish(self, batch: _Batch) -> None:
        """Retire ``batch``: free its socket bytes and its in-flight slot."""
        batch.completed = True
        self._in_flight_bytes -= batch.byte_charge
        self._release_slot()

    def _producer_receive(self, response: ProduceResponse, size_bytes: int) -> None:
        """A broker response arrived (the REVERSE direction carries nothing else)."""
        batch = self._batches.pop(response.request_id, None)
        if batch is None or batch.completed:
            return
        sim = self._sim
        if batch.timer is not None:
            sim.cancel(batch.timer)
            batch.timer = None
        now = sim.now
        records = batch.records
        self.stats.acknowledged += len(records)
        listener = self.listener
        emit_ack = self._emit_ack
        for record in records:
            listener.on_acknowledged(record)
            if emit_ack is not None:
                emit_ack(now, record.key, now - record.ingest_time)
        self._resolve(len(records))
        self._finish(batch)

    # ------------------------------------------------- at-most-once path

    def _on_amo_settled(self, request: ProduceRequest, rtt_s: float) -> None:
        # Every segment was TCP-acknowledged: free the socket slot.
        self._in_flight_bytes -= request.wire_bytes
        self._release_slot()

    def _on_amo_failed(self, request: ProduceRequest, reason: str) -> None:
        # Ground truth only: the fire-and-forget producer never notices the
        # loss, but the socket slot is freed when the connection abandons
        # the data.
        for record in request.records:
            self.listener.on_attempt_failed(record, request.attempt)
        self._on_amo_settled(request, 0.0)

    # ---------------------------------------------------- cluster wiring

    def _cluster_receive(self, request: ProduceRequest, size_bytes: int) -> None:
        """A produce request arrived (the FORWARD direction carries nothing else)."""
        self._cluster.handle_produce(
            request, self._send_response if request.require_acks else None
        )

    def _send_response(self, response: ProduceResponse) -> None:
        self._channel.send(
            REVERSE,
            RESPONSE_BYTES,
            response,
            self._sim.now + 2.0 * self.config.request_timeout_s,
        )

    # ------------------------------------------------------------- close

    def _resolve(self, count: int = 1) -> None:
        """Mark ``count`` records as finished with."""
        self._outstanding -= count
        if self._outstanding < 0:
            raise RuntimeError("producer resolved more records than ingested")
        self._check_done()

    def _check_done(self) -> None:
        # Once done the producer never re-arms the sweep (``_arm_sweep``
        # needs pending work), so this cancels it at most once.
        if (
            self._input_finished
            and self._outstanding == 0
            and not self._queue
            and self._sweep_event is not None
        ):
            self._sim.cancel(self._sweep_event)
            self._sweep_event = None

    def close(self) -> None:
        """Stop timers; the producer accepts no further records."""
        self._closed = True
        if self._sweep_event is not None:
            self._sim.cancel(self._sweep_event)
            self._sweep_event = None
        if self._linger_timer is not None:
            self._sim.cancel(self._linger_timer)
            self._linger_timer = None
