"""Structured run traces: typed event records, sinks and digests.

A trace is an ordered stream of flat JSON records, one per observable
event of a run — producer sends and acknowledgements, application and
transport retries, Fig. 2 state-machine transitions, fault-injector
actions and Gilbert–Elliott channel flips.  Every
record carries the simulated time it happened at, so a trace is a
complete, replayable account of *which* transitions fired and *when*.

Two sinks are provided: a bounded in-memory ring buffer (the default, for
tests and interactive inspection) and a JSONL file sink (for ``repro
experiment --trace-file`` and post-hoc ``repro inspect``).  Both share one
canonical encoding; the tracer folds every encoded record into a running
BLAKE2b digest, so two runs emitted the same events in the same order if
and only if their digests match — the determinism regression check — and
any dropped or edited record is detectable after the fact.

Simulated time is the only clock that appears in a record; wall time is
deliberately excluded so digests are stable across hosts and runs.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "EventKind",
    "Tracer",
    "TraceSink",
    "RingBufferSink",
    "JsonlFileSink",
    "encode_record",
    "trace_digest",
    "load_trace_file",
]


class EventKind:
    """The trace-record vocabulary (the ``kind`` field of every record)."""

    SEND = "send"  #: producer included a record in a produce request
    ACK = "ack"  #: producer received a broker response for a record
    RETRY = "retry"  #: producer re-sent a batch (application-level retry)
    EXPIRED = "expired"  #: record abandoned past its delivery timeout T_o
    QUEUE_DROP = "queue_drop"  #: record rejected by a full accumulator
    PERCEIVED_LOST = "perceived_lost"  #: producer gave up on a record
    TRANSITION = "transition"  #: Fig. 2 state-machine edge applied
    APPEND = "append"  #: a copy of a record persisted on a broker log
    BROKER_DROP = "broker_drop"  #: a crashed broker silently dropped a request
    RETRANSMIT = "retransmit"  #: transport-level segment retransmission
    TRANSPORT_FAIL = "transport_fail"  #: a transport send gave up
    FAULT = "fault"  #: fault injector applied or cleared a treatment
    CHANNEL_STATE = "channel_state"  #: Gilbert–Elliott chain changed state


def encode_record(record: Dict[str, Any]) -> str:
    """Canonical one-line JSON encoding of a trace record.

    Sorted keys and minimal separators: the same record always encodes to
    the same bytes, and ``json.loads(encode_record(r))`` round-trips floats
    exactly (Python emits shortest-repr floats).
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _new_digest() -> "hashlib._Hash":
    return hashlib.blake2b(digest_size=16)


def trace_digest(records: Iterable[Dict[str, Any]]) -> str:
    """Digest of an event stream, exactly as :class:`Tracer` computes it."""
    digest = _new_digest()
    for record in records:
        digest.update(encode_record(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class TraceSink:
    """Receives encoded trace records; subclasses choose the storage."""

    def write(self, record: Dict[str, Any], line: str) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (no-op by default)."""


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` records in memory.

    The bounded buffer means tracing a huge run cannot exhaust memory; the
    tracer's running digest and event count still cover every record ever
    emitted, so invariant checks that need the *full* stream should use a
    :class:`JsonlFileSink` when runs exceed the capacity.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._records: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._written = 0

    def write(self, record: Dict[str, Any], line: str) -> None:
        self._records.append(record)
        self._written += 1

    @property
    def records(self) -> List[Dict[str, Any]]:
        """The buffered records, oldest first."""
        return list(self._records)

    @property
    def dropped(self) -> bool:
        """Whether the buffer has wrapped (old records were evicted)."""
        return self._written > self.capacity


class JsonlFileSink(TraceSink):
    """Appends one canonical JSON line per record to a file."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w")

    def write(self, record: Dict[str, Any], line: str) -> None:
        self._handle.write(line)
        self._handle.write("\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


class Tracer:
    """Emits structured events into a sink while folding a running digest.

    Components never hold a tracer directly on their hot paths when
    telemetry is off — the convention throughout the codebase is a
    ``self._tracer = None`` attribute and a ``if tracer is not None`` guard
    at each emission site, so a disabled run pays one pointer comparison
    per site and nothing else.
    """

    __slots__ = ("_sink", "count", "_digest")

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self._sink = sink if sink is not None else RingBufferSink()
        self.count = 0
        self._digest = _new_digest()

    @property
    def sink(self) -> TraceSink:
        return self._sink

    def emit(self, kind: str, time: float, key: Optional[int] = None, **data: Any) -> None:
        """Record one event at simulated ``time``.

        ``key`` is the message key for per-message events; extra fields go
        into the record verbatim (they must be JSON-encodable).
        """
        record: Dict[str, Any] = {"kind": kind, "t": time}
        if key is not None:
            record["key"] = key
        if data:
            record.update(data)
        line = encode_record(record)
        self._digest.update(line.encode("utf-8"))
        self._digest.update(b"\n")
        self.count += 1
        self._sink.write(record, line)

    def digest(self) -> str:
        """Hex digest over every record emitted so far."""
        return self._digest.copy().hexdigest()

    def records(self) -> List[Dict[str, Any]]:
        """Buffered records when the sink is a ring buffer (else empty)."""
        if isinstance(self._sink, RingBufferSink):
            return self._sink.records
        return []

    def close(self) -> None:
        self._sink.close()


def load_trace_file(path: "str | Path") -> Tuple[List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Read a ``--trace-file`` JSONL file back into (events, manifest).

    The manifest is written by the experiment as a final ``kind:
    "manifest"`` line (it is not part of the event stream and does not
    contribute to the trace digest).  Returns ``(events, manifest_or_None)``.
    """
    events: List[Dict[str, Any]] = []
    manifest: Optional[Dict[str, Any]] = None
    with Path(path).open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON ({exc})"
                ) from None
            if not isinstance(record, dict) or "kind" not in record:
                raise ValueError(f"{path}:{line_number}: not a trace record")
            if record["kind"] == "manifest":
                manifest = record
            else:
                events.append(record)
    return events, manifest
