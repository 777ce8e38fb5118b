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
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "EventKind",
    "Tracer",
    "TraceRecords",
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


#: Lines the tracer hashes per digest update.
_HASH_BATCH = 256


@lru_cache(maxsize=256)
def _emitter_factory(kind: str, names: Tuple[str, ...]) -> Any:
    """``make(tracer, unhashed, hash_lines, write)`` for :meth:`Tracer.emitter`.

    The emitter it makes takes the time and one value per name, builds
    the record :meth:`Tracer.emit` would build, and records it as ``emit``
    does, with the line :func:`encode_record` would write: the sorted
    keys, the separators and the ``kind`` value are one ``%``-template,
    and each value is formatted as :mod:`json` writes it, an ``int`` or
    finite ``float`` through ``repr``, a ``str`` through
    ``encode_basestring_ascii``, and anything else (NaN, the infinities,
    ``bool``, ``None``, subclasses such as numpy scalars, nested values)
    through :func:`encode_record`.  Compiling costs a fraction of a
    millisecond, so each factory is built once per process.
    """
    fields = {"t": "t", **{name: f"v{index}" for index, name in enumerate(names)}}
    slots = dict.fromkeys(fields, "%s")
    slots["kind"] = encode_record(kind).replace("%", "%%")
    template = "{%s}" % ",".join(
        encode_basestring_ascii(name).replace("%", "%%") + ":" + slots[name]
        for name in sorted(slots)
    )
    arguments = "".join(
        f"repr({value}) if (c := type({value})) is int"
        f" or c is float and {value} - {value} == 0.0"  # NaN/inf give NaN
        f" else esc({value}) if c is str else ref({value}), "
        for _, value in sorted(fields.items())
    )
    items = "".join(f", {name!r}: {value}" for name, value in fields.items())
    source = (
        "def make(tracer, unhashed, hash_lines, write):\n"
        f"    def emit({', '.join(fields.values())}):\n"
        f"        record = {{'kind': kind{items}}}\n"
        f"        line = template % ({arguments})\n"
        "        unhashed.append(line)\n"
        "        if len(unhashed) == batch:\n"
        "            hash_lines()\n"
        "        tracer.count += 1\n"
        "        write(record, line)\n"
        "    return emit\n"
    )
    namespace: Dict[str, Any] = {
        "kind": kind,
        "template": template,
        "batch": _HASH_BATCH,
        "esc": encode_basestring_ascii,
        "ref": encode_record,
    }
    exec(source, namespace)
    return namespace["make"]


def _new_digest() -> "hashlib._Hash":
    return hashlib.blake2b(digest_size=16)


class TraceRecords(list):
    """Decoded trace records plus the canonical line each was stored as.

    A ring buffer keeps the line the tracer encoded and digested for each
    record, and :func:`load_trace_file` keeps the line it read, so
    :func:`trace_digest` can hash what was actually stored instead of
    encoding every record a second time.  A copy or slice of the list is
    a plain ``list`` and is re-encoded, as is a list whose length no
    longer matches its lines; a record dict edited in place is not.
    """

    def __init__(
        self, records: Iterable[Dict[str, Any]] = (), lines: Iterable[str] = ()
    ) -> None:
        super().__init__(records)
        self.lines: List[str] = list(lines)


def trace_digest(records: Iterable[Dict[str, Any]]) -> str:
    """Digest of an event stream, exactly as :class:`Tracer` computes it.

    :class:`TraceRecords` are digested from their stored lines — the
    bytes the tracer hashed or the file held — and anything else from
    :func:`encode_record` of every record.
    """
    if isinstance(records, TraceRecords) and len(records.lines) == len(records):
        lines = records.lines
    else:
        lines = [encode_record(record) for record in records]
    digest = _new_digest()
    if lines:
        digest.update(("\n".join(lines) + "\n").encode("utf-8"))
    return digest.hexdigest()


class TraceSink:
    """Receives encoded trace records; subclasses choose the storage."""

    def write(self, record: Dict[str, Any], line: str) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (no-op by default)."""


#: Bound on the in-memory trace buffer of a run without a trace file.
RING_CAPACITY = 200_000


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` records in memory.

    The bounded buffer means tracing a huge run cannot exhaust memory; the
    tracer's running digest and event count still cover every record ever
    emitted, so invariant checks that need the *full* stream should use a
    :class:`JsonlFileSink` when runs exceed the capacity.
    """

    def __init__(self, capacity: int = RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._records: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._lines: "deque[str]" = deque(maxlen=capacity)
        self._written = 0

    def write(self, record: Dict[str, Any], line: str) -> None:
        self._records.append(record)
        self._lines.append(line)
        self._written += 1

    @property
    def records(self) -> TraceRecords:
        """The buffered records, oldest first, with their encoded lines."""
        return TraceRecords(self._records, self._lines)

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

    __slots__ = ("_sink", "count", "_digest", "_unhashed")

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self._sink = sink if sink is not None else RingBufferSink()
        self.count = 0
        self._digest = _new_digest()
        # Encoded lines wait here and are hashed _HASH_BATCH at a time: the
        # digest of the joined lines equals the digest of each in turn.
        self._unhashed: List[str] = []

    @property
    def sink(self) -> TraceSink:
        return self._sink

    def emitter(self, kind: str, *names: str) -> Callable[..., None]:
        """A faster :meth:`emit` for one kind of event with fixed fields.

        ``emitter(kind, "key", "attempt")(time, key, attempt)`` records
        exactly what ``emit(kind, time, key=key, attempt=attempt)`` records
        (pass a key, never ``None``: ``emit`` would leave it out; and name
        neither ``kind`` nor ``t``).  The per-message emission sites bind
        one per kind when a tracer is attached; the rare events go
        through ``emit``.
        """
        make = _emitter_factory(kind, names)
        return make(self, self._unhashed, self._hash_lines, self._sink.write)

    def emit(self, kind: str, time: float, key: Optional[int] = None, **data: Any) -> None:
        """Record one event at simulated ``time``.

        ``key`` is the message key for per-message events; extra fields go
        into the record verbatim (they must be JSON-encodable).
        """
        if key is None:
            record: Dict[str, Any] = {"kind": kind, "t": time, **data}
        else:
            record = {"kind": kind, "t": time, "key": key, **data}
        line = encode_record(record)
        unhashed = self._unhashed
        unhashed.append(line)
        if len(unhashed) == _HASH_BATCH:
            self._hash_lines()
        self.count += 1
        self._sink.write(record, line)

    def _hash_lines(self) -> None:
        """Fold the lines not yet hashed into the digest, in one update."""
        self._digest.update(("\n".join(self._unhashed) + "\n").encode())
        self._unhashed.clear()

    def digest(self) -> str:
        """Hex digest over every record emitted so far."""
        if self._unhashed:
            self._hash_lines()
        return self._digest.copy().hexdigest()

    def records(self) -> List[Dict[str, Any]]:
        """Buffered records when the sink is a ring buffer (else empty)."""
        if isinstance(self._sink, RingBufferSink):
            return self._sink.records
        return []

    def close(self) -> None:
        self._sink.close()


def load_trace_file(path: "str | Path") -> Tuple[TraceRecords, Optional[Dict[str, Any]]]:
    """Read a ``--trace-file`` JSONL file back into (events, manifest).

    The manifest is written by the experiment as a final ``kind:
    "manifest"`` line (it is not part of the event stream and does not
    contribute to the trace digest).  Returns ``(events, manifest_or_None)``;
    the events keep the file's lines, which :func:`trace_digest` hashes.
    """
    events = TraceRecords()
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
                events.lines.append(line)
    return events, manifest
