"""``Tracer.emitter`` must record what ``Tracer.emit`` records, for every kind.

The per-message emission sites go through emitters: functions compiled
for one kind and field set that format each value into a ``%``-template
over the sorted keys, because that is several times cheaper than
``json.dumps(sort_keys=True)``.  That is only a valid rewrite while both
give the same line, so the reference here stays ``emit``, which encodes
with ``encode_record``: every record, line and the running digest are
checked against it on random records of every ``EventKind`` — floats of
every magnitude and sign, NaN and the infinities, large ints, strings
that need escaping, bools, ``None``, float subclasses, nested values,
and one field set seen with changing value types.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.observability.trace import (
    EventKind,
    RingBufferSink,
    Tracer,
    encode_record,
    trace_digest,
)

KINDS = sorted(
    value
    for name, value in vars(EventKind).items()
    if name.isupper() and isinstance(value, str)
)

#: Field names the emission sites use, plus two that sort around them.
FIELDS = [
    "attempt", "rtt_s", "after_send", "records", "edge", "from", "to",
    "broker", "offset", "phase", "direction", "message_id", "segment",
    "reason", "action", "delay_s", "loss_rate", "bursty", "state",
    "A_first", "zz_last",
]

RECORDS_PER_KIND = 400


def random_float(rng: random.Random) -> float:
    choice = rng.randrange(8)
    if choice == 0:
        return rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf])
    if choice == 1:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308)
    if choice == 2:
        return float(rng.randint(-(10**6), 10**6))
    if choice == 3:
        return float(np.float64(rng.random()))
    return rng.random() * rng.choice([1e-3, 1.0, 1e3, 1e17])


def random_value(rng: random.Random):
    choice = rng.randrange(10)
    if choice < 3:
        return random_float(rng)
    if choice < 5:
        return rng.choice([0, 1, -1, rng.randint(-(2**80), 2**80), 10**30])
    if choice == 5:
        alphabet = 'ab"\\/\n\t\x00\x1f%{}é€😀'
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
    if choice == 6:
        return rng.choice([True, False])
    if choice == 7:
        return None
    if choice == 8:
        return np.float64(random_float(rng))
    return rng.choice([[1, 2.5, "x"], {"b": 1, "a": [None, True]}, []])


def random_record(rng: random.Random):
    names = rng.sample(FIELDS, rng.randint(0, 4))
    data = {name: random_value(rng) for name in names}
    key = rng.choice([None, rng.randint(0, 10**6), 2**64])
    return random_float(rng), key, data


def assert_same_records(by_emit: Tracer, by_emitter: Tracer) -> None:
    expected, actual = by_emit.records(), by_emitter.records()
    # Same records, fields in the same order, and the same lines.
    assert [list(r.items()) for r in actual] == [list(r.items()) for r in expected]
    mismatches = [
        (line, reference)
        for line, reference in zip(actual.lines, expected.lines)
        if line != reference
    ]
    assert not mismatches, mismatches[:3]
    assert expected.lines == [encode_record(record) for record in expected]
    assert by_emitter.count == by_emit.count == len(expected)
    # The digest folds the same bytes the reference encoding gives.
    assert by_emitter.digest() == by_emit.digest() == trace_digest(list(expected))


@pytest.mark.parametrize("kind", KINDS)
def test_emitted_lines_match_encode_record(kind):
    rng = random.Random(f"trace-encoding-{kind}")
    by_emit = Tracer(RingBufferSink(capacity=RECORDS_PER_KIND))
    by_emitter = Tracer(RingBufferSink(capacity=RECORDS_PER_KIND))
    for _ in range(RECORDS_PER_KIND):
        time, key, data = random_record(rng)
        by_emit.emit(kind, time, key=key, **data)
        if key is None:
            by_emitter.emitter(kind, *data)(time, *data.values())
        else:
            by_emitter.emitter(kind, "key", *data)(time, key, *data.values())
    assert_same_records(by_emit, by_emitter)


def test_one_field_set_with_changing_value_types():
    by_emit, by_emitter = Tracer(), Tracer()
    emit = by_emitter.emitter(EventKind.SEND, "key", "attempt")
    values = [1, 2.5, "x", True, None, 2**70, math.nan, np.float64(0.1), -0.0, 7]
    for attempt in values:
        for time in (0.5, 3, math.inf):
            by_emit.emit(EventKind.SEND, time, key=1, attempt=attempt)
            emit(time, 1, attempt)
    assert_same_records(by_emit, by_emitter)


def test_digest_covers_records_a_wrapped_ring_evicted():
    # Lines are hashed in batches, from emit and emitters alike; the
    # digest still covers all of them.
    tracer = Tracer(RingBufferSink(capacity=10))
    ack = tracer.emitter(EventKind.ACK, "key", "rtt_s")
    emitted = []
    for index in range(1000):
        if index % 3:
            ack(index * 0.25, index, 0.1 * index)
        else:
            tracer.emit(EventKind.ACK, index * 0.25, key=index, rtt_s=0.1 * index)
        emitted.append({"kind": EventKind.ACK, "t": index * 0.25, "key": index,
                        "rtt_s": 0.1 * index})
        if index in (0, 255, 256, 257, 999):
            assert tracer.digest() == trace_digest(emitted)
    assert tracer.count == 1000


#: The emitters the per-message emission sites bind, with a value for each field.
EMITTERS = [
    (EventKind.SEND, {"key": int, "attempt": int}),
    (EventKind.ACK, {"key": int, "rtt_s": float}),
    (EventKind.APPEND, {"key": int, "broker": str, "offset": int}),
    (EventKind.TRANSITION, {"key": int, "edge": str, "from": str, "to": str}),
    (EventKind.RETRANSMIT,
     {"direction": str, "message_id": int, "segment": int, "attempt": int}),
]


@pytest.mark.parametrize("kind, types", EMITTERS, ids=[kind for kind, _ in EMITTERS])
def test_emitter_records_what_emit_records(kind, types):
    rng = random.Random(f"trace-emitter-{kind}")
    by_emit, by_emitter = Tracer(), Tracer()
    emit = by_emitter.emitter(kind, *types)
    for _ in range(RECORDS_PER_KIND):
        time = random_float(rng)
        # Mostly the values the site passes, sometimes anything else.
        values = {
            name: random_value(rng) if rng.random() < 0.3 else
            {int: rng.randint(-(2**70), 2**70), float: random_float(rng),
             str: rng.choice(["ready", 'q"\\', "é"])}[cls]
            for name, cls in types.items()
        }
        if "key" in values and values["key"] is None:
            values["key"] = 0  # emit leaves a None key out of the record
        by_emit.emit(kind, time, **values)
        emit(time, *values.values())
    assert_same_records(by_emit, by_emitter)

