"""Omniscient per-message delivery tracking.

The testbed watches both ends of the pipe — the producer's view (send
attempts, acknowledgements, give-ups) and the cluster's ground truth
(appends) — and walks every message through the Fig. 2 transitions.  The
resulting Table I case census is cross-checked against consumer
reconciliation by the experiment runner.

Per-message state is one byte per record key (record keys are dense
per-simulator integers from 0): a 2-bit Fig. 2 state plus flags for
"seen", "at least one edge", "more than one edge", "persisted" and
"acknowledged".  That is all :meth:`MessageStateMachine.classify_case`
and :attr:`MessageStateMachine.persisted` read of a history, so one table
derived from :data:`repro.kafka.state._EDGES` drives every transition,
and the census counts codes (``bytearray.count``) instead of walking
objects.  :class:`MessageStateMachine` stays the reference model the code
table is tested against.

Every applied transition is counted per edge
(:attr:`DeliveryTracker.edge_counts`, which the run manifest's
``transitions.*`` metrics read).  When a tracer is attached, each one is
also emitted as a ``transition`` trace record (key, edge, source and
target states, simulated time) — the raw material the invariant checker
replays.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..kafka.message import ProducerRecord
from ..kafka.partition import Partition
from ..kafka.producer import ProducerListener
from ..kafka.state import (
    _EDGES,
    DeliveryCase,
    IllegalTransition,
    MessageState,
    Transition,
)
from ..observability.trace import EventKind

__all__ = ["DeliveryTracker", "CaseCensus"]

# ------------------------------------------------------------ code layout

#: Fig. 2 states in code order: the low two bits of a code.
_STATES: Tuple[MessageState, ...] = tuple(MessageState)
_STATE_MASK = 0b11
_SEEN = 1 << 2  #: the tracker has heard of the message
_ANY = 1 << 3  #: at least one edge applied
_MANY = 1 << 4  #: more than one edge applied
_PERSISTED = 1 << 5  #: a copy reached the cluster (Delivered or Duplicated once)
_ACKED = 1 << 6  #: the producer received an acknowledgement
_CODES = 1 << 7

_READY, _DELIVERED, _LOST, _DUPLICATED = range(4)
_I, _II, _III, _IV, _V, _VI = range(6)
_TRANSITIONS: Tuple[Transition, ...] = tuple(Transition)
#: Trace field values per state and per edge.
_STATE_NAMES = tuple(state.value for state in _STATES)
_EDGE_NAMES = tuple(transition.value for transition in _TRANSITIONS)

#: The per-key arrays start with this many slots and double when a key
#: falls outside them, so a small run scans small arrays and a long one
#: grows a few times, never one key at a time.
_MIN_SLOTS = 64
#: Growth appends fixed blocks, never one whole-size temporary: freeing a
#: temporary above glibc's mmap threshold raises that threshold, and the
#: run's other growing arrays then copy inside the heap and fragment it.
_BLOCK = 4096
_ZEROS = bytes(_BLOCK)
_NANS = array("d", [float("nan")]) * _BLOCK


def _next_code(code: int, transition: Transition) -> Optional[int]:
    """The code after ``transition``, or None where it is illegal.

    Mirrors :meth:`MessageStateMachine.apply`: Duplicated is terminal
    except for further VI edges, which only lengthen the history.
    """
    state = _STATES[code & _STATE_MASK]
    source, target = _EDGES[transition]
    if state is MessageState.DUPLICATED:
        if transition is not Transition.VI:
            return None
        target = state
    elif state is not source:
        return None
    flags = (code & ~_STATE_MASK) | _SEEN | _ANY
    if code & _ANY:
        flags |= _MANY
    if target in (MessageState.DELIVERED, MessageState.DUPLICATED):
        flags |= _PERSISTED
    return flags | _STATES.index(target)


#: ``_NEXT[edge][code]``: the code after an edge (I..VI as 0..5).
_NEXT: Tuple[Tuple[Optional[int], ...], ...] = tuple(
    tuple(_next_code(code, transition) for code in range(_CODES))
    for transition in _TRANSITIONS
)


def _case_of(code: int) -> Optional[DeliveryCase]:
    """The Table I case of a resolved code (None while Ready).

    Mirrors :meth:`MessageStateMachine.classify_case`: the only one-edge
    walks are ``[I]`` (Delivered) and ``[II]`` (Lost).
    """
    state = code & _STATE_MASK
    if state == _DUPLICATED:
        return DeliveryCase.CASE5
    if state == _DELIVERED:
        return DeliveryCase.CASE4 if code & _MANY else DeliveryCase.CASE1
    if state == _LOST:
        return DeliveryCase.CASE3 if code & _MANY else DeliveryCase.CASE2
    return None


_CASES: Tuple[Optional[DeliveryCase], ...] = tuple(_case_of(code) for code in range(_CODES))
_SEEN_CODES = tuple(code for code in range(_CODES) if code & _SEEN)


def _illegal(code: int, edge: int) -> IllegalTransition:
    """The error :meth:`MessageStateMachine.apply` raises for this edge."""
    transition = _TRANSITIONS[edge]
    state = _STATES[code & _STATE_MASK]
    if state is MessageState.DUPLICATED:
        return IllegalTransition(f"{transition.value} from terminal state {state.value}")
    source = _EDGES[transition][0]
    return IllegalTransition(
        f"transition {transition.value} requires state {source.value}, "
        f"message is {state.value}"
    )


@dataclass
class CaseCensus:
    """Counts of Table I delivery cases over one experiment."""

    case_counts: Dict[DeliveryCase, int] = field(default_factory=dict)
    unresolved: int = 0

    def total(self) -> int:
        """Messages classified."""
        return sum(self.case_counts.values())

    def fraction(self, case: DeliveryCase) -> float:
        """Share of messages that ended in ``case``."""
        total = self.total()
        return self.case_counts.get(case, 0) / total if total else 0.0

    def as_flat_counts(self) -> Dict[str, int]:
        """``{"case1": n, ...}`` with every Table I case present."""
        return {
            f"case{case.value}": self.case_counts.get(case, 0)
            for case in DeliveryCase
        }


class DeliveryTracker(ProducerListener):
    """Applies Fig. 2 transitions as producer/broker events occur.

    Parameters
    ----------
    retries_allowed:
        Whether the producer's semantics can retry (at-least-once /
        exactly-once).  Under at-most-once the V edge (persisted but
        unacknowledged) does not exist: the producer neither waits for
        acknowledgements nor retries, so a transport-level hiccup after
        the broker persisted the message leaves it simply *Delivered*.
    tracer:
        Optional run tracer; when attached, transitions are traced.

    Attributes
    ----------
    ingest_times:
        Producer-ingest time per record key; NaN for a key never ingested.
    edge_counts:
        How many times each Fig. 2 edge was applied, in
        :class:`~repro.kafka.state.Transition` order (I to VI).
    """

    def __init__(self, retries_allowed: bool = True, tracer=None) -> None:
        self.retries_allowed = retries_allowed
        self._codes = bytearray()
        self.ingest_times = array("d")
        self._clock: Optional[object] = None
        self.edge_counts: List[int] = [0] * len(_TRANSITIONS)
        self._emit_transition = (
            tracer.emitter(EventKind.TRANSITION, "key", "edge", "from", "to")
            if tracer is not None
            else None
        )

    def attach_clock(self, simulator) -> None:
        """Give the tracker access to simulated time (for ingest stamps)."""
        self._clock = simulator

    def _grow(self, key: int) -> None:
        """Extend the per-key arrays past ``key``, at least doubling them."""
        codes, ingest_times = self._codes, self.ingest_times
        size = max(key + 1, 2 * len(codes), _MIN_SLOTS)
        while len(codes) < size:
            step = min(size - len(codes), _BLOCK)
            codes.extend(_ZEROS[:step])
            ingest_times.extend(_NANS[:step])

    def _seen(self, key: int) -> int:
        """Mark ``key`` as seen and return its code."""
        codes = self._codes
        if key >= len(codes):
            self._grow(key)
        code = codes[key] | _SEEN
        codes[key] = code
        return code

    def _apply(self, key: int, code: int, edge: int) -> None:
        """Apply one Fig. 2 edge, count it and record it in the trace."""
        target = _NEXT[edge][code]
        if target is None:
            raise _illegal(code, edge)
        self._codes[key] = target
        self.edge_counts[edge] += 1
        if self._emit_transition is not None:
            self._emit_transition(
                self._clock.now if self._clock is not None else 0.0,
                key,
                _EDGE_NAMES[edge],
                _STATE_NAMES[code & _STATE_MASK],
                _STATE_NAMES[target & _STATE_MASK],
            )

    def _code(self, key: int) -> int:
        """The code of a seen message (KeyError for any other key)."""
        code = self._codes[key] if 0 <= key < len(self._codes) else 0
        if not code & _SEEN:
            raise KeyError(key)
        return code

    def state(self, key: int) -> MessageState:
        """The Fig. 2 state of message ``key`` (KeyError if never seen)."""
        return _STATES[self._code(key) & _STATE_MASK]

    def persisted(self, key: int) -> bool:
        """Whether at least one copy of message ``key`` reached the cluster."""
        return bool(self._code(key) & _PERSISTED)

    # ------------------------------------------------- producer-side view

    def on_ingest(self, record: ProducerRecord) -> None:
        key = record.key
        self._seen(key)
        ingest_time = record.ingest_time
        if ingest_time is not None:
            self.ingest_times[key] = ingest_time

    def on_queue_drop(self, record: ProducerRecord) -> None:
        key = record.key
        code = self._seen(key)
        if code & _STATE_MASK == _READY:
            self._apply(key, code, _II)

    def on_expired(self, record: ProducerRecord, after_send: bool) -> None:
        key = record.key
        code = self._seen(key)
        state = code & _STATE_MASK
        if state == _READY:
            self._apply(key, code, _II)
        elif state == _DELIVERED and self.retries_allowed:
            # Persisted, but the producer gives up for lack of an ack.
            self._apply(key, code, _V)

    def on_attempt_failed(self, record: ProducerRecord, attempt: int) -> None:
        key = record.key
        code = self._seen(key)
        state = code & _STATE_MASK
        if state == _READY:
            self._apply(key, code, _II)
        elif state == _LOST:
            self._apply(key, code, _III)
        elif state == _DELIVERED and self.retries_allowed:
            self._apply(key, code, _V)
        # DUPLICATED is terminal; later failures change nothing.

    def on_acknowledged(self, record: ProducerRecord) -> None:
        key = record.key
        codes = self._codes
        if key >= len(codes):
            self._grow(key)
        code = codes[key]
        if code & _ACKED:
            raise RuntimeError(f"message {key} acknowledged twice")
        codes[key] = code | _ACKED

    # Giving up on a record takes the same edge as dropping it: a message
    # still Ready is lost (II); any other state is the cluster's to change.
    on_perceived_lost = on_queue_drop

    # --------------------------------------------------- cluster's truth

    def on_append(self, record: ProducerRecord, partition: Partition, offset: int) -> None:
        """Cluster append listener: a copy of ``record`` was persisted."""
        key = record.key
        code = self._seen(key)
        state = code & _STATE_MASK
        if state == _READY:
            self._apply(key, code, _I)
        elif state == _LOST:
            self._apply(key, code, _VI if code & _PERSISTED else _IV)
        elif state == _DELIVERED:
            # A retransmitted request persisted again before the producer
            # noticed anything wrong: ack-loss race, Fig. 2's V then VI.
            self._apply(key, code, _V)
            self._apply(key, self._codes[key], _VI)
        else:
            self._apply(key, code, _VI)

    # ------------------------------------------------------------ census

    def _code_counts(self) -> List[Tuple[int, int]]:
        """``(code, messages)`` for every code held by a seen message."""
        codes = self._codes
        return [(code, count) for code in _SEEN_CODES if (count := codes.count(code))]

    def census(self) -> CaseCensus:
        """Classify every tracked message into its Table I case."""
        census = CaseCensus()
        counts: Dict[DeliveryCase, int] = {}
        for code, count in self._code_counts():
            case = _CASES[code]
            if case is None:
                census.unresolved += count
            else:
                counts[case] = counts.get(case, 0) + count
        census.case_counts = {case: counts[case] for case in DeliveryCase if case in counts}
        return census

    def persisted_but_unacked(self) -> int:
        """Messages the producer believes lost that the cluster holds once.

        These diverge from the paper's producer-view Case 3: consumer
        reconciliation counts them as delivered.
        """
        return sum(
            count
            for code, count in self._code_counts()
            if code & _STATE_MASK == _LOST and code & _PERSISTED
        )
