"""Omniscient per-message delivery tracking.

The testbed watches both ends of the pipe — the producer's view (send
attempts, acknowledgements, give-ups) and the cluster's ground truth
(appends) — and drives one :class:`MessageStateMachine` per message
through the Fig. 2 transitions.  The resulting Table I case census is
cross-checked against consumer reconciliation by the experiment runner.

When a :class:`~repro.observability.telemetry.RunTelemetry` is attached,
every applied transition is emitted as a ``transition`` trace record
(key, edge, source and target states, simulated time) and counted in the
metrics registry — the raw material the invariant checker replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..kafka.message import ProducerRecord
from ..kafka.partition import Partition
from ..kafka.producer import ProducerListener
from ..kafka.state import DeliveryCase, MessageState, MessageStateMachine, Transition
from ..observability.trace import EventKind

__all__ = ["DeliveryTracker", "CaseCensus"]

# The callbacks below run for every simulated message; an enum member
# lookup (``MessageState.READY``) costs about ten module-global reads on
# Python 3.11, so they read these bindings.
_READY = MessageState.READY
_DELIVERED = MessageState.DELIVERED
_LOST = MessageState.LOST
_DUPLICATED = MessageState.DUPLICATED
_I, _II, _III, _IV, _V, _VI = (
    Transition.I,
    Transition.II,
    Transition.III,
    Transition.IV,
    Transition.V,
    Transition.VI,
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
    telemetry:
        Optional run telemetry; when attached, transitions are traced and
        counted.
    """

    def __init__(self, retries_allowed: bool = True, telemetry=None) -> None:
        self.retries_allowed = retries_allowed
        self.machines: Dict[int, MessageStateMachine] = {}
        self.ingest_times: Dict[int, float] = {}
        self.ack_latencies: Dict[int, float] = {}
        self._clock: Optional[object] = None
        self._tracer = telemetry.tracer if telemetry is not None else None
        self._metrics = telemetry.metrics if telemetry is not None else None

    def attach_clock(self, simulator) -> None:
        """Give the tracker access to simulated time (for ingest stamps)."""
        self._clock = simulator

    def _machine(self, record: ProducerRecord) -> MessageStateMachine:
        machine = self.machines.get(record.key)
        if machine is None:
            machine = MessageStateMachine()
            self.machines[record.key] = machine
        return machine

    def _apply(self, key: int, machine: MessageStateMachine, transition: Transition) -> None:
        """Apply one Fig. 2 edge and record it in the telemetry stream."""
        source = machine.state
        machine.apply(transition)
        if self._metrics is not None:
            self._metrics.counter(f"transitions.{transition.value}").inc()
        if self._tracer is not None:
            now = self._clock.now if self._clock is not None else 0.0
            self._tracer.emit(
                EventKind.TRANSITION,
                now,
                key=key,
                edge=transition.value,
                **{"from": source.value, "to": machine.state.value},
            )

    # ------------------------------------------------- producer-side view

    def on_ingest(self, record: ProducerRecord) -> None:
        key = record.key
        if key not in self.machines:
            self.machines[key] = MessageStateMachine()
        if record.ingest_time is not None:
            self.ingest_times[key] = record.ingest_time

    def on_queue_drop(self, record: ProducerRecord) -> None:
        machine = self._machine(record)
        if machine.state is _READY:
            self._apply(record.key, machine, _II)

    def on_expired(self, record: ProducerRecord, after_send: bool) -> None:
        machine = self._machine(record)
        if machine.state is _READY:
            self._apply(record.key, machine, _II)
        elif machine.state is _DELIVERED and self.retries_allowed:
            # Persisted, but the producer gives up for lack of an ack.
            self._apply(record.key, machine, _V)

    def on_attempt_failed(self, record: ProducerRecord, attempt: int) -> None:
        machine = self._machine(record)
        if machine.state is _READY:
            self._apply(record.key, machine, _II)
        elif machine.state is _LOST:
            self._apply(record.key, machine, _III)
        elif machine.state is _DELIVERED and self.retries_allowed:
            self._apply(record.key, machine, _V)
        # DUPLICATED is terminal; later failures change nothing.

    def on_acknowledged(self, record: ProducerRecord, rtt_s: float) -> None:
        self.ack_latencies[record.key] = rtt_s

    def on_perceived_lost(self, record: ProducerRecord) -> None:
        machine = self._machine(record)
        if machine.state is _READY:
            self._apply(record.key, machine, _II)

    # --------------------------------------------------- cluster's truth

    def on_append(self, record: ProducerRecord, partition: Partition, offset: int) -> None:
        """Cluster append listener: a copy of ``record`` was persisted."""
        machine = self._machine(record)
        state = machine.state
        if state is _READY:
            self._apply(record.key, machine, _I)
        elif state is _LOST:
            if machine.persisted:
                self._apply(record.key, machine, _VI)
            else:
                self._apply(record.key, machine, _IV)
        elif state is _DELIVERED:
            # A retransmitted request persisted again before the producer
            # noticed anything wrong: ack-loss race, Fig. 2's V then VI.
            self._apply(record.key, machine, _V)
            self._apply(record.key, machine, _VI)
        elif state is _DUPLICATED:
            self._apply(record.key, machine, _VI)

    # ------------------------------------------------------------ census

    def census(self) -> CaseCensus:
        """Classify every tracked message into its Table I case."""
        census = CaseCensus()
        for machine in self.machines.values():
            if machine.state is _READY:
                census.unresolved += 1
                continue
            case = machine.classify_case()
            census.case_counts[case] = census.case_counts.get(case, 0) + 1
        return census

    def persisted_but_unacked(self) -> int:
        """Messages the producer believes lost that the cluster holds once.

        These diverge from the paper's producer-view Case 3: consumer
        reconciliation counts them as delivered.
        """
        return sum(
            1
            for machine in self.machines.values()
            if machine.state is _LOST and machine.persisted
        )
