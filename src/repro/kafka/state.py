"""The message state machine of paper Fig. 2 and Table I.

A message moves between four states — *Ready to be sent*, *Delivered*,
*Lost* and *Duplicated* — through six transitions:

====  =============================  ==========================================
 #    Edge                           Meaning
====  =============================  ==========================================
 I    Ready → Delivered              initial send persisted on a broker
 II   Ready → Lost                   initial send failed
 III  Lost → Lost                    a retry failed again
 IV   Lost → Delivered               a retry persisted the message
 V    Delivered → Lost               persisted, but the acknowledgement was
                                     lost, so the producer still sees *Lost*
 VI   Lost → Duplicated              a retry re-persisted an already
                                     persisted message
====  =============================  ==========================================

Table I enumerates the five delivery cases as transition orders; Case 1 and
Case 4 are successes, Cases 2/3 are loss failures (`P_l`) and Case 5 is the
duplicate failure (`P_d`).  The table starts Case 5 with an initial failure
(II); the same ack-loss race can equally follow a clean first delivery
(I → V → VI), which we classify as Case 5 as well — the paper's metric
`P_d = P(Case5)` counts exactly the messages that end *Duplicated*.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Tuple

__all__ = ["MessageState", "Transition", "DeliveryCase", "MessageStateMachine", "IllegalTransition"]


class MessageState(Enum):
    """Paper Fig. 2 states."""

    READY = "ready"
    DELIVERED = "delivered"
    LOST = "lost"
    DUPLICATED = "duplicated"


class Transition(Enum):
    """Paper Fig. 2 edges (Roman numerals I–VI)."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"


#: Legal (source state → transition → target state) edges.
_EDGES: Dict[Transition, Tuple[MessageState, MessageState]] = {
    Transition.I: (MessageState.READY, MessageState.DELIVERED),
    Transition.II: (MessageState.READY, MessageState.LOST),
    Transition.III: (MessageState.LOST, MessageState.LOST),
    Transition.IV: (MessageState.LOST, MessageState.DELIVERED),
    Transition.V: (MessageState.DELIVERED, MessageState.LOST),
    Transition.VI: (MessageState.LOST, MessageState.DUPLICATED),
}


class DeliveryCase(Enum):
    """Paper Table I delivery cases."""

    CASE1 = 1  #: success on the initial send
    CASE2 = 2  #: initial send failed, no (successful) retries
    CASE3 = 3  #: all retries failed; message stays Lost
    CASE4 = 4  #: a retry eventually delivered the message
    CASE5 = 5  #: persisted more than once (duplicate failure)

    @property
    def is_success(self) -> bool:
        """Only Case 1 and Case 4 are successful deliveries (Table I)."""
        return self in (DeliveryCase.CASE1, DeliveryCase.CASE4)

    @property
    def is_loss_failure(self) -> bool:
        """Cases contributing to the probability of message loss P_l."""
        return self in (DeliveryCase.CASE2, DeliveryCase.CASE3)

    @property
    def is_duplicate_failure(self) -> bool:
        """The case contributing to the probability of duplication P_d."""
        return self is DeliveryCase.CASE5


# An enum member lookup such as ``MessageState.READY`` goes through the enum
# metaclass (about 0.14 µs on Python 3.11, ten times a module global), and
# the trace replay runs the methods below for every transition record, so
# they read these.
_READY = MessageState.READY
_DELIVERED = MessageState.DELIVERED
_LOST = MessageState.LOST
_DUPLICATED = MessageState.DUPLICATED
_ONLY_I = [Transition.I]
_ONLY_II = [Transition.II]
_VI = Transition.VI
_CASE1, _CASE2, _CASE3, _CASE4, _CASE5 = (
    DeliveryCase.CASE1,
    DeliveryCase.CASE2,
    DeliveryCase.CASE3,
    DeliveryCase.CASE4,
    DeliveryCase.CASE5,
)


class IllegalTransition(RuntimeError):
    """Raised when a transition is applied from the wrong state."""


class MessageStateMachine:
    """Tracks one message's walk through the Fig. 2 state diagram.

    The reference model of a message's walk: the testbed's tracker packs
    what :meth:`classify_case` and :attr:`persisted` read of a history into
    one byte per message and is tested against this class, and the trace
    replay re-walks every traced transition through one of these per key.
    A plain ``__slots__`` class, since the replay builds one per message.
    """

    __slots__ = ("state", "history")

    def __init__(self) -> None:
        self.state = _READY
        self.history: List[Transition] = []

    def apply(self, transition: Transition) -> MessageState:
        """Apply ``transition``; raises :class:`IllegalTransition` if illegal.

        A message that reached ``DUPLICATED`` stays there: further duplicate
        retries (the paper's ``τ_d · VI``) are recorded but do not move the
        state.
        """
        source, target = _EDGES[transition]
        if self.state is _DUPLICATED:
            if transition is _VI:
                self.history.append(transition)
                return self.state
            raise IllegalTransition(
                f"{transition.value} from terminal state {self.state.value}"
            )
        if self.state is not source:
            raise IllegalTransition(
                f"transition {transition.value} requires state {source.value}, "
                f"message is {self.state.value}"
            )
        self.state = target
        self.history.append(transition)
        return self.state

    @property
    def retry_count(self) -> int:
        """τ_r: number of retry attempts recorded (III and IV edges)."""
        return sum(
            1 for t in self.history if t in (Transition.III, Transition.IV)
        )

    @property
    def duplicate_count(self) -> int:
        """τ_d: number of duplicating retries (VI edges)."""
        return sum(1 for t in self.history if t is Transition.VI)

    def classify_case(self) -> DeliveryCase:
        """Map the recorded history to the paper's Table I case."""
        state = self.state
        if state is _DUPLICATED:
            return _CASE5
        if state is _DELIVERED:
            return _CASE1 if self.history == _ONLY_I else _CASE4
        if state is _LOST:
            return _CASE2 if self.history == _ONLY_II else _CASE3
        raise ValueError("message never left the Ready state; no case applies")

    @property
    def persisted(self) -> bool:
        """Whether at least one copy reached the cluster."""
        return self.state in (MessageState.DELIVERED, MessageState.DUPLICATED) or any(
            t in (Transition.I, Transition.IV) for t in self.history
        )
