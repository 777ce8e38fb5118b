"""The tracker's packed per-key code against the reference state machine.

:class:`DeliveryTracker` keeps one byte per message instead of a
:class:`MessageStateMachine`.  Over every walk of up to six Fig. 2 edges —
each legal walk and each walk that ends in an illegal edge — the code
must agree with the reference model on the state, the Table I case,
``persisted`` and where (and with which message) ``IllegalTransition`` is
raised.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.kafka.state import (
    IllegalTransition,
    MessageState,
    MessageStateMachine,
    Transition,
)
from repro.testbed import DeliveryTracker

MAX_EDGES = 6
EDGES = tuple(Transition)


def walks() -> Tuple[List[Tuple[Transition, ...]], List[Tuple[Transition, ...]]]:
    """Every legal walk, and every legal walk extended by one illegal edge."""
    legal: List[Tuple[Transition, ...]] = [()]
    illegal: List[Tuple[Transition, ...]] = []
    frontier = legal
    for _ in range(MAX_EDGES):
        grown = []
        for walk in frontier:
            for edge in EDGES:
                try:
                    replay(walk + (edge,))
                except IllegalTransition:
                    illegal.append(walk + (edge,))
                else:
                    grown.append(walk + (edge,))
        legal = legal + grown
        frontier = grown
    return legal, illegal


def replay(walk) -> MessageStateMachine:
    machine = MessageStateMachine()
    for edge in walk:
        machine.apply(edge)
    return machine


def tracked(walk) -> DeliveryTracker:
    """A tracker whose message 0 took ``walk`` through the code table."""
    tracker = DeliveryTracker()
    tracker._seen(0)
    for edge in walk:
        tracker._apply(0, tracker._codes[0], EDGES.index(edge))
    return tracker


LEGAL, ILLEGAL = walks()


def test_walks_cover_every_state_and_edge():
    assert len(LEGAL) > 50 and len(ILLEGAL) > 50
    assert {replay(walk).state for walk in LEGAL} == set(MessageState)
    assert {walk[-1] for walk in ILLEGAL} == set(EDGES)
    assert max(len(walk) for walk in LEGAL) == MAX_EDGES


def test_legal_walks_match_the_reference():
    for walk in LEGAL:
        machine = replay(walk)
        tracker = tracked(walk)
        assert tracker.state(0) is machine.state, walk
        assert tracker.persisted(0) is machine.persisted, walk
        census = tracker.census()
        if machine.state is MessageState.READY:
            expected = (1, {})
        else:
            expected = (0, {machine.classify_case(): 1})
        assert (census.unresolved, census.case_counts) == expected, walk
        lost_persisted = machine.state is MessageState.LOST and machine.persisted
        assert tracker.persisted_but_unacked() == int(lost_persisted), walk


def test_illegal_walks_raise_the_reference_error():
    for walk in ILLEGAL:
        *prefix, edge = walk
        with pytest.raises(IllegalTransition) as expected:
            replay(prefix).apply(edge)
        tracker = tracked(prefix)
        code = tracker._codes[0]
        with pytest.raises(IllegalTransition) as raised:
            tracker._apply(0, code, EDGES.index(edge))
        assert str(raised.value) == str(expected.value), walk
        assert tracker._codes[0] == code  # the failed edge changed nothing
