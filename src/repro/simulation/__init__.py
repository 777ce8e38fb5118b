"""Discrete-event simulation kernel.

The kernel provides a deterministic virtual clock (:class:`Simulator`) and
reproducible named random streams (:class:`RngRegistry`).  Every other
subsystem in this repository -- the network substrate, the Kafka cluster,
the testbed -- is a set of components scheduled on one shared
:class:`Simulator`.
"""

from .events import Event, EventQueue, HIGH_PRIORITY, LOW_PRIORITY, NORMAL_PRIORITY
from .random import RandomStream, RngRegistry
from .simulator import SimulationError, Simulator

__all__ = [
    "Event",
    "EventQueue",
    "HIGH_PRIORITY",
    "NORMAL_PRIORITY",
    "LOW_PRIORITY",
    "RandomStream",
    "RngRegistry",
    "SimulationError",
    "Simulator",
]
