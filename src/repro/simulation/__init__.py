"""Discrete-event simulation kernel.

The kernel provides a deterministic virtual clock that owns its event heap
(:class:`Simulator`) and reproducible named random streams
(:class:`RngRegistry`).  Every other subsystem in this repository -- the
network substrate, the Kafka cluster, the testbed -- is a set of components
scheduled on one shared :class:`Simulator`.
"""

from .random import RandomStream, RngRegistry
from .simulator import Event, SimulationError, Simulator

__all__ = [
    "Event",
    "RandomStream",
    "RngRegistry",
    "SimulationError",
    "Simulator",
]
