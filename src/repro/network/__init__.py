"""Simulated network substrate (the Docker bridge + NetEm analogue).

Provides the finite-capacity duplex :class:`Link`, latency models
(including the Pareto model of the paper's dynamic experiment), loss models
(Bernoulli and Gilbert-Elliott), a TCP-like :class:`ReliableChannel`, the
NetEm-style :class:`FaultInjector` and time-varying :class:`NetworkTrace`
generation (paper Fig. 9).
"""

from .faults import FaultInjector, NetworkFault
from .latency import (
    ConstantLatency,
    LatencyModel,
    ParetoLatency,
    UniformLatency,
)
from .link import FORWARD, REVERSE, Link, LinkDirection, LinkStats
from .loss import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss
from .packet import ACK_PACKET_BYTES, DEFAULT_MTU, Packet, PacketKind, WIRE_HEADER_BYTES
from .trace import (
    GilbertElliottRateProcess,
    NetworkTrace,
    TracePoint,
    generate_paper_trace,
)
from .transport import ReliableChannel, SendFailure, TransportStats

__all__ = [
    "FaultInjector",
    "NetworkFault",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "ParetoLatency",
    "Link",
    "LinkDirection",
    "LinkStats",
    "FORWARD",
    "REVERSE",
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "Packet",
    "PacketKind",
    "WIRE_HEADER_BYTES",
    "ACK_PACKET_BYTES",
    "DEFAULT_MTU",
    "NetworkTrace",
    "TracePoint",
    "GilbertElliottRateProcess",
    "generate_paper_trace",
    "ReliableChannel",
    "SendFailure",
    "TransportStats",
]
