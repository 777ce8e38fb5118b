"""A finite-capacity duplex link with queueing, delay and loss treatments.

This is the simulated analogue of the Docker bridge network plus NetEm in
the paper's testbed.  Each direction serialises packets FIFO at a fixed
capacity (transmission time = size / capacity), applies a propagation-delay
model and a loss model per packet, and tail-drops packets once the queueing
backlog exceeds a bound — which is what turns overload into the loss and
latency explosions behind the paper's Figs. 4–7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..simulation.random import Rng
from ..simulation.simulator import Simulator
from .latency import ConstantLatency, LatencyModel
from .loss import LossModel, NoLoss
from .packet import Packet

__all__ = ["LinkDirection", "LinkStats", "Link", "SharedCapacity", "FORWARD", "REVERSE"]

#: Producer → cluster direction.
FORWARD = "forward"
#: Cluster → producer direction.
REVERSE = "reverse"

#: Default link capacity: 100 Mbit/s expressed in bytes per second, a
#: typical Docker bridge throughput once NetEm is attached.
DEFAULT_CAPACITY_BPS = 100e6 / 8

#: Default bound on queueing delay before tail drop (seconds).  Roughly a
#: 256 KiB interface buffer at the default capacity.
DEFAULT_MAX_QUEUE_DELAY_S = 0.25


class SharedCapacity:
    """A serialisation resource shared by both directions of a link.

    The paper's testbed runs producer and brokers as containers on one
    Docker bridge: every packet in either direction crosses the same
    virtual switch (and the same NetEm qdisc), so acknowledgement and
    response traffic genuinely *preempts* bandwidth from fresh data — the
    contention mechanism the paper cites to explain Fig. 4.  Directions
    that share one of these objects serialise through a single queue.
    """

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until = 0.0


@dataclass
class LinkStats:
    """Per-direction packet counters."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_queue: int = 0
    bytes_sent: int = 0

    @property
    def dropped(self) -> int:
        """Total packets dropped for any reason."""
        return self.dropped_loss + self.dropped_queue


class LinkDirection:
    """One direction of a duplex link: its treatment and counters.

    :meth:`Link.send` moves packets through it.

    Parameters
    ----------
    rng:
        Random stream used for delay and loss sampling.
    shared:
        The link's serialisation resource, shared with the other direction.
    capacity_bps:
        Serialisation capacity in **bytes per second**.
    latency:
        Propagation-delay model applied after transmission.
    loss:
        Per-packet loss model (applied after transmission, i.e. lost packets
        still consume sender bandwidth — as on a real wire).
    max_queue_delay_s:
        Backlog bound; a packet arriving when the queue already implies more
        than this much waiting is tail-dropped without consuming capacity.
    """

    def __init__(
        self,
        rng: Rng,
        shared: SharedCapacity,
        capacity_bps: float = DEFAULT_CAPACITY_BPS,
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
        max_queue_delay_s: float = DEFAULT_MAX_QUEUE_DELAY_S,
    ) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        if max_queue_delay_s <= 0:
            raise ValueError("max_queue_delay_s must be positive")
        self._rng = rng
        self.capacity_bps = float(capacity_bps)
        self.latency = latency if latency is not None else ConstantLatency(0.0005)
        self.loss = loss if loss is not None else NoLoss()
        self.max_queue_delay_s = float(max_queue_delay_s)
        self._shared = shared
        self.stats = LinkStats()

    @property
    def latency(self) -> LatencyModel:
        """Propagation-delay model; assigning one installs a new treatment."""
        return self._latency

    @latency.setter
    def latency(self, model: LatencyModel) -> None:
        self._latency = model
        # A constant delay is read inline by ``Link.send``; only jittered
        # and Pareto models are sampled per packet.
        self._delay = model.delay_s if type(model) is ConstantLatency else None

    @property
    def loss(self) -> LossModel:
        """Per-packet loss model; assigning one installs a new treatment."""
        return self._loss

    @loss.setter
    def loss(self, model: LossModel) -> None:
        self._loss = model
        # A memoryless model's draw is made inline by ``Link.send``.
        self._loss_rate = model.independent_rate()


class Link:
    """A link between a producer host and the cluster.

    The two directions share one serialisation resource (the Docker-bridge
    model — see :class:`SharedCapacity`) but keep independent treatment
    (latency/loss) settings, so a fault injector can apply asymmetric
    treatments; the default applies the same treatment both ways, matching
    NetEm on the bridge.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: Rng,
        capacity_bps: float = DEFAULT_CAPACITY_BPS,
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
        max_queue_delay_s: float = DEFAULT_MAX_QUEUE_DELAY_S,
    ) -> None:
        self._sim = sim
        shared = SharedCapacity()
        self.forward = LinkDirection(
            rng, shared, capacity_bps, latency, loss, max_queue_delay_s
        )
        # Both directions start with the same ``latency`` and ``loss``
        # objects, so a stateful loss model passed here is one
        # Gilbert-Elliott chain whose burst phases both directions share.
        # ``FaultInjector.inject`` builds one loss model per direction;
        # assign ``reverse.loss`` to decouple them by hand.
        self.reverse = LinkDirection(
            rng, shared, capacity_bps, latency, loss, max_queue_delay_s
        )
        self._directions = {FORWARD: self.forward, REVERSE: self.reverse}

    def direction(self, name: str) -> LinkDirection:
        """Return the direction object for ``FORWARD`` or ``REVERSE``."""
        try:
            return self._directions[name]
        except KeyError:
            raise ValueError(f"unknown direction {name!r}") from None

    def send(
        self, packet: Packet, direction: str, on_arrival: Callable[[Packet], None]
    ) -> bool:
        """Offer ``packet`` to ``direction``.

        Returns True if the packet was accepted onto the queue (it may still
        be lost on the wire); False if it was tail-dropped for backlog.
        ``on_arrival`` runs at the receiver when and if the packet arrives.
        """
        try:
            lane = self._directions[direction]
        except KeyError:
            raise ValueError(f"unknown direction {direction!r}") from None
        sim = self._sim
        now = sim.now
        shared = lane._shared
        busy_until = shared.busy_until
        stats = lane.stats
        if busy_until - now > lane.max_queue_delay_s:
            stats.dropped_queue += 1
            return False
        size = packet.size_bytes
        depart = (busy_until if busy_until > now else now) + size / lane.capacity_bps
        shared.busy_until = depart
        stats.sent += 1
        stats.bytes_sent += size
        rng = lane._rng
        rate = lane._loss_rate
        if rate is None:
            lost = lane._loss.is_lost(rng)
        else:
            # Exactly the draws of BernoulliLoss/NoLoss.is_lost.
            lost = rate != 0.0 and rng.random() < rate
        if lost:
            stats.dropped_loss += 1
            return True
        stats.delivered += 1
        delay = lane._delay
        if delay is None:
            delay = lane._latency.sample(rng)
        sim.schedule_at(depart + delay, on_arrival, packet)
        return True
