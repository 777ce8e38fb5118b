"""NetEm-style fault injection for the simulated link.

In the paper's testbed, network faults (extra delay, packet loss) are
injected with the Linux NetEm emulator while the producer runs, and removed
before the consumer reconciles the topic.  :class:`FaultInjector` plays the
same role for a simulated :class:`~repro.network.link.Link`: it installs
delay/loss treatments on both directions, can be rescheduled mid-run, and
restores the baseline treatments on :meth:`clear`.

It also implements the paper's future-work scenario of broker failures:
:meth:`crash_broker` / :meth:`restore_broker` toggle a broker's availability
through a callback interface so the Kafka substrate does not depend on this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

from ..observability.trace import EventKind
from ..simulation.simulator import Simulator
from .latency import ConstantLatency, LatencyModel, UniformLatency
from .link import Link
from .loss import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss

__all__ = ["NetworkFault", "FaultInjector"]


class _TracedLoss(LossModel):
    """Wraps a Gilbert–Elliott chain and traces its state flips.

    Pure observation: delegates sampling to the wrapped model (consuming
    exactly the same RNG stream) and emits a ``channel_state`` record
    whenever the chain changes state, so traces show the loss bursts the
    dynamic-configuration controller is reacting to.  Installed only when
    tracing is enabled.
    """

    def __init__(self, inner: GilbertElliottLoss, tracer, clock, direction: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._clock = clock
        self._direction = direction

    def is_lost(self, rng) -> bool:
        before = self._inner.state
        lost = self._inner.is_lost(rng)
        after = self._inner.state
        if after != before:
            self._tracer.emit(
                EventKind.CHANNEL_STATE,
                self._clock.now,
                direction=self._direction,
                state="bad" if after == GilbertElliottLoss.BAD else "good",
            )
        return lost

    def expected_loss_rate(self) -> float:
        return self._inner.expected_loss_rate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_TracedLoss({self._inner!r})"


@dataclass
class NetworkFault:
    """A NetEm-style treatment description.

    Attributes
    ----------
    delay_s:
        Extra one-way propagation delay (NetEm ``delay``).
    loss_rate:
        Independent per-packet loss probability (NetEm ``loss``).
    jitter_s:
        Optional uniform jitter added to ``delay_s``.
    bursty:
        When True, ``loss_rate`` is realised through a Gilbert–Elliott chain
        with the given mean instead of independent Bernoulli drops.
    burst_length:
        Mean number of consecutive packets lost per bad burst (only used
        when ``bursty``).
    """

    delay_s: float = 0.0
    loss_rate: float = 0.0
    jitter_s: float = 0.0
    bursty: bool = False
    burst_length: float = 4.0

    def __post_init__(self) -> None:
        for name in ("delay_s", "loss_rate", "jitter_s", "burst_length"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")
        if self.jitter_s < 0:
            raise ValueError(f"jitter_s must be non-negative, got {self.jitter_s}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(
                f"loss_rate must be in [0, 1) — a rate of 1 would sever the "
                f"link forever; got {self.loss_rate}"
            )
        if self.burst_length < 1.0:
            raise ValueError(
                f"burst_length is a mean burst of consecutive packets and "
                f"must be >= 1, got {self.burst_length}"
            )

    def build_latency(self) -> LatencyModel:
        """Materialise the delay treatment as a latency model."""
        if self.jitter_s > 0:
            return UniformLatency(self.delay_s, min(self.jitter_s, self.delay_s))
        return ConstantLatency(self.delay_s)

    def build_loss(self) -> LossModel:
        """Materialise the loss treatment as a loss model."""
        if self.loss_rate == 0.0:
            return NoLoss()
        if not self.bursty:
            return BernoulliLoss(self.loss_rate)
        # Choose Gilbert-Elliott parameters with the requested stationary
        # loss rate and mean burst length: pi_bad = loss_rate (loss_bad=1),
        # mean bad sojourn = burst_length packets.  Extreme rates saturate
        # the chain (p_good_to_bad capped at 1); the residual loss is then
        # carried by the good state so the stationary rate still matches.
        p_bad_to_good = 1.0 / self.burst_length
        pi_bad = self.loss_rate
        p_good_to_bad = min(
            1.0, p_bad_to_good * pi_bad / max(1e-12, (1.0 - pi_bad))
        )
        achieved_pi = p_good_to_bad / (p_good_to_bad + p_bad_to_good)
        loss_good = 0.0
        if achieved_pi < pi_bad - 1e-12:
            loss_good = (pi_bad - achieved_pi) / (1.0 - achieved_pi)
        return GilbertElliottLoss(
            p_good_to_bad=p_good_to_bad,
            p_bad_to_good=p_bad_to_good,
            loss_good=loss_good,
            loss_bad=1.0,
        )


class FaultInjector:
    """Applies and removes network faults on a link, NetEm style.

    Parameters
    ----------
    sim:
        The simulator (used for scheduled injections).
    link:
        The producer↔cluster link to manipulate; a fault treats both of
        its directions, as NetEm on the shared bridge does.
    tracer:
        Optional run tracer; when attached, faults, broker crashes and
        Gilbert–Elliott state flips are traced.

    Attributes
    ----------
    injected:
        How many faults :meth:`inject` applied.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        tracer=None,
    ) -> None:
        self._sim = sim
        self._link = link
        self._baseline_latency = (link.forward.latency, link.reverse.latency)
        self._baseline_loss = (link.forward.loss, link.reverse.loss)
        self._broker_callbacks: List[Callable[[str, bool], None]] = []
        self._tracer = tracer
        self.injected = 0

    def _build_loss(self, fault: NetworkFault, direction: str) -> LossModel:
        """Materialise the fault's loss model, traced when a tracer is attached."""
        loss = fault.build_loss()
        if self._tracer is not None and isinstance(loss, GilbertElliottLoss):
            return _TracedLoss(loss, self._tracer, self._sim, direction)
        return loss

    def inject(self, fault: NetworkFault) -> None:
        """Apply ``fault`` immediately (replacing any active fault)."""
        self.injected += 1
        if self._tracer is not None:
            self._tracer.emit(
                EventKind.FAULT,
                self._sim.now,
                action="inject",
                delay_s=fault.delay_s,
                loss_rate=fault.loss_rate,
                bursty=fault.bursty,
            )
        self._link.forward.latency = fault.build_latency()
        self._link.forward.loss = self._build_loss(fault, "forward")
        self._link.reverse.latency = fault.build_latency()
        # Separate loss-model instance: stateful chains must not be
        # shared between directions.
        self._link.reverse.loss = self._build_loss(fault, "reverse")

    def inject_at(self, time: float, fault: NetworkFault) -> None:
        """Schedule ``fault`` to be applied at absolute simulated time."""
        self._sim.schedule_at(time, self.inject, fault)

    def clear(self) -> None:
        """Restore the baseline (pre-fault) treatments."""
        if self._tracer is not None:
            self._tracer.emit(EventKind.FAULT, self._sim.now, action="clear")
        self._link.forward.latency, self._link.reverse.latency = self._baseline_latency
        self._link.forward.loss, self._link.reverse.loss = self._baseline_loss

    def clear_at(self, time: float) -> None:
        """Schedule :meth:`clear` at absolute simulated time."""
        self._sim.schedule_at(time, self.clear)

    # ----------------------------------------------------- broker failures

    def on_broker_availability(self, callback: Callable[[str, bool], None]) -> None:
        """Register ``callback(broker_id, available)`` for crash/restore."""
        self._broker_callbacks.append(callback)

    def crash_broker(self, broker_id: str) -> None:
        """Mark a broker as failed; the cluster stops serving from it."""
        if self._tracer is not None:
            self._tracer.emit(
                EventKind.FAULT, self._sim.now, action="crash_broker", broker=broker_id
            )
        for callback in self._broker_callbacks:
            callback(broker_id, False)

    def restore_broker(self, broker_id: str) -> None:
        """Bring a crashed broker back."""
        if self._tracer is not None:
            self._tracer.emit(
                EventKind.FAULT, self._sim.now, action="restore_broker", broker=broker_id
            )
        for callback in self._broker_callbacks:
            callback(broker_id, True)

    def crash_broker_at(self, time: float, broker_id: str) -> None:
        """Schedule a broker crash."""
        self._sim.schedule_at(time, self.crash_broker, broker_id)

    def restore_broker_at(self, time: float, broker_id: str) -> None:
        """Schedule a broker restore."""
        self._sim.schedule_at(time, self.restore_broker, broker_id)
