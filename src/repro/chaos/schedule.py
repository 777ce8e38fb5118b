"""Composable, seeded chaos schedules for the simulated testbed.

A schedule is a sequence of *phases*; each phase is an isolated testbed
experiment (fresh cluster, fresh link) with a list of timed fault actions
scheduled into its simulator — NetEm-style treatments through
:class:`~repro.network.faults.FaultInjector` and broker crash/restore
through the same injector's availability callbacks.  Phases compose
freely: the stock builders below produce broker flaps, correlated
Gilbert–Elliott loss bursts, delay spikes and staged escalations, and
:func:`compose` stitches arbitrary phases into new campaigns.

Everything is deterministic: the only randomness is seeded jitter on
action placement, derived by hashing ``(seed, phase, action)`` — the same
seed always yields byte-identical schedules, which is what makes campaign
reports reproducible end to end.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple, Union

from ..network.faults import NetworkFault

__all__ = [
    "ChaosAction",
    "ChaosPhase",
    "ChaosSchedule",
    "baseline_phase",
    "loss_burst_phase",
    "delay_spike_phase",
    "broker_flap_phase",
    "blackout_phase",
    "compose",
    "flap_burst_schedule",
    "staged_escalation_schedule",
]

#: Broker ids of the default three-broker cluster shape.
DEFAULT_BROKERS = ("broker-0", "broker-1", "broker-2")


def _unit(seed: int, *parts: object) -> float:
    """Deterministic jitter in [0, 1) from a seed and a label path."""
    payload = ":".join([str(seed)] + [str(part) for part in parts])
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class ChaosAction:
    """One timed fault action inside a phase.

    Attributes
    ----------
    time_s:
        When to fire, relative to the phase's (experiment's) start.
    kind:
        ``inject_fault`` / ``clear_fault`` (NetEm-style link treatments)
        or ``crash_broker`` / ``restore_broker``.
    fault:
        The treatment to install (required for ``inject_fault``).
    broker_id:
        The broker to crash or restore (required for the broker kinds).
    """

    KINDS = ("inject_fault", "clear_fault", "crash_broker", "restore_broker")

    time_s: float
    kind: str
    fault: Optional[NetworkFault] = None
    broker_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("action time must be non-negative")
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind == "inject_fault" and self.fault is None:
            raise ValueError("inject_fault needs a fault")
        if self.kind in ("crash_broker", "restore_broker") and not self.broker_id:
            raise ValueError(f"{self.kind} needs a broker_id")


@dataclass(frozen=True)
class ChaosPhase:
    """One experiment's worth of a campaign: a named, timed action list."""

    name: str
    duration_s: float
    actions: Tuple[ChaosAction, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("phase needs a name")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        for action in self.actions:
            if action.time_s >= self.duration_s:
                raise ValueError(
                    f"action at {action.time_s}s falls outside the "
                    f"{self.duration_s}s phase {self.name!r}"
                )
        # Chronological order regardless of construction order; stable for
        # equal times so composition stays deterministic.
        object.__setattr__(
            self, "actions", tuple(sorted(self.actions, key=lambda a: a.time_s))
        )

    @property
    def last_recovery_s(self) -> Optional[float]:
        """Time of the last restore/clear action, if the phase recovers."""
        times = [
            action.time_s
            for action in self.actions
            if action.kind in ("restore_broker", "clear_fault")
        ]
        return max(times) if times else None


@dataclass(frozen=True)
class ChaosSchedule:
    """A named campaign: an ordered tuple of phases."""

    name: str
    phases: Tuple[ChaosPhase, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("schedule needs a name")
        if not self.phases:
            raise ValueError("schedule needs at least one phase")

    @property
    def duration_s(self) -> float:
        """Total simulated duration across all phases."""
        return sum(phase.duration_s for phase in self.phases)


# ------------------------------------------------------------- builders


def baseline_phase(duration_s: float = 4.0, name: str = "baseline") -> ChaosPhase:
    """A fault-free phase (warm-up, recovery, control group)."""
    return ChaosPhase(name=name, duration_s=duration_s)


def loss_burst_phase(
    duration_s: float = 5.0,
    loss_rate: float = 0.3,
    burst_length: float = 8.0,
    delay_s: float = 0.05,
    seed: int = 0,
    name: str = "loss-burst",
) -> ChaosPhase:
    """Correlated (Gilbert–Elliott) loss with mild extra delay.

    Onset and clearance are jittered by the seed so different seeds stress
    different parts of the workload, while one seed is fully repeatable.
    """
    onset = 0.2 + 0.4 * _unit(seed, name, "onset")
    clear = duration_s - 0.4 - 0.4 * _unit(seed, name, "clear")
    fault = NetworkFault(
        delay_s=delay_s,
        loss_rate=loss_rate,
        bursty=True,
        burst_length=burst_length,
    )
    return ChaosPhase(
        name=name,
        duration_s=duration_s,
        actions=(
            ChaosAction(time_s=onset, kind="inject_fault", fault=fault),
            ChaosAction(time_s=clear, kind="clear_fault"),
        ),
    )


def delay_spike_phase(
    duration_s: float = 5.0,
    delay_s: float = 0.35,
    jitter_s: float = 0.05,
    spikes: int = 2,
    seed: int = 0,
    name: str = "delay-spike",
) -> ChaosPhase:
    """Repeated latency spikes (inject/clear pairs) across the phase."""
    if spikes < 1:
        raise ValueError("spikes must be >= 1")
    window = duration_s / spikes
    actions = []
    fault = NetworkFault(delay_s=delay_s, jitter_s=jitter_s)
    for spike in range(spikes):
        start = spike * window + 0.1 * window * (1 + _unit(seed, name, spike, "on"))
        stop = start + 0.45 * window * (1 + 0.5 * _unit(seed, name, spike, "off"))
        actions.append(ChaosAction(time_s=start, kind="inject_fault", fault=fault))
        actions.append(ChaosAction(time_s=min(stop, duration_s - 1e-6), kind="clear_fault"))
    return ChaosPhase(
        name=name,
        duration_s=duration_s,
        actions=tuple(actions),
    )


def broker_flap_phase(
    duration_s: float = 6.0,
    broker_ids: Iterable[str] = DEFAULT_BROKERS,
    downtime_s: float = 2.4,
    seed: int = 0,
    name: str = "broker-flap",
) -> ChaosPhase:
    """Crash the given brokers together, restore them ``downtime_s`` later.

    The crash instant carries seeded jitter; the restore always lands
    inside the phase so the experiment observes the recovery.
    """
    headroom = duration_s - downtime_s - 0.2
    if headroom <= 0:
        raise ValueError("downtime_s must leave room inside the phase")
    crash_at = 0.1 + min(0.5, headroom - 0.1) * _unit(seed, name, "crash")
    restore_at = crash_at + downtime_s
    actions = []
    for broker_id in broker_ids:
        actions.append(
            ChaosAction(time_s=crash_at, kind="crash_broker", broker_id=broker_id)
        )
        actions.append(
            ChaosAction(time_s=restore_at, kind="restore_broker", broker_id=broker_id)
        )
    return ChaosPhase(
        name=name,
        duration_s=duration_s,
        actions=tuple(actions),
    )


def blackout_phase(
    duration_s: float = 2.5,
    broker_ids: Iterable[str] = DEFAULT_BROKERS,
    crash_at_s: float = 0.2,
    name: str = "blackout",
) -> ChaosPhase:
    """Crash every given broker and never restore it within the phase.

    The dead-air phase: the producer sends into silence, which is the
    signature the degraded-mode circuit breaker trips on.
    """
    actions = tuple(
        ChaosAction(time_s=crash_at_s, kind="crash_broker", broker_id=broker_id)
        for broker_id in broker_ids
    )
    return ChaosPhase(name=name, duration_s=duration_s, actions=actions)


def compose(
    name: str, *parts: Union[ChaosPhase, ChaosSchedule]
) -> ChaosSchedule:
    """Stitch phases and/or whole schedules into one campaign."""
    phases = []
    for part in parts:
        if isinstance(part, ChaosSchedule):
            phases.extend(part.phases)
        else:
            phases.append(part)
    return ChaosSchedule(name=name, phases=tuple(phases))


def flap_burst_schedule(seed: int = 0) -> ChaosSchedule:
    """The stock campaign: broker flap plus a Gilbert–Elliott burst.

    Phase order is deliberate: the blackout phase trips the degraded-mode
    circuit breaker *before* the flap phase, so a controller that parks on
    the safe configuration rides out the flap's downtime while a static
    default expires its messages.
    """
    return compose(
        "flap-burst",
        baseline_phase(duration_s=3.0),
        loss_burst_phase(duration_s=4.0, seed=seed),
        blackout_phase(duration_s=2.5),
        broker_flap_phase(duration_s=6.0, downtime_s=2.4, seed=seed),
        baseline_phase(duration_s=3.0, name="recovery"),
    )


def staged_escalation_schedule(seed: int = 0) -> ChaosSchedule:
    """A campaign that degrades the network in stages, then recovers."""
    return compose(
        "staged-escalation",
        baseline_phase(duration_s=3.0),
        loss_burst_phase(
            duration_s=4.0, loss_rate=0.1, burst_length=4.0, seed=seed, name="mild-loss"
        ),
        loss_burst_phase(
            duration_s=4.0, loss_rate=0.35, burst_length=10.0, seed=seed, name="heavy-loss"
        ),
        delay_spike_phase(duration_s=4.0, seed=seed),
        blackout_phase(duration_s=2.5),
        broker_flap_phase(duration_s=6.0, downtime_s=2.4, seed=seed),
        baseline_phase(duration_s=3.0, name="recovery"),
    )
