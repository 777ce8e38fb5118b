"""Scenario descriptions: one experiment = one feature vector + run options.

A :class:`Scenario` fixes the paper's Eq. 1 inputs — message size ``M``,
timeliness ``S``, network delay ``D``, packet loss rate ``L`` and the
producer configuration ``Confs`` — plus the bookkeeping the testbed needs
(message count, seed).  The machine, broker timing and cluster shape are
fixed (:mod:`repro.kafka.config`; three brokers, one three-partition
topic), so they are not part of a scenario.

A run's identity is :func:`scenario_fingerprint`: a SHA-256 over a
canonical JSON encoding of the scenario plus a code-version salt
(:func:`default_salt`).  Run manifests and
:class:`~repro.testbed.runner.ExperimentFailed` messages carry it, so a
result can be traced to the scenario that produced it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..kafka.config import ProducerConfig

__all__ = ["Scenario", "scenario_fingerprint", "default_salt"]

#: Counter mixed into :func:`default_salt` after the package version.
SALT_EPOCH = 1


@dataclass(frozen=True)
class Scenario:
    """Inputs of one testbed experiment.

    Attributes
    ----------
    message_bytes:
        ``M``, the payload size of each message.
    timeliness_s:
        ``S``, the validity period of a message (staleness bookkeeping
        only; it does not change producer behaviour).
    network_delay_s:
        ``D``, the injected one-way network delay.
    loss_rate:
        ``L``, the injected packet loss rate.
    jitter_s:
        Uniform jitter added to the injected delay (NetEm ``delay D J``).
    config:
        The producer configuration under test.
    message_count:
        Source messages per experiment (the paper uses 10^6; benches use
        less — the metrics are frequencies, so the sample size only sets
        the confidence interval).
    seed:
        Master seed for all random streams of the run.
    bursty_loss:
        Realise ``loss_rate`` through a Gilbert–Elliott chain instead of
        independent drops.
    arrival_rate:
        Optional explicit source rate (messages/s).  ``None`` selects the
        paper's discipline: full load when δ=0, polled at 1/δ otherwise.
    """

    message_bytes: int = 200
    timeliness_s: Optional[float] = None
    network_delay_s: float = 0.0
    loss_rate: float = 0.0
    jitter_s: float = 0.0
    config: ProducerConfig = field(default_factory=ProducerConfig)
    message_count: int = 5000
    seed: int = 1
    bursty_loss: bool = False
    arrival_rate: Optional[float] = None

    def __post_init__(self) -> None:
        # Float checks are written ``not x >= 0`` so that NaN fails them.
        if self.message_bytes < 1:
            raise ValueError("message_bytes must be >= 1")
        if not self.network_delay_s >= 0:
            raise ValueError("network_delay_s must be >= 0")
        if not self.jitter_s >= 0:
            raise ValueError("jitter_s must be >= 0")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.message_count < 1:
            raise ValueError("message_count must be >= 1")
        if self.arrival_rate is not None and not self.arrival_rate > 0:
            raise ValueError("arrival_rate must be positive when given")
        if self.timeliness_s is not None and not self.timeliness_s > 0:
            raise ValueError("timeliness_s must be positive when given")

    def with_(self, **changes) -> "Scenario":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def default_salt() -> str:
    """The code-version salt of a run's identity: package version + epoch."""
    from .. import __version__

    return f"{__version__}+e{SALT_EPOCH}"


def _canonical(value: Any) -> Any:
    """Recursively convert a value into canonical JSON-encodable form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            member.name: _canonical(getattr(value, member.name))
            for member in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, float):
        # repr round-trips exactly; 1.0 and 1 must not collide.
        return f"f:{value!r}"
    return value


def scenario_fingerprint(scenario: Scenario, salt: str) -> str:
    """Stable hex digest identifying ``(scenario, salt)``.

    Covers every Scenario field — the network fault, producer
    configuration, seed, message count — so two scenarios collide only if
    they define bit-identical experiments under the same code version (the
    machine is fixed by the code, which the salt names).
    """
    payload = {"salt": salt, "scenario": _canonical(scenario)}
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
