"""The three application streams of the paper's Table II.

Section V designs three data streams with distinct size, timeliness and
KPI-weight characteristics:

* **social media messages** — short text, must arrive quickly and with the
  lowest loss; weights (0.4, 0.3, 0.2, 0.1);
* **web server access records** — timeliness not strict, completeness
  required, duplicates tolerable (idempotent processing); weights
  (0.1, 0.1, 0.7, 0.1);
* **game traffic messages** — tiny (< 100 B) mouse/keyboard signals that
  must be delivered accurately in real time; weights (0.2, 0.4, 0.2, 0.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from ..simulation.random import Rng

__all__ = ["StreamProfile", "SOCIAL_MEDIA", "WEB_ACCESS_LOGS", "GAME_TRAFFIC", "PAPER_STREAMS"]


@dataclass(frozen=True)
class StreamProfile:
    """A stream type: message sizing, timeliness and KPI weights.

    Attributes
    ----------
    name:
        Human-readable stream name (the Table II column).
    mean_payload_bytes:
        Mean message size ``M``.
    payload_jitter:
        Fractional size spread around the mean (uniform).
    timeliness_s:
        The validity period ``S`` of a message.
    kpi_weights:
        The paper's suggested (ω1, ω2, ω3, ω4) for this stream.
    arrival_rate:
        Mean source arrival rate in messages/second used in the dynamic
        configuration experiment (λ(t) baseline).  Expressed in the
        repository's scaled unit system (see ``HardwareProfile``): the
        rates keep the paper's ordering (game > web logs > social) and
        sit near the scaled link's capacity so that configuration quality
        decides how much of each stream survives.
    """

    name: str
    mean_payload_bytes: int
    payload_jitter: float
    timeliness_s: float
    kpi_weights: Tuple[float, float, float, float]
    arrival_rate: float

    def __post_init__(self) -> None:
        if self.mean_payload_bytes < 1:
            raise ValueError("mean_payload_bytes must be >= 1")
        if not 0 <= self.payload_jitter < 1:
            raise ValueError("payload_jitter must be in [0, 1)")
        if self.timeliness_s <= 0:
            raise ValueError("timeliness_s must be positive")
        if abs(sum(self.kpi_weights) - 1.0) > 1e-9:
            raise ValueError("KPI weights must sum to 1")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")

    def payload_sampler(self) -> Callable[[Rng], int]:
        """Sampler of per-message payload sizes."""
        mean = self.mean_payload_bytes
        jitter = self.payload_jitter

        def sample(rng: Rng) -> int:
            low = mean * (1.0 - jitter)
            high = mean * (1.0 + jitter)
            return max(1, int(round(rng.uniform(low, high))))

        return sample


#: Short text posts; loss is the cardinal sin, latency matters.
SOCIAL_MEDIA = StreamProfile(
    name="social media messages",
    mean_payload_bytes=300,
    payload_jitter=0.4,
    timeliness_s=5.0,
    kpi_weights=(0.4, 0.3, 0.2, 0.1),
    arrival_rate=12.0,
)

#: ~200-byte access records; completeness over timeliness, duplicates OK.
WEB_ACCESS_LOGS = StreamProfile(
    name="web server access records",
    mean_payload_bytes=200,
    payload_jitter=0.2,
    timeliness_s=60.0,
    kpi_weights=(0.1, 0.1, 0.7, 0.1),
    arrival_rate=15.0,
)

#: Tiny control signals; strict real-time and accuracy requirements.
GAME_TRAFFIC = StreamProfile(
    name="game traffic messages",
    mean_payload_bytes=80,
    payload_jitter=0.2,
    timeliness_s=0.5,
    kpi_weights=(0.2, 0.4, 0.2, 0.2),
    arrival_rate=20.0,
)

#: The Table II columns in paper order.
PAPER_STREAMS = (SOCIAL_MEDIA, WEB_ACCESS_LOGS, GAME_TRAFFIC)
