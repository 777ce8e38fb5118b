"""Time-varying network condition traces (paper Fig. 9).

The dynamic-configuration experiment of Section V runs the producer under a
network whose one-way delay follows a Pareto distribution and whose packet
loss rate is driven by a Gilbert–Elliott two-state Markov chain.  This
module generates such traces as a sequence of per-interval samples that can
be (a) plotted (Fig. 9) and (b) fed to the dynamic configuration controller
as the "known network status" the paper assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from ..simulation.random import Rng
from .latency import ParetoLatency
from .loss import GilbertElliottLoss

__all__ = [
    "TracePoint",
    "NetworkTrace",
    "GilbertElliottRateProcess",
    "generate_paper_trace",
    "interval_index",
]


def interval_index(time_s: float, interval_s: float) -> int:
    """Index of the interval of length ``interval_s`` that holds ``time_s``.

    A time on a boundary opens the next interval, however its float was
    computed: ``i * interval_s`` maps to ``i``, and so does a sample time
    ``j * step_s`` equal to it in exact arithmetic (``3 * 0.1`` and
    ``1 * 0.3`` both map to interval 3 of a 0.1-s trace).  Floor division
    alone does not: ``0.5 // 0.1`` is 4.0, because 0.1 is stored a little
    above one tenth.  The slack is the one :meth:`NetworkTrace.sample`
    counts with; integer intervals and times map as by floor division.
    """
    return math.floor(time_s / interval_s + 1e-9)


@dataclass
class TracePoint:
    """Network conditions during one trace interval."""

    time_s: float
    delay_s: float
    loss_rate: float


@dataclass
class NetworkTrace:
    """A piecewise-constant network condition timeline."""

    interval_s: float
    points: List[TracePoint] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        """Total trace duration."""
        return len(self.points) * self.interval_s

    def at(self, time_s: float) -> TracePoint:
        """Return the conditions in effect at ``time_s`` (clamped to ends)."""
        if not self.points:
            raise ValueError("empty trace")
        index = interval_index(time_s, self.interval_s)
        index = min(max(index, 0), len(self.points) - 1)
        return self.points[index]

    def sample(self, step_s: float) -> Iterator[Tuple[float, TracePoint]]:
        """``(time, conditions)`` every ``step_s`` seconds over the trace.

        Sample ``i`` is taken at ``i * step_s``, never at a running sum,
        whose rounding error would add a sample at the very end (a 1-s
        trace sampled every 0.1 s has 10 samples, not 11).
        """
        count = math.ceil(self.duration_s / step_s - 1e-9)
        for index in range(count):
            time_s = index * float(step_s)
            yield time_s, self.at(time_s)

    def __iter__(self) -> Iterator[TracePoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


class GilbertElliottRateProcess:
    """Per-interval loss *rate* process driven by a Gilbert–Elliott chain.

    The chain is stepped once per interval.  In the Good state the interval
    loss rate is drawn near ``good_rate``; in the Bad state near
    ``bad_rate``.  This mirrors how the paper derives a piecewise loss-rate
    signal from the G-E link model.
    """

    def __init__(
        self,
        p_good_to_bad: float = 0.10,
        p_bad_to_good: float = 0.30,
        good_rate: float = 0.01,
        bad_rate: float = 0.18,
        rate_jitter: float = 0.03,
    ) -> None:
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name, value in (("good_rate", good_rate), ("bad_rate", bad_rate)):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if bad_rate < good_rate:
            raise ValueError(
                f"bad_rate ({bad_rate}) must be >= good_rate ({good_rate}); "
                f"an inverted pair silently flips the chain's meaning"
            )
        if rate_jitter < 0:
            raise ValueError(f"rate_jitter must be non-negative, got {rate_jitter}")
        self._chain = GilbertElliottLoss(p_good_to_bad, p_bad_to_good)
        self.good_rate = float(good_rate)
        self.bad_rate = float(bad_rate)
        self.rate_jitter = float(rate_jitter)

    def sample(self, rng: Rng) -> float:
        """Advance one interval and return its loss rate."""
        state = self._chain.step(rng)
        base = self.bad_rate if state == GilbertElliottLoss.BAD else self.good_rate
        rate = base + rng.uniform(-self.rate_jitter, self.rate_jitter)
        return float(min(0.95, max(0.0, rate)))


def generate_paper_trace(
    rng: Rng,
    duration_s: float = 600.0,
    interval_s: float = 10.0,
    delay_scale_s: float = 0.020,
    delay_shape: float = 2.0,
    delay_cap_s: float = 0.400,
) -> NetworkTrace:
    """Generate the Fig. 9-style trace: Pareto delay + G-E loss rate.

    Parameters mirror the paper's setup: delays cluster at tens of
    milliseconds with a heavy tail to hundreds, and the loss rate
    alternates between a near-clean regime and bursty 10–20 % episodes.
    """
    if duration_s <= 0 or interval_s <= 0:
        raise ValueError("duration and interval must be positive")
    delay_model = ParetoLatency(delay_scale_s, delay_shape, cap_s=delay_cap_s)
    process = GilbertElliottRateProcess()
    trace = NetworkTrace(interval_s=interval_s)
    steps = int(round(duration_s / interval_s))
    for step in range(steps):
        trace.points.append(
            TracePoint(
                time_s=step * interval_s,
                delay_s=delay_model.sample(rng),
                loss_rate=process.sample(rng),
            )
        )
    return trace
