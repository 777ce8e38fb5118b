"""Propagation-delay models.

The paper's dynamic-configuration experiment draws network delay from a
Pareto distribution (their reference [23]); NetEm itself supports constant,
uniform and normal jitter.  All models return a one-way delay in seconds.
"""

from __future__ import annotations

from typing import Optional

from ..simulation.random import Rng

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "NormalLatency",
    "ParetoLatency",
]


class LatencyModel:
    """Base class for one-way propagation delay models."""

    def sample(self, rng: Rng) -> float:
        """Draw a one-way delay in seconds."""
        raise NotImplementedError

    def mean(self) -> float:
        """The model's mean delay in seconds (for analytic checks)."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """A fixed one-way delay, NetEm's ``delay <d>``."""

    def __init__(self, delay_s: float) -> None:
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.delay_s = float(delay_s)

    def sample(self, rng: Rng) -> float:
        return self.delay_s

    def mean(self) -> float:
        return self.delay_s

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay_s * 1e3:.1f} ms)"


class UniformLatency(LatencyModel):
    """Uniform jitter around a base delay, NetEm's ``delay <d> <jitter>``."""

    def __init__(self, base_s: float, jitter_s: float) -> None:
        if base_s < 0 or jitter_s < 0:
            raise ValueError("base and jitter must be non-negative")
        if jitter_s > base_s:
            raise ValueError("jitter larger than base would allow negative delay")
        self.base_s = float(base_s)
        self.jitter_s = float(jitter_s)

    def sample(self, rng: Rng) -> float:
        return self.base_s + rng.uniform(-self.jitter_s, self.jitter_s)

    def mean(self) -> float:
        return self.base_s

    def __repr__(self) -> str:
        return f"UniformLatency({self.base_s * 1e3:.1f} ± {self.jitter_s * 1e3:.1f} ms)"


class NormalLatency(LatencyModel):
    """Normally distributed jitter truncated at zero."""

    def __init__(self, mean_s: float, stddev_s: float) -> None:
        if mean_s < 0 or stddev_s < 0:
            raise ValueError("mean and stddev must be non-negative")
        self.mean_s = float(mean_s)
        self.stddev_s = float(stddev_s)

    def sample(self, rng: Rng) -> float:
        return max(0.0, rng.normal(self.mean_s, self.stddev_s))

    def mean(self) -> float:
        return self.mean_s

    def __repr__(self) -> str:
        return f"NormalLatency({self.mean_s * 1e3:.1f} ms, σ={self.stddev_s * 1e3:.1f} ms)"


class ParetoLatency(LatencyModel):
    """Pareto-distributed delay, the paper's model for end-to-end delay.

    Delay = ``scale * (1 + Pareto(shape))`` so the minimum delay equals
    ``scale`` (the Pareto location parameter ``x_m``) and the tail index is
    ``shape`` (α).  With α ≤ 1 the mean diverges; we require α > 1 and
    optionally cap samples at ``cap_s`` the way real measurements truncate.
    """

    def __init__(self, scale_s: float, shape: float, cap_s: Optional[float] = None) -> None:
        if scale_s <= 0:
            raise ValueError("scale must be positive")
        if shape <= 1.0:
            raise ValueError("shape must exceed 1 for a finite mean delay")
        if cap_s is not None and cap_s < scale_s:
            raise ValueError("cap below the minimum delay")
        self.scale_s = float(scale_s)
        self.shape = float(shape)
        self.cap_s = cap_s

    def sample(self, rng: Rng) -> float:
        value = self.scale_s * (1.0 + rng.pareto(self.shape))
        if self.cap_s is not None:
            value = min(value, self.cap_s)
        return value

    def mean(self) -> float:
        # Mean of x_m * alpha / (alpha - 1), ignoring the cap.
        return self.scale_s * self.shape / (self.shape - 1.0)

    def __repr__(self) -> str:
        return f"ParetoLatency(x_m={self.scale_s * 1e3:.1f} ms, α={self.shape:.2f})"
