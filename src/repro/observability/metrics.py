"""A small metrics registry: counters, gauges and histograms.

Modelled on the Prometheus client primitives (and on how Kafka-ML treats
run metrics capture as a first-class subsystem): components increment
named counters, set gauges and observe histogram samples during a run,
and the registry serialises to one flat JSON document afterwards.

The registry is per-run — :class:`~repro.observability.telemetry.RunTelemetry`
owns one — so there is no global state and parallel worker processes each
build their own.  Like the tracer, components hold ``self._metrics =
None`` when telemetry is disabled and guard every touch, which keeps the
disabled-path cost at a pointer comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_LATENCY_BUCKETS"]

#: Default histogram buckets for latency-style observations (seconds).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that can go up and down (set to the latest observation)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``buckets`` are upper bounds (inclusive), cumulative in the exported
    form like Prometheus; an implicit ``+Inf`` bucket catches the rest.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("need at least one bucket bound")
        self.name = name
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # The first bound >= value; NaN compares false with every bound and
        # lands in the +Inf bucket, as a scan over the bounds would put it.
        index = bisect_left(self.buckets, value) if value == value else -1
        self.bucket_counts[index] += 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate (upper bound of the bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return None
        target = math.ceil(q * self.count)
        running = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            running += bucket_count
            if running >= target:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.max
        return self.max

    def as_dict(self) -> Dict[str, Any]:
        cumulative: List[int] = []
        running = 0
        for bucket_count in self.bucket_counts:
            running += bucket_count
            cumulative.append(running)
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                **{repr(bound): cumulative[i] for i, bound in enumerate(self.buckets)},
                "+Inf": cumulative[-1],
            },
        }


class MetricsRegistry:
    """Named metrics for one run; get-or-create semantics per name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, kind: type, *args: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def value(self, name: str, default: Any = None) -> Any:
        """Shortcut: the scalar value of a counter/gauge, or ``default``."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        return metric.as_dict()

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """Flat JSON-serialisable form, sorted by metric name."""
        return {name: self._metrics[name].as_dict() for name in sorted(self._metrics)}

    def digest(self) -> str:
        """Stable digest of the registry contents (manifests embed this)."""
        encoded = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(encoded.encode("utf-8"), digest_size=16).hexdigest()
