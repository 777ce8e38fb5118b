"""Producer performance prediction (the authors' HPCC'19 model [6]).

Provides the (φ, μ) estimates the weighted KPI needs.
"""

from .queueing import PerformanceEstimate, ProducerPerformanceModel

__all__ = [
    "PerformanceEstimate",
    "ProducerPerformanceModel",
]
