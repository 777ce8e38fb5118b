"""Source-data workloads.

Arrival processes (:mod:`~repro.workloads.arrival`) drive records into the
producer under the paper's two disciplines (full load and polled), and
:mod:`~repro.workloads.streams` defines the three Table II application
streams.
"""

from .arrival import (
    ConstantRateSource,
    FullLoadSource,
    PolledSource,
    SourceDriver,
)
from .streams import (
    GAME_TRAFFIC,
    PAPER_STREAMS,
    SOCIAL_MEDIA,
    StreamProfile,
    WEB_ACCESS_LOGS,
)

__all__ = [
    "SourceDriver",
    "FullLoadSource",
    "PolledSource",
    "ConstantRateSource",
    "StreamProfile",
    "SOCIAL_MEDIA",
    "WEB_ACCESS_LOGS",
    "GAME_TRAFFIC",
    "PAPER_STREAMS",
]
