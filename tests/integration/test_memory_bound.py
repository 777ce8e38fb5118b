"""Per-message run state stays small.

Record keys and transport message ids are dense per-simulator integers,
so the tracker, the log, the transport's dedupe state and the source keep
their per-message state in typed arrays indexed by key rather than in
Python objects.  A 10^4-message run at the reference vector allocates
about 1 MB at its peak that way (about 7 MB with one object and dict
entry per message), so a 2 MB bound catches a return to per-message
objects without being sensitive to the interpreter version.
"""

from __future__ import annotations

import tracemalloc

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.testbed import Scenario, run_experiment

PEAK_BOUND_MB = 2.0


def reference(messages: int) -> Scenario:
    """M=200 B, D=100 ms, L=10 %, at-least-once, B=2."""
    return Scenario(
        message_bytes=200,
        network_delay_s=0.1,
        loss_rate=0.1,
        config=ProducerConfig(semantics=DeliverySemantics.AT_LEAST_ONCE, batch_size=2),
        message_count=messages,
        seed=1,
    )


def test_reference_run_peak_allocation_is_bounded():
    # Warm up first: lazy imports (numpy's percentile pulls in numpy.ma)
    # would otherwise count as run state.
    run_experiment(reference(200))
    tracemalloc.start()
    try:
        result = run_experiment(reference(10_000))
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert result.produced == 10_000
    assert peak_mb <= PEAK_BOUND_MB, f"peak {peak_mb:.2f} MB > {PEAK_BOUND_MB} MB"
