"""``p50_p95`` must equal ``np.percentile(values, (50, 95))`` bit for bit.

Experiments report their ack-latency p50/p95 through the helper because
``np.percentile`` imports ``numpy.ma`` on its first call.  The rewrite is
only valid while numpy computes its "linear" method the same way, so the
reference here stays ``np.percentile``: a numpy upgrade that breaks the
identity fails this test instead of silently shifting reported latencies.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from repro.testbed.results import p50_p95

#: Small sizes exercise every index edge: one value (both percentiles past
#: the last index), two and three values, and odd and even lengths.
SIZES = [1, 2, 3, 4, 5, 6, 7, 19, 20, 21, 100, 101, 999]

#: About 1.4 x 10^4 values per draw family; with the experiment-scale
#: array below, about 1.4 x 10^5 values in all.
ARRAYS_PER_FAMILY = 150


def draws(family, rng, size):
    if family == "uniform":
        return rng.uniform(0.0, 2.0, size)
    if family == "ties":
        # Latencies quantised to a few RTT multiples: long runs of ties.
        return rng.integers(1, 5, size) * 0.0125
    if family == "pareto":
        return 0.001 * (1.0 + rng.pareto(1.2, size))
    raise ValueError(family)


def assert_identical(values):
    expected = np.percentile(values, (50, 95)).tolist()
    actual = p50_p95(array("d", values))
    assert [a.hex() for a in actual] == [e.hex() for e in expected], (
        f"n={len(values)}: {actual} != {expected}"
    )


@pytest.mark.parametrize("family", ["uniform", "ties", "pareto"])
def test_p50_p95_matches_numpy(family):
    rng = np.random.default_rng(20200629)
    for index in range(ARRAYS_PER_FAMILY):
        assert_identical(draws(family, rng, SIZES[index % len(SIZES)]))


def test_p50_p95_matches_numpy_at_experiment_scale():
    rng = np.random.default_rng(7)
    assert_identical(0.001 * (1.0 + rng.pareto(1.2, 100_001)))


def test_p50_p95_returns_python_floats():
    p50, p95 = p50_p95(array("d", [0.25, 0.5]))
    assert type(p50) is float and type(p95) is float
