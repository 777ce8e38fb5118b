"""``lo + (hi - lo) * rng.random()`` must equal ``rng.uniform(lo, hi)`` bit for bit.

The source drivers in ``workloads/arrival.py`` draw their burst spreads and
inter-arrival jitter with the explicit expression because it is several
times cheaper than a ``Generator.uniform`` call.  That is only a valid
rewrite while numpy computes ``uniform`` the same way, so the reference
here stays ``Generator.uniform``: a numpy upgrade that breaks the identity
fails this test instead of silently shifting every simulated result.
"""

from __future__ import annotations

import numpy as np
import pytest

#: Every ``(lo, hi)`` the source drivers rewrite.
REWRITTEN_BOUNDS = [(0.8, 1.2), (0.7, 1.3), (0.85, 1.15)]

DRAWS = 100_000


@pytest.mark.parametrize("lo, hi", REWRITTEN_BOUNDS)
def test_explicit_uniform_matches_generator_uniform(lo, hi):
    reference = np.random.default_rng(20200629)
    rewritten = np.random.default_rng(20200629)
    expected = [reference.uniform(lo, hi) for _ in range(DRAWS)]
    actual = [lo + (hi - lo) * rewritten.random() for _ in range(DRAWS)]
    mismatches = sum(1 for a, b in zip(actual, expected) if a != b)
    assert mismatches == 0, f"uniform({lo}, {hi}): {mismatches}/{DRAWS} draws differ"
    # Both generators must also have consumed the stream identically.
    assert reference.random() == rewritten.random()
