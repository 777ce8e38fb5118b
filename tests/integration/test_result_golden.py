"""Golden digests of every :class:`ExperimentResult` field.

``test_des_golden`` pins P_l/P_d/P_s, the census, events and segments of
its grid; this test pins the rest of the result as well:
``persisted_but_unacked``, ``duplicate_copies``, throughput, simulated
duration, retries and case fractions.  It runs the same 12 grid points
plus one three-producer fleet point.  A change to how run state is
stored must leave every digest unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.testbed import Experiment, Scenario

from .test_des_golden import GRID, digest

FLEET = Scenario(
    message_count=600,
    timeliness_s=0.5,
    seed=5,
    network_delay_s=0.1,
    loss_rate=0.1,
    config=ProducerConfig(
        semantics=DeliverySemantics.AT_LEAST_ONCE, batch_size=2, request_timeout_s=0.6
    ),
)
FLEET_PRODUCERS = 3

GOLDEN: Dict[str, str] = {
    "alo/broker-crash": "a3df040c797dbb2d",
    "alo/multi-segment": "30abbbc1ed065c54",
    "alo/polled": "fcd2a4733f77b22a",
    "at_least_once/bernoulli": "7e10a333a16e6874",
    "at_least_once/bursty": "3fe06fe128ff7ca9",
    "at_least_once/jitter": "ccbc8078de89f4aa",
    "at_most_once/bernoulli": "5ea4a7ea987b6f70",
    "at_most_once/bursty": "23e5fb2b23b81d7a",
    "at_most_once/jitter": "473b114a8c73ebdc",
    "exactly_once/bernoulli": "d2271045e11464c5",
    "exactly_once/bursty": "e486956f872b5374",
    "exactly_once/jitter": "e180f33e5cb4860b",
    "fleet/producers=3": "650ac0cda6a56dfb",
}


def run_result(name: str) -> Dict[str, Any]:
    """Run one point and return every result field (the manifest is None)."""
    if name == "fleet/producers=3":
        experiment = Experiment(FLEET, producers=FLEET_PRODUCERS)
    else:
        experiment = Experiment(GRID[name])
    if name == "alo/broker-crash":
        experiment.injector.crash_broker_at(2.0, "broker-0")
        experiment.injector.restore_broker_at(6.0, "broker-0")
    record = dataclasses.asdict(experiment.run())
    assert record.pop("manifest") is None
    return record


POINTS = sorted(GRID) + ["fleet/producers=3"]


@pytest.mark.parametrize("name", POINTS)
def test_result_matches_golden_digest(name):
    record = run_result(name)
    assert digest(record) == GOLDEN[name], f"{name} changed: {record}"


def test_every_point_is_pinned():
    assert sorted(GOLDEN) == sorted(POINTS)
