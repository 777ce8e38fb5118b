"""Golden digests of every :class:`ExperimentResult` field.

``test_des_golden`` pins P_l/P_d/P_s, the census, events and segments of
its grid; this test pins the rest of the result as well: ack-latency
mean/p50/p95, ``persisted_but_unacked``, ``duplicate_copies``,
throughput, simulated duration, retries and case fractions.  It runs the
same 12 grid points plus one three-producer fleet point.  A change to how
run state is stored must leave every digest unchanged.
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
    "alo/broker-crash": "1b58208de3d6defe",
    "alo/multi-segment": "febed696326490ee",
    "alo/polled": "54d5c406ff5a02ee",
    "at_least_once/bernoulli": "fc03a11e542d8164",
    "at_least_once/bursty": "f162a96c8d4f8cc9",
    "at_least_once/jitter": "a2f9c3854ea9995b",
    "at_most_once/bernoulli": "ba56e049efe41bb8",
    "at_most_once/bursty": "d06381e7233253d1",
    "at_most_once/jitter": "6dba3ea87062dfee",
    "exactly_once/bernoulli": "1789d516d59aebfd",
    "exactly_once/bursty": "b158a430488954e3",
    "exactly_once/jitter": "67d1597ead4c1772",
    "fleet/producers=3": "c5a27ef69de3bdcf",
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


def test_every_point_is_pinned_and_the_latencies_are_measured():
    assert sorted(GOLDEN) == sorted(POINTS)
    record = run_result("at_least_once/bernoulli")
    for field in ("mean_ack_latency_s", "p50_ack_latency_s", "p95_ack_latency_s"):
        assert record[field] is not None and record[field] > 0
