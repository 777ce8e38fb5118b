"""Golden digests of a small DES grid.

Every speed-up of the per-message path must leave the simulation's
outputs bit-identical.  Each grid point runs one ~500-message experiment
and digests its observable outcome: P_l/P_d/P_s, the Table I census, the
number of fired events and, per link direction, the transport's segments,
retransmissions and duplicate segments.  The pinned digests were recorded
before the hot-path work; a mismatch means a change altered what the
simulator does, not just how fast it does it.

The grid covers the three semantics under independent loss, bursty
(Gilbert–Elliott) loss and delay with jitter, plus an at-least-once
broker crash/restore, a polled source (δ > 0) and a message larger than
the MTU (the multi-segment transport path).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

import pytest

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.testbed import Experiment, Scenario

MESSAGES = 500

NETWORKS: Dict[str, Dict[str, Any]] = {
    "bernoulli": {"network_delay_s": 0.1, "loss_rate": 0.1},
    "bursty": {"network_delay_s": 0.1, "loss_rate": 0.1, "bursty_loss": True},
    "jitter": {"network_delay_s": 0.1, "jitter_s": 0.03},
}


def _grid() -> Dict[str, Scenario]:
    base = Scenario(message_count=MESSAGES, timeliness_s=0.5, seed=3)
    grid: Dict[str, Scenario] = {}
    for semantics in DeliverySemantics:
        # A request timeout this short makes at-least-once retry requests
        # whose response is merely late, so Case 4 and 5 paths fire too.
        config = ProducerConfig(semantics=semantics, batch_size=2, request_timeout_s=0.6)
        for network, fields in NETWORKS.items():
            grid[f"{semantics.value}/{network}"] = base.with_(config=config, **fields)
    alo = ProducerConfig(semantics=DeliverySemantics.AT_LEAST_ONCE, batch_size=2)
    grid["alo/broker-crash"] = base.with_(
        config=alo.with_(message_timeout_s=2.0),
        arrival_rate=20.0,
        loss_rate=0.05,
    )
    grid["alo/polled"] = base.with_(
        config=alo.with_(polling_interval_s=0.05),
        network_delay_s=0.05,
        loss_rate=0.1,
    )
    grid["alo/multi-segment"] = base.with_(
        config=alo, message_bytes=4000, network_delay_s=0.05, loss_rate=0.1
    )
    return grid


GRID = _grid()

GOLDEN: Dict[str, str] = {
    "alo/broker-crash": "66ea8cc64f0f299e",
    "alo/multi-segment": "6f90b58f6ee83d80",
    "alo/polled": "eebbfaaf130f095d",
    "at_least_once/bernoulli": "bfa1549b869e0762",
    "at_least_once/bursty": "abb5ae5e0cb1d02e",
    "at_least_once/jitter": "d1084737575bdc25",
    "at_most_once/bernoulli": "3bda1e42cd066334",
    "at_most_once/bursty": "f49117e41b1ac1e3",
    "at_most_once/jitter": "94aedc0e780c64d7",
    "exactly_once/bernoulli": "ef15215618ab9747",
    "exactly_once/bursty": "94213a76003a7ea7",
    "exactly_once/jitter": "bcb5479eaea0d21f",
}


def run_point(name: str) -> Dict[str, Any]:
    """Run one grid point and return the record that is digested."""
    experiment = Experiment(GRID[name])
    if name == "alo/broker-crash":
        experiment.injector.crash_broker_at(2.0, "broker-0")
        experiment.injector.restore_broker_at(6.0, "broker-0")
    result = experiment.run()
    census = experiment.tracker.census()
    transport = {}
    for direction in ("forward", "reverse"):
        stats = experiment.channel.stats(direction)
        transport[direction] = [
            stats.segments_sent,
            stats.retransmissions,
            stats.duplicate_segments,
        ]
    return {
        "p_loss": result.p_loss,
        "p_duplicate": result.p_duplicate,
        "p_stale": result.p_stale,
        "census": census.as_flat_counts(),
        "unresolved": census.unresolved,
        "events": experiment.sim.events_processed,
        "transport": transport,
    }


def digest(record: Dict[str, Any]) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


@pytest.mark.parametrize("name", sorted(GRID))
def test_grid_point_matches_golden_digest(name):
    record = run_point(name)
    assert digest(record) == GOLDEN[name], f"{name} changed: {record}"


def test_grid_is_pinned_and_exercises_its_paths():
    assert sorted(GOLDEN) == sorted(GRID)
    multi = GRID["alo/multi-segment"]
    assert multi.message_bytes > 1500  # larger than the default MTU
    assert GRID["alo/polled"].config.polling_interval_s > 0
