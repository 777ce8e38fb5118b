"""Every simulated message passes through the measured entry points.

``perfbench/layers.py`` attributes cost to layers by wrapping, at class
level, the entry points listed in DESIGN.md §10.  A hot-path shortcut that
caches one of them as a bound method at construction, or calls past it
(pushing to the heap from a component, sending on a ``LinkDirection``
directly, appending to a log's columns), would still produce the same
digests while the traced counts quietly stop matching the run.

This test wraps those entry points the same way, runs three grid points
of the DES golden grid (independent loss, the multi-segment transport
path and at-most-once under bursty loss), and checks each wrapped call
count against the counter the run keeps for itself.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict

import pytest

from repro.kafka.cluster import KafkaCluster
from repro.kafka.log import PartitionLog
from repro.kafka.producer import KafkaProducer
from repro.network.link import Link
from repro.network.transport import ReliableChannel
from repro.simulation.simulator import Simulator
from repro.testbed import Experiment
from repro.testbed.tracker import DeliveryTracker

from .test_des_golden import GRID

POINTS = ["at_least_once/bernoulli", "alo/multi-segment", "at_most_once/bursty"]


class Calls:
    """Class-level counting wrappers, installed through ``monkeypatch``."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.counts: Counter = Counter()
        self._monkeypatch = monkeypatch

    def wrap(
        self,
        cls: type,
        name: str,
        key: Callable[..., str] = lambda *args: "",
        after: Callable[[Any], None] = lambda result: None,
    ) -> None:
        original = cls.__dict__[name]
        counts = self.counts
        label = f"{cls.__name__}.{name}"

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[label + key(*args)] += 1
            result = original(*args, **kwargs)
            after(result)
            return result

        self._monkeypatch.setattr(cls, name, counted)


def run_wrapped(
    name: str, monkeypatch: pytest.MonkeyPatch, wrap_after_build: bool = False
) -> Dict[str, Any]:
    experiment = Experiment(GRID[name]) if wrap_after_build else None
    calls = Calls(monkeypatch)
    counts = calls.counts

    def ran(processed: int) -> None:
        counts["events returned by run"] += processed

    def appended(offset: Any) -> None:
        if offset is None:
            counts["fenced appends"] += 1

    calls.wrap(Simulator, "run", after=ran)
    calls.wrap(Simulator, "schedule")
    calls.wrap(Simulator, "schedule_at")
    calls.wrap(Simulator, "cancel")
    calls.wrap(Link, "send", key=lambda link, packet, direction, on_arrival: f".{direction}")
    calls.wrap(ReliableChannel, "send")
    calls.wrap(KafkaProducer, "offer")
    calls.wrap(KafkaCluster, "handle_produce")
    calls.wrap(PartitionLog, "append", after=appended)
    calls.wrap(DeliveryTracker, "on_ingest")
    calls.wrap(DeliveryTracker, "on_append")
    if experiment is None:
        experiment = Experiment(GRID[name])
    experiment.run()
    return {"counts": counts, "experiment": experiment}


@pytest.mark.parametrize("name", POINTS)
def test_wrapped_calls_match_the_run_counters(name, monkeypatch):
    check_counts(name, run_wrapped(name, monkeypatch))


@pytest.mark.parametrize("name", POINTS)
def test_wrappers_installed_after_build_match_the_run_counters(name, monkeypatch):
    # Catches an entry point that construction cached as a bound method
    # (a registered listener, say): the cached method bypasses a
    # class-level wrapper installed later.
    check_counts(name, run_wrapped(name, monkeypatch, wrap_after_build=True))


def check_counts(name: str, outcome: Dict[str, Any]) -> None:
    counts = outcome["counts"]
    experiment = outcome["experiment"]
    sim = experiment.sim
    link = experiment.link
    channel = experiment.channel
    brokers = experiment.cluster.brokers.values()
    log_entries = sum(len(partition.log) for partition in experiment.topic.partitions)

    assert counts["Simulator.run"] == 1
    assert counts["events returned by run"] == sim.events_processed > 0
    # Every heap entry takes the next sequence number; only the two
    # scheduling entry points hand them out.
    assert counts["Simulator.schedule"] + counts["Simulator.schedule_at"] == sim._next_seq
    assert counts["Simulator.cancel"] > 0
    for direction, lane in (("forward", link.forward), ("reverse", link.reverse)):
        stats = lane.stats
        assert counts[f"Link.send.{direction}"] == stats.sent + stats.dropped_queue > 0
    assert counts["ReliableChannel.send"] == sum(
        channel.stats(direction).messages_sent for direction in ("forward", "reverse")
    )
    assert counts["KafkaProducer.offer"] == experiment.source.emitted == GRID[name].message_count
    assert counts["KafkaCluster.handle_produce"] == sum(
        broker.requests_handled + broker.requests_dropped for broker in brokers
    )
    assert counts["PartitionLog.append"] == log_entries + counts["fenced appends"]
    assert counts["DeliveryTracker.on_append"] == log_entries
    assert counts["DeliveryTracker.on_ingest"] == experiment.producer.stats.ingested


def test_points_cover_their_paths():
    assert GRID["alo/multi-segment"].message_bytes > 1500
    assert not GRID["at_most_once/bursty"].config.semantics.waits_for_ack
    assert GRID["at_most_once/bursty"].bursty_loss
