"""The experiment runner: one scenario → one measured result.

Mirrors the paper's procedure (Section III-E):

1. start a fresh Kafka system and create a new topic (no legacy effects),
2. provide uniquely-keyed source data of configurable size,
3. inject the network fault while the producer runs,
4. stop fault injection, run the consumer, and
5. reconcile unique keys to count lost and duplicated messages.

The same system also hosts Section IV-C's scaled deployment: with
``producers=N`` the workload is split across a fleet of N producers, each
on its own uplink (its own container's veth, so its own bandwidth and
fault treatments), all sharing the one cluster, topic and tracker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..kafka.cluster import KafkaCluster
from ..kafka.config import LINK_BASE_DELAY_S, LINK_CAPACITY_BPS
from ..kafka.consumer import reconcile
from ..kafka.producer import KafkaProducer
from ..kafka.state import DeliveryCase, Transition
from ..network.faults import FaultInjector, NetworkFault
from ..network.latency import ConstantLatency
from ..network.link import Link
from ..network.transport import ReliableChannel
from ..observability.invariants import verify_manifest, verify_trace
from ..observability.telemetry import RunTelemetry, TelemetryConfig
from ..observability.trace import RingBufferSink
from ..simulation.random import RngRegistry
from ..simulation.simulator import Simulator
from ..workloads.arrival import (
    ConstantRateSource,
    FullLoadSource,
    PolledSource,
    SourceDriver,
)
from .results import ExperimentResult
from .scenario import Scenario, default_salt, scenario_fingerprint
from .tracker import DeliveryTracker

__all__ = ["Experiment", "run_experiment"]


@dataclass
class Member:
    """One producer of the experiment, with its own uplink and source."""

    link: Link
    channel: ReliableChannel
    producer: KafkaProducer
    injector: FaultInjector
    source: SourceDriver


class Experiment:
    """A fully wired testbed instance for one scenario.

    Building the experiment constructs the simulator, cluster, topic and
    tracker, plus one :class:`Member` per producer; :meth:`run` executes it
    and returns the :class:`ExperimentResult`.  The pieces stay accessible
    as attributes for tests and custom drivers: ``link``, ``channel``,
    ``producer``, ``injector`` and ``source`` are the first member's (the
    only one unless ``producers > 1``).

    With ``producers=N`` the scenario's workload is the *aggregate*
    stream: each member receives ``message_count // N`` messages (the
    first ``message_count % N`` one more) at ``arrival_rate / N`` for
    rate-driven sources.  Full-load and polled sources run per member
    unchanged, since each member is its own machine with its own I/O.  The
    scenario's network fault applies to every member's uplink, mirroring
    NetEm on the shared bridge.
    """

    #: Safety valve: no experiment may process more events than this.
    MAX_EVENTS = 20_000_000

    def __init__(
        self,
        scenario: Scenario,
        telemetry: Optional[TelemetryConfig] = None,
        producers: int = 1,
    ) -> None:
        if producers < 1:
            raise ValueError("producers must be >= 1")
        if producers > scenario.message_count:
            raise ValueError(
                f"producers ({producers}) must not exceed message_count "
                f"({scenario.message_count})"
            )
        self.scenario = scenario
        self.producers = producers
        self.sim = Simulator()
        self.rng = RngRegistry(scenario.seed)
        # Telemetry is fully optional: with telemetry=None every component
        # below stores a None tracer and the run is byte-identical to an
        # uninstrumented one.  Emission never schedules events or consumes
        # RNG, so enabling it cannot perturb measured outputs either.
        self.telemetry = RunTelemetry(telemetry) if telemetry is not None else None
        self._tracer = self.telemetry.tracer if self.telemetry is not None else None
        self.cluster = KafkaCluster(self.sim)
        if self._tracer is not None:
            for broker in self.cluster.brokers.values():
                broker.attach_tracer(self._tracer)
        self.topic = self.cluster.create_topic("events", partitions=3)
        self.tracker = DeliveryTracker(
            retries_allowed=scenario.config.semantics.retries_allowed,
            tracer=self._tracer,
        )
        self.tracker.attach_clock(self.sim)
        tracker = self.tracker
        # The method is looked up on every append, never cached as a bound
        # method, so a class-level wrapper installed after construction
        # sees every call (DESIGN.md §10).
        self.cluster.add_append_listener(
            lambda record, partition, offset: tracker.on_append(
                record, partition, offset
            )
        )
        self.members = [self._build_member(index) for index in range(producers)]
        first = self.members[0]
        self.link = first.link
        self.channel = first.channel
        self.producer = first.producer
        self.injector = first.injector
        self.source = first.source
        # Broker crashes are scheduled through the first member's injector
        # only, so each one reaches the cluster once.
        self.injector.on_broker_availability(self.cluster.set_broker_availability)

    def _build_member(self, index: int) -> Member:
        scenario = self.scenario
        # A lone producer's streams keep their historical names, so its
        # runs stay identical to every result recorded before fleets.
        suffix = "" if self.producers == 1 else f"-{index}"
        link = Link(
            self.sim,
            self.rng.stream(f"link{suffix}"),
            capacity_bps=LINK_CAPACITY_BPS,
            latency=ConstantLatency(LINK_BASE_DELAY_S),
        )
        channel = ReliableChannel(self.sim, link, tracer=self._tracer)
        producer = KafkaProducer(
            self.sim,
            self.cluster,
            channel,
            self.topic,
            config=scenario.config,
            listener=self.tracker,
            tracer=self._tracer,
        )
        injector = FaultInjector(self.sim, link, tracer=self._tracer)
        count = scenario.message_count // self.producers
        if index < scenario.message_count % self.producers:
            count += 1
        source = self._build_source(producer, count, self.rng.stream(f"source{suffix}"))
        return Member(link, channel, producer, injector, source)

    def _build_source(self, producer: KafkaProducer, count: int, rng) -> SourceDriver:
        scenario = self.scenario
        config = scenario.config
        common = dict(
            sim=self.sim,
            producer=producer,
            count=count,
            payload_bytes=scenario.message_bytes,
            rng=rng,
        )
        if scenario.arrival_rate is not None:
            return ConstantRateSource(
                rate=scenario.arrival_rate / self.producers, **common
            )
        if config.polling_interval_s > 0:
            return PolledSource(polling_interval_s=config.polling_interval_s, **common)
        return FullLoadSource(waits_for_ack=config.semantics.waits_for_ack, **common)

    def run(self) -> ExperimentResult:
        """Execute the experiment and return its measured result."""
        scenario = self.scenario
        wall_start = time.perf_counter()
        if scenario.loss_rate > 0 or scenario.network_delay_s > 0:
            fault = NetworkFault(
                delay_s=scenario.network_delay_s,
                loss_rate=scenario.loss_rate,
                jitter_s=scenario.jitter_s,
                bursty=scenario.bursty_loss,
            )
            for member in self.members:
                member.injector.inject(fault)
        for member in self.members:
            member.source.start()
        start = self.sim.now
        processed = self.sim.run(max_events=self.MAX_EVENTS)
        if processed >= self.MAX_EVENTS:
            raise RuntimeError(
                "experiment exceeded the event budget; check for overload "
                "configurations that never converge"
            )
        duration = self.sim.now - start
        # Fault injection "stops" before consumption: reconciliation reads
        # the committed logs directly, after all network events settled.
        for member in self.members:
            member.injector.clear()
        # Every key comes from the simulator's one ``record_keys`` counter,
        # so the source keys are exactly the first ``emitted`` integers.
        report = reconcile(
            range(sum(member.source.emitted for member in self.members)),
            self.topic,
            ingest_times=self.tracker.ingest_times,
            timeliness_s=scenario.timeliness_s,
        )
        census = self.tracker.census()
        persisted_but_unacked = self.tracker.persisted_but_unacked()
        counts = dict(
            produced=report.produced,
            delivered_unique=report.delivered_unique,
            lost=report.lost,
            duplicated=report.duplicated,
            persisted_but_unacked=persisted_but_unacked,
            case_counts=census.as_flat_counts(),
            unresolved=census.unresolved,
            heap=self.sim.heap_integrity(),
        )
        # The census and the reconciliation count every record twice, from
        # the producer's view and from the topic; the two must agree.
        verify_manifest(counts)
        case_fractions = {
            ExperimentResult.case_key(case): census.fraction(case)
            for case in DeliveryCase
            if census.case_counts.get(case)
        }
        delivered = report.delivered_unique
        manifest = None
        if self.telemetry is not None:
            manifest = self._finish_telemetry(counts, report, duration, wall_start)
        result = ExperimentResult(
            message_bytes=scenario.message_bytes,
            timeliness_s=scenario.timeliness_s,
            network_delay_s=scenario.network_delay_s,
            loss_rate=scenario.loss_rate,
            semantics=scenario.config.semantics.value,
            batch_size=scenario.config.batch_size,
            polling_interval_s=scenario.config.polling_interval_s,
            message_timeout_s=scenario.config.message_timeout_s,
            produced=report.produced,
            p_loss=report.p_loss,
            p_duplicate=report.p_duplicate,
            p_stale=report.p_stale,
            case_fractions=case_fractions,
            persisted_but_unacked=persisted_but_unacked,
            duplicate_copies=report.duplicate_copies,
            throughput_msgs_per_s=(
                delivered / duration if duration > 0 else None
            ),
            simulated_duration_s=duration,
            retransmissions=sum(
                member.channel.stats("forward").retransmissions
                for member in self.members
            ),
            request_retries=sum(
                member.producer.stats.request_retries for member in self.members
            ),
            seed=scenario.seed,
        )
        result.manifest = manifest
        return result

    def _finish_telemetry(self, counts, report, duration, wall_start) -> dict:
        """Build the manifest and replay the trace against it."""
        telemetry = self.telemetry
        scenario = self.scenario
        manifest = telemetry.build_manifest(
            scenario_fingerprint=scenario_fingerprint(scenario, default_salt()),
            seed=scenario.seed,
            salt=default_salt(),
            duplicate_copies=report.duplicate_copies,
            events_processed=self.sim.events_processed,
            sim_duration_s=duration,
            wall_time_s=time.perf_counter() - wall_start,
            metrics=self._run_metrics(counts, report, duration),
            **counts,
        )
        tracer = telemetry.tracer
        # ``run`` already checked the conservation laws.  File sinks are
        # replayed offline via ``repro inspect``: the handle is still open
        # for writing here.
        if isinstance(tracer.sink, RingBufferSink):
            verify_trace(tracer.records(), manifest)
        telemetry.finalize()
        return manifest

    def _run_metrics(self, counts, report, duration) -> Dict[str, Dict[str, Any]]:
        """The run's own counts, as the manifest's counters and gauges."""
        members = self.members
        counters: Dict[str, int] = {}
        for name in (
            "ingested",
            "queue_dropped",
            "expired_in_queue",
            "expired_after_send",
            "requests_sent",
            "request_retries",
            "acknowledged",
            "perceived_lost",
            "fire_and_forget",
            "bytes_sent",
        ):
            counters[f"producer.{name}"] = sum(
                getattr(member.producer.stats, name) for member in members
            )
        for direction in ("forward", "reverse"):
            for name in (
                "messages_sent",
                "messages_delivered",
                "messages_failed",
                "segments_sent",
                "retransmissions",
                "acks_received",
                "duplicate_segments",
            ):
                counters[f"transport.{direction}.{name}"] = sum(
                    getattr(member.channel.stats(direction), name)
                    for member in members
                )
        for name, count in counts["case_counts"].items():
            counters[f"census.{name}"] = count
        counters["census.unresolved"] = counts["unresolved"]
        counters["reconciliation.produced"] = report.produced
        counters["reconciliation.delivered_unique"] = report.delivered_unique
        counters["reconciliation.lost"] = report.lost
        counters["reconciliation.duplicated"] = report.duplicated
        brokers = sorted(self.cluster.brokers.items())
        # These appear only in runs where they occur.
        occurred = {
            f"transitions.{transition.value}": count
            for transition, count in zip(Transition, self.tracker.edge_counts)
        }
        occurred["broker.appends"] = sum(
            len(partition.log) for partition in self.topic.partitions
        )
        occurred["broker.requests_dropped"] = sum(
            broker.requests_dropped for _, broker in brokers
        )
        occurred["faults.injected"] = sum(member.injector.injected for member in members)
        counters.update((name, count) for name, count in occurred.items() if count)
        gauges: Dict[str, Any] = {
            f"broker.{broker_id}.requests_handled": broker.requests_handled
            for broker_id, broker in brokers
        }
        gauges["sim.events_processed"] = self.sim.events_processed
        gauges["sim.duration_s"] = duration
        metrics = {
            name: {"type": "counter", "value": value} for name, value in counters.items()
        }
        metrics.update(
            (name, {"type": "gauge", "value": value}) for name, value in gauges.items()
        )
        return metrics


def run_experiment(
    scenario: Scenario,
    telemetry: Optional[TelemetryConfig] = None,
    producers: int = 1,
) -> ExperimentResult:
    """Build and run one experiment (the testbed's main entry point)."""
    return Experiment(scenario, telemetry=telemetry, producers=producers).run()
