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
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..kafka.cluster import KafkaCluster
from ..kafka.consumer import reconcile
from ..kafka.producer import KafkaProducer
from ..kafka.state import DeliveryCase
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
from .cache import default_salt, scenario_fingerprint
from .results import ExperimentResult
from .scenario import Scenario
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
        self.cluster = KafkaCluster(
            self.sim, scenario.broker_count, scenario.broker_config
        )
        if self.telemetry is not None:
            for broker in self.cluster.brokers.values():
                broker.attach_telemetry(self.telemetry)
        self.topic = self.cluster.create_topic(
            scenario.topic_name, partitions=scenario.partition_count
        )
        self.tracker = DeliveryTracker(
            retries_allowed=scenario.config.semantics.retries_allowed,
            telemetry=self.telemetry,
        )
        self.tracker.attach_clock(self.sim)
        self.cluster.add_append_listener(self.tracker.on_append)
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
        hardware = scenario.hardware
        # A lone producer's streams keep their historical names, so its
        # runs stay identical to every result recorded before fleets.
        suffix = "" if self.producers == 1 else f"-{index}"
        link = Link(
            self.sim,
            self.rng.stream(f"link{suffix}"),
            capacity_bps=hardware.link_capacity_bps,
            latency=ConstantLatency(hardware.link_base_delay_s),
        )
        channel = ReliableChannel(self.sim, link, telemetry=self.telemetry)
        producer = KafkaProducer(
            self.sim,
            self.cluster,
            channel,
            self.topic,
            config=scenario.config,
            hardware=hardware,
            listener=self.tracker,
            telemetry=self.telemetry,
        )
        injector = FaultInjector(self.sim, link, telemetry=self.telemetry)
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
            topic=scenario.topic_name,
            timeliness_s=scenario.timeliness_s,
        )
        if scenario.arrival_rate is not None:
            return ConstantRateSource(
                rate=scenario.arrival_rate / self.producers, **common
            )
        if config.polling_interval_s > 0:
            return PolledSource(
                polling_interval_s=config.polling_interval_s,
                hardware=scenario.hardware,
                **common,
            )
        return FullLoadSource(
            hardware=scenario.hardware,
            waits_for_ack=config.semantics.waits_for_ack,
            **common,
        )

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
        keys = self.source.keys
        if self.producers > 1:
            keys = array("q")
            for member in self.members:
                keys.extend(member.source.keys)
        report = reconcile(
            keys,
            self.topic,
            ingest_times=self.tracker.ingest_times,
            timeliness_s=scenario.timeliness_s,
        )
        report.check_conservation()
        census = self.tracker.census()
        case_fractions = {
            ExperimentResult.case_key(case): census.fraction(case)
            for case in DeliveryCase
            if census.case_counts.get(case)
        }
        ack_latencies = self.tracker.ack_latencies
        delivered = report.delivered_unique
        manifest = None
        if self.telemetry is not None:
            manifest = self._finish_telemetry(report, census, duration, wall_start)
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
            persisted_but_unacked=self.tracker.persisted_but_unacked(),
            duplicate_copies=report.duplicate_copies,
            mean_ack_latency_s=(
                float(np.mean(ack_latencies)) if ack_latencies else None
            ),
            p50_ack_latency_s=(
                float(np.percentile(ack_latencies, 50)) if ack_latencies else None
            ),
            p95_ack_latency_s=(
                float(np.percentile(ack_latencies, 95)) if ack_latencies else None
            ),
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

    def _finish_telemetry(self, report, census, duration, wall_start) -> dict:
        """Snapshot stats into metrics, build the manifest, check invariants."""
        telemetry = self.telemetry
        metrics = telemetry.metrics
        scenario = self.scenario
        members = self.members
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
            metrics.counter(f"producer.{name}").inc(
                sum(getattr(member.producer.stats, name) for member in members)
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
                metrics.counter(f"transport.{direction}.{name}").inc(
                    sum(
                        getattr(member.channel.stats(direction), name)
                        for member in members
                    )
                )
        for broker_id, broker in sorted(self.cluster.brokers.items()):
            metrics.gauge(f"broker.{broker_id}.requests_handled").set(
                broker.requests_handled
            )
        case_counts = census.as_flat_counts()
        for name, count in case_counts.items():
            metrics.counter(f"census.{name}").inc(count)
        metrics.counter("census.unresolved").inc(census.unresolved)
        metrics.counter("reconciliation.produced").inc(report.produced)
        metrics.counter("reconciliation.delivered_unique").inc(report.delivered_unique)
        metrics.counter("reconciliation.lost").inc(report.lost)
        metrics.counter("reconciliation.duplicated").inc(report.duplicated)
        metrics.gauge("sim.events_processed").set(self.sim.events_processed)
        metrics.gauge("sim.duration_s").set(duration)
        manifest = telemetry.build_manifest(
            scenario_fingerprint=scenario_fingerprint(scenario, default_salt()),
            seed=scenario.seed,
            salt=default_salt(),
            produced=report.produced,
            delivered_unique=report.delivered_unique,
            lost=report.lost,
            duplicated=report.duplicated,
            duplicate_copies=report.duplicate_copies,
            persisted_but_unacked=self.tracker.persisted_but_unacked(),
            case_counts=case_counts,
            unresolved=census.unresolved,
            events_processed=self.sim.events_processed,
            sim_duration_s=duration,
            heap=self.sim.heap_integrity(),
            wall_time_s=time.perf_counter() - wall_start,
        )
        if telemetry.config.check_invariants:
            tracer = telemetry.tracer
            if tracer is not None and isinstance(tracer.sink, RingBufferSink):
                verify_trace(tracer.records(), manifest)
            else:
                # File sinks are verified offline via ``repro inspect``:
                # the handle is still open for writing here.
                verify_manifest(manifest)
        telemetry.finalize()
        return manifest


def run_experiment(
    scenario: Scenario,
    telemetry: Optional[TelemetryConfig] = None,
    producers: int = 1,
) -> ExperimentResult:
    """Build and run one experiment (the testbed's main entry point)."""
    return Experiment(scenario, telemetry=telemetry, producers=producers).run()
