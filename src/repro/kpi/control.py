"""The one configuration controller and the one interval-replay loop.

The paper's Section V has one control loop: each interval, read the
network state, run the stepwise KPI search against the predictor, and
apply the configuration.  :class:`Controller` is that loop's decision
step for every policy, and :func:`replay` runs it over intervals laid out
by three small builders — trace points (``run_traced_experiment``),
reconfiguration-stepped trace samples (``run_online_experiment``) and
chaos phases (``run_campaign``) — whose differences are data on each
:class:`Interval`, not branches in the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..kafka.config import ProducerConfig
from ..kafka.semantics import DeliverySemantics
from ..models.predictor import ReliabilityPredictor
from ..observability.telemetry import TelemetryConfig
from ..performance.queueing import ProducerPerformanceModel
from ..testbed.experiment import Experiment
from ..testbed.results import ExperimentResult
from ..testbed.scenario import Scenario
from ..workloads.streams import StreamProfile
from .selection import (
    ParameterSteps,
    SelectionContext,
    evaluate_configs,
    select_configuration,
)
from .weighted import DEFAULT_WEIGHTS, KpiWeights

__all__ = [
    "NetworkStateEstimate",
    "NetworkStateEstimator",
    "IntervalObservation",
    "CircuitBreaker",
    "PARKED_CONFIG",
    "Decision",
    "Controller",
    "required_producers",
    "Interval",
    "IntervalRecord",
    "replay",
]


@dataclass(frozen=True)
class NetworkStateEstimate:
    """The estimator's belief about the current network condition."""

    delay_s: float
    loss_rate: float
    samples: int

    @property
    def confident(self) -> bool:
        """Whether enough signal arrived to act on the estimate."""
        return self.samples >= 2


class NetworkStateEstimator:
    """EWMA estimator of (D̂, L̂) from producer-side observations.

    Delay: response round-trip times divide roughly into transmission +
    2·(base + D); subtracting the known transmission/broker components
    (the producer knows its own configuration and the hardware profile)
    leaves 2·D̂.  Loss: the fraction of transport sends that needed
    retransmissions estimates per-packet loss via
    ``retx/(segments)`` ≈ L̂ (each lost packet costs one retransmission).
    """

    def __init__(
        self,
        performance_model: Optional[ProducerPerformanceModel] = None,
        smoothing: float = 0.6,
    ) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self._model = (
            performance_model
            if performance_model is not None
            else ProducerPerformanceModel()
        )
        self._smoothing = smoothing
        self._delay: Optional[float] = None
        self._loss: Optional[float] = None
        self._samples = 0

    def observe_rtt(
        self, rtt_s: float, message_bytes: int, batch_size: int
    ) -> None:
        """Feed one transport-level SRTT observation (segment → ack)."""
        if rtt_s < 0:
            raise ValueError("rtt must be non-negative")
        hardware = self._model.hardware
        wire = self._model.request_wire_bytes(message_bytes, batch_size)
        base = (
            (wire + 66) / hardware.link_capacity_bps
            + 2.0 * hardware.link_base_delay_s
        )
        inferred = max(0.0, (rtt_s - base) / 2.0)
        self._delay = (
            inferred
            if self._delay is None
            else (1 - self._smoothing) * self._delay + self._smoothing * inferred
        )
        self._samples += 1

    def observe_transport(self, segments_sent: int, retransmissions: int) -> None:
        """Feed cumulative transport counters for the last interval."""
        if segments_sent <= 0:
            return
        inferred = min(0.9, retransmissions / segments_sent)
        self._loss = (
            inferred
            if self._loss is None
            else (1 - self._smoothing) * self._loss + self._smoothing * inferred
        )
        self._samples += 1

    def observe_acks(
        self,
        acknowledged: int,
        perceived_lost: int,
        requests_sent: int = 0,
        request_retries: int = 0,
    ) -> None:
        """Feed producer-level delivery accounting for the last interval.

        Two loss proxies are available without any transport visibility:
        the fraction of produce requests that needed an application-level
        retry (each lost request or response costs one retry), and the
        fraction of records the producer gave up on.  The larger of the
        two is the pessimistic packet-loss estimate — retries capture
        transient loss the producer recovered from, give-ups capture loss
        the retries could not hide.  Intervals with no signal (nothing
        sent) are ignored.
        """
        if acknowledged < 0 or perceived_lost < 0:
            raise ValueError("ack counters must be non-negative")
        signals = []
        if requests_sent > 0:
            signals.append(request_retries / requests_sent)
        delivered = acknowledged + perceived_lost
        if delivered > 0:
            signals.append(perceived_lost / delivered)
        if not signals:
            return
        inferred = min(0.9, max(signals))
        self._loss = (
            inferred
            if self._loss is None
            else (1 - self._smoothing) * self._loss + self._smoothing * inferred
        )
        self._samples += 1

    def estimate(self) -> NetworkStateEstimate:
        """Current belief (zeros before any signal)."""
        return NetworkStateEstimate(
            delay_s=self._delay if self._delay is not None else 0.0,
            loss_rate=self._loss if self._loss is not None else 0.0,
            samples=self._samples,
        )


@dataclass(frozen=True)
class IntervalObservation:
    """Producer-observable signals from one control interval.

    Everything here is visible to a real producer without any oracle:
    its own request/ack accounting, the transport's segment counters and
    the minimum response round-trip time it saw.  ``waits_for_ack``
    records whether the interval's configuration requested broker
    acknowledgements at all — under fire-and-forget (``acks=0``) zero
    acknowledgements are the *normal* state, not an outage.
    """

    requests_sent: int = 0
    acknowledged: int = 0
    request_retries: int = 0
    perceived_lost: int = 0
    segments_sent: int = 0
    retransmissions: int = 0
    min_rtt_s: Optional[float] = None
    waits_for_ack: bool = True

    def __post_init__(self) -> None:
        for name in (
            "requests_sent",
            "acknowledged",
            "request_retries",
            "perceived_lost",
            "segments_sent",
            "retransmissions",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def ack_ratio(self) -> Optional[float]:
        """Fraction of requests acknowledged, or None without signal.

        ``None`` when nothing was sent or the configuration never asked
        for acknowledgements (fire-and-forget) — both carry no
        reachability evidence in either direction.
        """
        if not self.waits_for_ack or self.requests_sent <= 0:
            return None
        return self.acknowledged / self.requests_sent


class CircuitBreaker:
    """Interval-granularity circuit breaker over broker reachability.

    ``closed`` is normal operation.  After ``failure_threshold``
    consecutive silent intervals (requests sent, zero acks) the breaker
    *opens*: the controller parks the producer on the safest configuration
    instead of trusting predictions built from a dead link.  After
    ``cooldown_intervals`` further silent intervals the breaker goes
    *half-open*, letting the controller run one normal selection as a
    probe; a healthy interval closes the breaker, another silent one
    re-opens it.  Any healthy interval closes the breaker immediately from
    every state.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 1, cooldown_intervals: int = 2) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_intervals < 1:
            raise ValueError("cooldown_intervals must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_intervals = cooldown_intervals
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self._open_intervals = 0

    @property
    def allows_selection(self) -> bool:
        """Whether the controller may run the normal stepwise search."""
        return self.state != self.OPEN

    def record(self, healthy: bool) -> str:
        """Feed one interval's health observation; returns the new state."""
        if healthy:
            self.consecutive_failures = 0
            self._open_intervals = 0
            self.state = self.CLOSED
            return self.state
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN:
            # The probe failed: straight back to parked.
            self.state = self.OPEN
            self._open_intervals = 0
            self.trips += 1
        elif self.state == self.OPEN:
            self._open_intervals += 1
            if self._open_intervals >= self.cooldown_intervals:
                self.state = self.HALF_OPEN
        elif self.consecutive_failures >= self.failure_threshold:
            self.state = self.OPEN
            self._open_intervals = 0
            self.trips += 1
        return self.state


#: The configuration the circuit breaker parks the producer on while the
#: cluster is unreachable: at-least-once with a delivery timeout long
#: enough to ride out a multi-second outage, slow polling so the
#: accumulator does not flood, and a deep retry budget.  Nothing here is
#: optimal for throughput — it is the configuration that loses the least
#: when the brokers come back.
PARKED_CONFIG = ProducerConfig(
    semantics=DeliverySemantics.AT_LEAST_ONCE,
    batch_size=4,
    polling_interval_s=0.04,
    message_timeout_s=6.0,
    request_timeout_s=1.0,
    retry_backoff_s=0.1,
    max_retries=20,
)


def required_producers(config: ProducerConfig, stream: StreamProfile) -> int:
    """Producers needed so polling does not throttle the stream (IV-C)."""
    if config.polling_interval_s <= 0:
        return 1
    return max(1, int(math.ceil(stream.arrival_rate * config.polling_interval_s)))


@dataclass(frozen=True)
class Decision:
    """One control decision: the configuration to run next, and why.

    ``predicted_gamma``/``prediction_source`` (the fallback tier) are
    ``None`` where the controller computed no prediction.  ``estimated_*``
    is the network state the decision acted on; ``true_*`` that of the
    interval it was applied to, filled in by :func:`replay`.
    """

    config: ProducerConfig
    reason: str
    producers: int = 1
    predicted_gamma: Optional[float] = None
    prediction_source: Optional[str] = None
    changed: bool = False
    breaker_state: Optional[str] = None
    estimated_delay_s: Optional[float] = None
    estimated_loss_rate: Optional[float] = None
    true_delay_s: Optional[float] = None
    true_loss_rate: Optional[float] = None


Scored = Tuple[Optional[float], Optional[str]]


class Controller:
    """Per-interval reconfiguration by stepwise search over predicted γ.

    The network-state source is the trace oracle when :meth:`decide` is
    given the known state, otherwise the EWMA estimator that
    :meth:`observe` feeds.  Without guards every decision adopts the
    search's answer (the paper's controller); the optional guards are:

    * ``hysteresis`` — a restart must buy this much predicted γ;
    * ``min_hold_intervals`` — no reconfiguration sooner after the last;
    * ``breaker`` — while open, park on ``parked_config``; and while the
      search reads a degraded fallback tier, never switch to
      fire-and-forget, which would silence the acks the breaker watches.
      An interval is silent when at most ``silence_threshold`` of its
      requests were acknowledged.
    """

    def __init__(
        self,
        predictor: ReliabilityPredictor,
        performance_model: Optional[ProducerPerformanceModel] = None,
        weights: KpiWeights = DEFAULT_WEIGHTS,
        gamma_requirement: float = 0.8,
        steps: Optional[ParameterSteps] = None,
        hysteresis: float = 0.0,
        min_hold_intervals: int = 1,
        breaker: Optional[CircuitBreaker] = None,
        parked_config: ProducerConfig = PARKED_CONFIG,
        silence_threshold: float = 0.1,
    ) -> None:
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        if min_hold_intervals < 1:
            raise ValueError("min_hold_intervals must be >= 1")
        if not 0.0 <= silence_threshold < 1.0:
            raise ValueError("silence_threshold must be in [0, 1)")
        self.predictor = predictor
        self.performance_model = (
            performance_model
            if performance_model is not None
            else ProducerPerformanceModel()
        )
        self.weights = weights
        self.gamma_requirement = gamma_requirement
        self.steps = steps
        self.hysteresis = hysteresis
        self.min_hold_intervals = min_hold_intervals
        self.breaker = breaker
        self.parked_config = parked_config
        self.silence_threshold = silence_threshold
        self.estimator = NetworkStateEstimator(self.performance_model)
        self._intervals_since_change = min_hold_intervals

    def observe(
        self, observation: IntervalObservation, message_bytes: int, batch_size: int
    ) -> None:
        """Feed one interval's producer-side signals to the estimator and breaker.

        Intervals without reachability signal skip the breaker: recording
        "healthy" there would wrongly close an open breaker.
        """
        ratio = observation.ack_ratio
        if self.breaker is not None and ratio is not None:
            self.breaker.record(healthy=ratio > self.silence_threshold)
        self.estimator.observe_transport(
            observation.segments_sent, observation.retransmissions
        )
        self.estimator.observe_acks(
            observation.acknowledged,
            observation.perceived_lost,
            requests_sent=observation.requests_sent,
            request_retries=observation.request_retries,
        )
        if observation.min_rtt_s is not None:
            self.estimator.observe_rtt(observation.min_rtt_s, message_bytes, batch_size)

    def decide(
        self, stream: StreamProfile, current: ProducerConfig, known: Optional[Any] = None
    ) -> Decision:
        """Choose the next interval's configuration.

        ``known`` is the known network state (a trace point: anything with
        ``delay_s`` and ``loss_rate``); without it the controller acts on
        its estimate, once that has enough signal.
        """
        state = known if known is not None else self.estimator.estimate()
        context = SelectionContext(
            message_bytes=stream.mean_payload_bytes,
            timeliness_s=stream.timeliness_s,
            network_delay_s=state.delay_s,
            loss_rate=state.loss_rate,
        )
        self._intervals_since_change += 1
        config, reason, (gamma, source) = self._choose(
            context, current, known is not None or state.confident
        )
        if config != current:
            self._intervals_since_change = 0
        return Decision(
            config,
            reason,
            required_producers(config, stream),
            gamma,
            source,
            changed=config != current,
            breaker_state=self.breaker.state if self.breaker is not None else None,
            estimated_delay_s=state.delay_s,
            estimated_loss_rate=state.loss_rate,
        )

    def _choose(
        self, context: SelectionContext, current: ProducerConfig, confident: bool
    ) -> Tuple[ProducerConfig, str, Scored]:
        if self.breaker is not None and not self.breaker.allows_selection:
            return self.parked_config, "parked", self._score(self.parked_config, context)
        if not confident:
            return current, "insufficient_signal", (None, None)
        if self._intervals_since_change < self.min_hold_intervals:
            return current, "held", self._score(current, context)
        selection = select_configuration(
            context,
            self.predictor,
            self.performance_model,
            weights=self.weights,
            gamma_requirement=self.gamma_requirement,
            start=current,
            steps=self.steps,
        )
        if selection.config == current:
            return current, "held", (selection.gamma, selection.config_source)
        blind_switch = (
            self.breaker is not None
            and selection.prediction_source != "ann"
            and not selection.config.semantics.waits_for_ack
            and current.semantics.waits_for_ack
        )
        # The search starts by scoring ``current`` under the same state.
        if selection.gamma < selection.trace[0][1] + self.hysteresis or blind_switch:
            return current, "held", self._score(current, context)
        return selection.config, "reconfigured", (selection.gamma, selection.config_source)

    def _score(self, config: ProducerConfig, context: SelectionContext) -> Scored:
        # A batch of one: repeated ticks under unchanged conditions hit the memo.
        return evaluate_configs(
            [config], context, self.predictor, self.performance_model, self.weights
        )[0]


@dataclass(frozen=True)
class Interval:
    """One control interval to replay, as its builder lays it out.

    ``delay_s``/``loss_rate`` are the true network state, injected for the
    whole run as bursty loss — unless ``install_faults`` schedules timed
    fault actions on a clean link instead (a chaos phase and its nominal
    fault).  The experiment runs the ingested rate for ``duration_s``,
    within ``[min_messages, max_messages]``.  ``throttled`` intervals split
    the stream over the decision's producers, each polling at most 1/δ,
    and charge the shortfall as loss.  ``ack_accounting`` adds the
    producer's request/ack counts to what the controller observes.  A
    ``planned`` decision (an offline plan's entry) overrides the running
    one.
    """

    duration_s: float
    seed: int
    delay_s: float
    loss_rate: float
    min_messages: int = 10
    max_messages: Optional[int] = None
    throttled: bool = True
    telemetry: Optional[TelemetryConfig] = None
    ack_accounting: bool = False
    install_faults: Optional[Callable[[Experiment], None]] = None
    planned: Optional[Decision] = None


@dataclass(frozen=True)
class IntervalRecord:
    """One replayed interval: the decision it ran (with its true state),
    the result, the polling shortfall, and the trace if it ran traced."""

    interval: Interval
    decision: Decision
    result: ExperimentResult
    shortfall: float
    trace: Optional[List[Dict[str, Any]]] = field(default=None, repr=False)


def replay(
    intervals: List[Interval],
    stream: StreamProfile,
    start: Optional[Decision] = None,
    controller: Optional[Controller] = None,
) -> List[IntervalRecord]:
    """Run each interval as its own experiment under the running decision.

    The running decision starts as ``start``; after each interval the
    ``controller``, if any, observes what the producer saw and decides the
    next one.
    """
    records: List[IntervalRecord] = []
    decision = start
    for interval in intervals:
        decision = interval.planned or decision
        if decision is None:
            raise ValueError("the first interval needs a start or planned decision")
        config = decision.config
        rate = stream.arrival_rate
        shortfall = 0.0
        if interval.throttled:
            per_producer_rate = stream.arrival_rate / decision.producers
            if config.polling_interval_s > 0:
                rate = min(per_producer_rate, 1.0 / config.polling_interval_s)
            else:
                rate = per_producer_rate
            shortfall = max(0.0, per_producer_rate - rate) / per_producer_rate
        count = int(round(rate * interval.duration_s))
        if interval.max_messages is not None:
            count = min(count, interval.max_messages)
        injected = interval.install_faults is None
        experiment = Experiment(
            Scenario(
                message_bytes=stream.mean_payload_bytes,
                timeliness_s=stream.timeliness_s,
                network_delay_s=interval.delay_s if injected else 0.0,
                loss_rate=interval.loss_rate if injected else 0.0,
                config=config,
                message_count=max(interval.min_messages, count),
                seed=interval.seed,
                bursty_loss=injected,
                arrival_rate=rate,
            ),
            telemetry=interval.telemetry,
        )
        if interval.install_faults is not None:
            interval.install_faults(experiment)
        result = experiment.run()
        telemetry = experiment.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        truth = replace(
            decision, true_delay_s=interval.delay_s, true_loss_rate=interval.loss_rate
        )
        trace = tracer.records() if tracer is not None else None
        records.append(IntervalRecord(interval, truth, result, shortfall, trace))
        if controller is None:
            continue
        stats = experiment.producer.stats
        forward = experiment.channel.stats("forward")
        acks = interval.ack_accounting
        observation = IntervalObservation(
            requests_sent=stats.requests_sent if acks else 0,
            acknowledged=stats.acknowledged if acks else 0,
            request_retries=stats.request_retries if acks else 0,
            perceived_lost=stats.perceived_lost if acks else 0,
            segments_sent=forward.segments_sent,
            retransmissions=forward.retransmissions,
            min_rtt_s=experiment.channel.minimum_rtt("forward"),
            waits_for_ack=config.semantics.waits_for_ack,
        )
        controller.observe(observation, stream.mean_payload_bytes, config.batch_size)
        decision = controller.decide(stream, config)
    return records
