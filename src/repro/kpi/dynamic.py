"""Dynamic configuration of the producer (paper Section V, Table II).

The paper's scheme, reproduced faithfully:

* The network status over time is assumed known (a :class:`NetworkTrace`
  of Pareto delay and Gilbert–Elliott loss, Fig. 9).
* Configurations are generated **offline**: every re-configuration
  interval the controller reads the trace, runs the stepwise KPI search
  against the *prediction model*, and appends the chosen configuration to
  a configuration file.
* The experiment replays the file: the producer is restarted with the
  planned configuration each interval (Kafka cannot re-configure a live
  producer), while the fault injector replays the trace.
* Eq. 3 aggregates the per-interval measurements into the overall rates
  R_l and R_d that populate Table II.

Producer scaling (Section IV-C) is applied when the chosen polling
interval would throttle the stream's aggregate arrival rate: the plan
records how many producer instances are needed to keep ``N_p/δ`` constant
and the experiment divides the workload among them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from ..kafka.config import DEFAULT_PRODUCER_CONFIG, ProducerConfig
from ..kafka.semantics import DeliverySemantics
from ..models.predictor import ReliabilityPredictor
from ..network.trace import NetworkTrace
from ..observability.telemetry import RunTelemetry
from ..observability.trace import EventKind
from ..performance.queueing import ProducerPerformanceModel
from ..testbed.experiment import run_experiment
from ..testbed.scenario import Scenario
from ..workloads.streams import StreamProfile
from .aggregate import IntervalMeasurement, OverallRates, aggregate_rates
from .selection import (
    ParameterSteps,
    SelectionContext,
    evaluate_configs,
    select_configuration,
)
from .weighted import DEFAULT_WEIGHTS, KpiWeights

__all__ = [
    "ConfigPlanEntry",
    "ConfigurationPlan",
    "DynamicConfigurationController",
    "DynamicRunReport",
    "run_traced_experiment",
    "IntervalObservation",
    "CircuitBreaker",
    "DegradedDecision",
    "DegradedModeController",
    "PARKED_CONFIG",
]


@dataclass(frozen=True)
class ConfigPlanEntry:
    """One line of the offline configuration file."""

    time_s: float
    config: ProducerConfig
    producers: int
    predicted_gamma: float


@dataclass
class ConfigurationPlan:
    """The offline configuration file: config per re-configuration time."""

    interval_s: float
    entries: List[ConfigPlanEntry] = field(default_factory=list)

    def at(self, time_s: float) -> ConfigPlanEntry:
        """Entry in effect at ``time_s``."""
        if not self.entries:
            raise ValueError("empty plan")
        index = int(time_s // self.interval_s)
        index = min(max(index, 0), len(self.entries) - 1)
        return self.entries[index]

    def save(self, path: "str | Path") -> None:
        """Write the plan as JSON (the paper's dynamicConf file)."""
        payload = {
            "interval_s": self.interval_s,
            "entries": [
                {
                    "time_s": entry.time_s,
                    "producers": entry.producers,
                    "predicted_gamma": entry.predicted_gamma,
                    "config": {
                        **asdict(entry.config),
                        "semantics": entry.config.semantics.value,
                    },
                }
                for entry in self.entries
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: "str | Path") -> "ConfigurationPlan":
        """Read a plan saved with :meth:`save`.

        ``ProducerConfig`` fields missing from the file (older plans
        stored only some of them) take their defaults.
        """
        payload = json.loads(Path(path).read_text())
        plan = cls(interval_s=payload["interval_s"])
        for entry in payload["entries"]:
            config_data = dict(entry["config"])
            config_data["semantics"] = DeliverySemantics.parse(config_data["semantics"])
            plan.entries.append(
                ConfigPlanEntry(
                    time_s=entry["time_s"],
                    config=ProducerConfig(**config_data),
                    producers=entry["producers"],
                    predicted_gamma=entry["predicted_gamma"],
                )
            )
        return plan


class DynamicConfigurationController:
    """Generates configuration plans from the prediction model."""

    def __init__(
        self,
        predictor: ReliabilityPredictor,
        performance_model: Optional[ProducerPerformanceModel] = None,
        weights: KpiWeights = DEFAULT_WEIGHTS,
        gamma_requirement: float = 0.8,
        reconfig_interval_s: float = 60.0,
        steps: Optional[ParameterSteps] = None,
        telemetry: Optional[RunTelemetry] = None,
    ) -> None:
        if reconfig_interval_s <= 0:
            raise ValueError("reconfig_interval_s must be positive")
        # Offline planning has no simulator clock; controller decisions are
        # traced at their plan time instead.
        self._tracer = telemetry.tracer if telemetry is not None else None
        self._metrics = telemetry.metrics if telemetry is not None else None
        self.predictor = predictor
        self.performance_model = (
            performance_model
            if performance_model is not None
            else ProducerPerformanceModel()
        )
        self.weights = weights
        self.gamma_requirement = gamma_requirement
        self.reconfig_interval_s = reconfig_interval_s
        self.steps = steps

    def generate_plan(
        self,
        trace: NetworkTrace,
        stream: StreamProfile,
        start: Optional[ProducerConfig] = None,
    ) -> ConfigurationPlan:
        """Walk the trace and choose a configuration per interval.

        Each interval's search starts from the previous choice — changing
        configuration has a restart cost, so staying close is preferred
        (the paper checks γ "every other time interval" for the same
        reason).
        """
        plan = ConfigurationPlan(interval_s=self.reconfig_interval_s)
        config = start if start is not None else DEFAULT_PRODUCER_CONFIG
        time_s = 0.0
        while time_s < trace.duration_s:
            point = trace.at(time_s)
            context = SelectionContext(
                message_bytes=stream.mean_payload_bytes,
                timeliness_s=stream.timeliness_s,
                network_delay_s=point.delay_s,
                loss_rate=point.loss_rate,
            )
            selection = select_configuration(
                context,
                self.predictor,
                self.performance_model,
                weights=self.weights,
                gamma_requirement=self.gamma_requirement,
                start=config,
                steps=self.steps,
            )
            config = selection.config
            producers = required_producers(config, stream)
            if self._metrics is not None:
                self._metrics.counter("controller.decisions").inc()
                self._metrics.gauge("controller.predicted_gamma").set(selection.gamma)
            if self._tracer is not None:
                self._tracer.emit(
                    EventKind.CONTROLLER,
                    time_s,
                    semantics=config.semantics.value,
                    batch_size=config.batch_size,
                    polling_interval_s=config.polling_interval_s,
                    producers=producers,
                    predicted_gamma=selection.gamma,
                    delay_s=point.delay_s,
                    loss_rate=point.loss_rate,
                )
            plan.entries.append(
                ConfigPlanEntry(
                    time_s=time_s,
                    config=config,
                    producers=producers,
                    predicted_gamma=selection.gamma,
                )
            )
            time_s += self.reconfig_interval_s
        return plan


def required_producers(config: ProducerConfig, stream: StreamProfile) -> int:
    """Producers needed so polling does not throttle the stream (IV-C)."""
    if config.polling_interval_s <= 0:
        return 1
    return max(1, int(math.ceil(stream.arrival_rate * config.polling_interval_s)))


@dataclass
class DynamicRunReport:
    """Outcome of replaying one policy against one stream and trace."""

    stream_name: str
    policy: str
    intervals: List[IntervalMeasurement]
    rates: OverallRates
    mean_stale_fraction: float


# --------------------------------------------------------------------------
# Degraded-mode control: EWMA estimation, fallback prediction, circuit breaker
# --------------------------------------------------------------------------

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

    requests_sent: int
    acknowledged: int
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

    @property
    def broker_silent(self) -> bool:
        """Requests went out but nothing came back — the outage signature.

        The strict form (zero acknowledgements); interval-granularity
        consumers like :class:`DegradedModeController` use a threshold on
        :attr:`ack_ratio` instead, because an interval that straddles the
        crash still contains a few pre-crash acknowledgements.
        """
        return self.ack_ratio == 0.0


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


@dataclass(frozen=True)
class DegradedDecision:
    """One control decision of the degraded-mode controller."""

    config: ProducerConfig
    predicted_gamma: float
    prediction_source: str
    breaker_state: str
    changed: bool
    reason: str


class DegradedModeController:
    """Closed-loop controller that survives estimator and predictor faults.

    Replaces the paper's oracle assumptions with three defensive layers:

    * network state comes from an EWMA estimator fed with what the
      producer actually observed (acks, timeouts, retries, RTTs) — see
      :class:`~repro.kpi.online.NetworkStateEstimator`;
    * predictions go through the ANN → nearest-neighbour → conservative
      fallback chain, so an uncovered submodel degrades the answer
      instead of crashing the controller;
    * a :class:`CircuitBreaker` watches for broker silence and parks the
      producer on :data:`PARKED_CONFIG` during outages, probing its way
      back once the cluster answers again.

    Hysteresis plus a minimum-hold window damp configuration flapping:
    a reconfiguration must buy at least ``hysteresis`` of predicted γ and
    cannot follow another one within ``min_hold_intervals`` intervals.
    Every decision is a pure function of the observations fed in, so runs
    stay bit-identical under a fixed seed.
    """

    def __init__(
        self,
        predictor: ReliabilityPredictor,
        performance_model: Optional[ProducerPerformanceModel] = None,
        weights: KpiWeights = DEFAULT_WEIGHTS,
        gamma_requirement: float = 0.8,
        steps: Optional[ParameterSteps] = None,
        hysteresis: float = 0.02,
        min_hold_intervals: int = 2,
        parked_config: ProducerConfig = PARKED_CONFIG,
        breaker: Optional[CircuitBreaker] = None,
        silence_threshold: float = 0.1,
    ) -> None:
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        if min_hold_intervals < 1:
            raise ValueError("min_hold_intervals must be >= 1")
        if not 0.0 <= silence_threshold < 1.0:
            raise ValueError("silence_threshold must be in [0, 1)")
        # Imported lazily: kpi.online imports this module at load time.
        from .online import NetworkStateEstimator

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
        self.parked_config = parked_config
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.silence_threshold = silence_threshold
        self.estimator = NetworkStateEstimator(self.performance_model)
        self._intervals_since_change = min_hold_intervals

    def observe(
        self,
        observation: IntervalObservation,
        message_bytes: int,
        batch_size: int,
    ) -> None:
        """Feed one interval's producer-side signals into the estimator.

        An interval counts as *silent* when at most ``silence_threshold``
        of its requests were acknowledged — the strict zero-ack test would
        miss an outage whose interval straddles the crash.  Intervals with
        no reachability signal at all (nothing sent, or a fire-and-forget
        configuration that never asks for acks) skip the breaker entirely:
        recording "healthy" there would wrongly close an open breaker.
        """
        ratio = observation.ack_ratio
        if ratio is not None:
            self.breaker.record(healthy=ratio > self.silence_threshold)
        if observation.segments_sent > 0:
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
            self.estimator.observe_rtt(
                observation.min_rtt_s, message_bytes, batch_size
            )

    def _gamma_of(
        self, config: ProducerConfig, context: SelectionContext
    ) -> Tuple[float, str]:
        # A batch of one: repeated control ticks under unchanged
        # conditions serve from the predictor's memo.
        return evaluate_configs(
            [config], context, self.predictor, self.performance_model, self.weights
        )[0]

    def decide(
        self, stream: StreamProfile, current: ProducerConfig
    ) -> DegradedDecision:
        """Choose the next interval's configuration from current beliefs."""
        estimate = self.estimator.estimate()
        context = SelectionContext(
            message_bytes=stream.mean_payload_bytes,
            timeliness_s=stream.timeliness_s,
            network_delay_s=estimate.delay_s,
            loss_rate=estimate.loss_rate,
        )
        self._intervals_since_change += 1
        if not self.breaker.allows_selection:
            gamma, source = self._gamma_of(self.parked_config, context)
            changed = self.parked_config != current
            if changed:
                self._intervals_since_change = 0
            return DegradedDecision(
                config=self.parked_config,
                predicted_gamma=gamma,
                prediction_source=source,
                breaker_state=self.breaker.state,
                changed=changed,
                reason="parked",
            )
        current_gamma, current_source = self._gamma_of(current, context)
        if not estimate.confident:
            return DegradedDecision(
                config=current,
                predicted_gamma=current_gamma,
                prediction_source=current_source,
                breaker_state=self.breaker.state,
                changed=False,
                reason="insufficient_signal",
            )
        if self._intervals_since_change < self.min_hold_intervals:
            return DegradedDecision(
                config=current,
                predicted_gamma=current_gamma,
                prediction_source=current_source,
                breaker_state=self.breaker.state,
                changed=False,
                reason="held",
            )
        selection = select_configuration(
            context,
            self.predictor,
            self.performance_model,
            weights=self.weights,
            gamma_requirement=self.gamma_requirement,
            start=current,
            steps=self.steps,
        )
        # Observability guard: when predictions already come from a
        # degraded fallback tier, refuse to switch to a fire-and-forget
        # configuration — it would turn off the ack stream, the breaker's
        # only reachability signal, exactly when the controller is flying
        # blind.  With healthy ANN coverage the trade-off is the model's
        # call and the guard stays out of the way.
        blind_switch = (
            selection.prediction_source != "ann"
            and not selection.config.semantics.waits_for_ack
            and current.semantics.waits_for_ack
        )
        if (
            selection.config == current
            or selection.gamma < current_gamma + self.hysteresis
            or blind_switch
        ):
            return DegradedDecision(
                config=current,
                predicted_gamma=current_gamma,
                prediction_source=current_source,
                breaker_state=self.breaker.state,
                changed=False,
                reason="held",
            )
        self._intervals_since_change = 0
        chosen_gamma, chosen_source = self._gamma_of(selection.config, context)
        return DegradedDecision(
            config=selection.config,
            predicted_gamma=chosen_gamma,
            prediction_source=chosen_source,
            breaker_state=self.breaker.state,
            changed=True,
            reason="reconfigured",
        )


def run_traced_experiment(
    trace: NetworkTrace,
    stream: StreamProfile,
    plan: Optional[ConfigurationPlan] = None,
    static_config: Optional[ProducerConfig] = None,
    seed: int = 1,
    messages_cap_per_interval: Optional[int] = None,
) -> DynamicRunReport:
    """Replay a trace against a policy and aggregate Eq. 3.

    Exactly one of ``plan`` (dynamic policy) or ``static_config``
    (default policy) must be given.  Each trace interval runs as its own
    testbed experiment — the paper restarts the producer on every
    configuration change anyway — and contributes a workload-weighted
    interval measurement.
    """
    if (plan is None) == (static_config is None):
        raise ValueError("give exactly one of plan or static_config")
    intervals: List[IntervalMeasurement] = []
    stale_fractions: List[float] = []
    policy = "dynamic" if plan is not None else "default"
    for index, point in enumerate(trace):
        if plan is not None:
            entry = plan.at(point.time_s)
            config, producers = entry.config, entry.producers
        else:
            config, producers = static_config, 1
        interval_messages = stream.arrival_rate * trace.interval_s
        per_producer_rate = stream.arrival_rate / producers
        # Producers ingest at most 1/δ each; workload beyond that backs up
        # upstream indefinitely and is charged as loss (never delivered in
        # time under a finite run).
        if config.polling_interval_s > 0:
            effective_rate = min(per_producer_rate, 1.0 / config.polling_interval_s)
        else:
            effective_rate = per_producer_rate
        shortfall = max(0.0, per_producer_rate - effective_rate) / per_producer_rate
        count = int(round(effective_rate * trace.interval_s))
        if messages_cap_per_interval is not None:
            count = min(count, messages_cap_per_interval)
        count = max(10, count)
        scenario = Scenario(
            message_bytes=stream.mean_payload_bytes,
            timeliness_s=stream.timeliness_s,
            network_delay_s=point.delay_s,
            loss_rate=point.loss_rate,
            config=config,
            message_count=count,
            seed=seed + 31 * index,
            bursty_loss=True,
            arrival_rate=effective_rate,
        )
        result = run_experiment(scenario)
        p_loss = min(1.0, result.p_loss * (1.0 - shortfall) + shortfall)
        intervals.append(
            IntervalMeasurement(
                messages=interval_messages,
                p_loss=p_loss,
                p_duplicate=result.p_duplicate,
            )
        )
        stale_fractions.append(result.p_stale)
    rates = aggregate_rates(intervals)
    mean_stale = sum(stale_fractions) / len(stale_fractions) if stale_fractions else 0.0
    return DynamicRunReport(
        stream_name=stream.name,
        policy=policy,
        intervals=intervals,
        rates=rates,
        mean_stale_fraction=mean_stale,
    )
