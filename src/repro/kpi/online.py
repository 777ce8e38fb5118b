"""Online dynamic configuration (the paper's future-work extension).

Section V assumes "the network status to be known" and generates the
configuration file offline; the conclusion lists an online algorithm as
future work.  This module implements that extension:

* :class:`NetworkStateEstimator` infers the current one-way delay and
  packet loss rate purely from producer-observable signals — response
  round-trip times, transport retransmission counters and request
  failures — using exponentially weighted moving averages.
* :class:`OnlineDynamicController` re-runs the paper's stepwise KPI
  search every interval against the *estimated* state and reconfigures
  the producer, with a hysteresis guard so small estimate wobbles do not
  trigger restarts (the paper: frequent changes cost coordination
  overhead).

The online loop therefore needs no oracle: the bench compares it against
both the offline (oracle-trace) controller and the static default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..kafka.config import DEFAULT_PRODUCER_CONFIG, ProducerConfig
from ..models.predictor import ReliabilityPredictor
from ..network.trace import NetworkTrace
from ..performance.queueing import ProducerPerformanceModel
from ..testbed.experiment import Experiment
from ..testbed.scenario import Scenario
from ..workloads.streams import StreamProfile
from .aggregate import IntervalMeasurement, aggregate_rates
from .dynamic import DynamicRunReport, required_producers
from .selection import (
    ParameterSteps,
    SelectionContext,
    evaluate_configs,
    select_configuration,
)
from .weighted import DEFAULT_WEIGHTS, KpiWeights

__all__ = ["NetworkStateEstimate", "NetworkStateEstimator", "OnlineDynamicController", "run_online_experiment"]


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


class OnlineDynamicController:
    """Per-interval reconfiguration from estimated network state."""

    def __init__(
        self,
        predictor: ReliabilityPredictor,
        performance_model: Optional[ProducerPerformanceModel] = None,
        weights: KpiWeights = DEFAULT_WEIGHTS,
        gamma_requirement: float = 0.95,
        steps: Optional[ParameterSteps] = None,
        hysteresis: float = 0.02,
    ) -> None:
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

    def decide(
        self,
        estimate: NetworkStateEstimate,
        stream: StreamProfile,
        current: ProducerConfig,
    ) -> ProducerConfig:
        """Choose the next interval's configuration.

        Keeps the current configuration when the estimator has too little
        signal, or when the newly found optimum improves the predicted γ
        by less than the hysteresis margin (a restart is not free).
        """
        if not estimate.confident:
            return current
        context = SelectionContext(
            message_bytes=stream.mean_payload_bytes,
            timeliness_s=stream.timeliness_s,
            network_delay_s=estimate.delay_s,
            loss_rate=estimate.loss_rate,
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
        if selection.config == current:
            return current
        # Hysteresis against the *current* configuration evaluated under
        # the same estimate: a restart must buy a real γ improvement.
        current_gamma, _ = evaluate_configs(
            [current], context, self.predictor, self.performance_model, self.weights
        )[0]
        if selection.gamma < current_gamma + self.hysteresis:
            return current
        return selection.config


def run_online_experiment(
    trace: NetworkTrace,
    stream: StreamProfile,
    controller: OnlineDynamicController,
    seed: int = 1,
    start: Optional[ProducerConfig] = None,
    reconfig_interval_s: float = 60.0,
    messages_cap_per_interval: Optional[int] = None,
) -> DynamicRunReport:
    """Replay a trace with closed-loop (estimate → reconfigure) control.

    Unlike :func:`~repro.kpi.dynamic.run_traced_experiment`, the network
    state is **never** read from the trace by the controller: each
    interval's experiment feeds the estimator with the producer-side
    signals it produced, and the next interval's configuration comes from
    the estimate alone.
    """
    estimator = NetworkStateEstimator(controller.performance_model)
    config = start if start is not None else DEFAULT_PRODUCER_CONFIG
    intervals: List[IntervalMeasurement] = []
    stale: List[float] = []
    time_s = 0.0
    index = 0
    while time_s < trace.duration_s:
        point = trace.at(time_s)
        producers = required_producers(config, stream)
        per_producer_rate = stream.arrival_rate / producers
        if config.polling_interval_s > 0:
            effective_rate = min(per_producer_rate, 1.0 / config.polling_interval_s)
        else:
            effective_rate = per_producer_rate
        shortfall = max(0.0, per_producer_rate - effective_rate) / per_producer_rate
        count = int(round(effective_rate * reconfig_interval_s))
        if messages_cap_per_interval is not None:
            count = min(count, messages_cap_per_interval)
        scenario = Scenario(
            message_bytes=stream.mean_payload_bytes,
            timeliness_s=stream.timeliness_s,
            network_delay_s=point.delay_s,
            loss_rate=point.loss_rate,
            config=config,
            message_count=max(10, count),
            seed=seed + 101 * index,
            bursty_loss=True,
            arrival_rate=effective_rate,
        )
        experiment = Experiment(scenario)
        result = experiment.run()
        # Feed the estimator with what the producer could actually see.
        forward = experiment.channel.stats("forward")
        estimator.observe_transport(forward.segments_sent, forward.retransmissions)
        # The per-interval minimum RTT filters out self-induced queueing,
        # leaving propagation — the BBR-style estimate of path delay.
        min_rtt = experiment.channel.minimum_rtt("forward")
        if min_rtt is not None:
            estimator.observe_rtt(
                min_rtt, stream.mean_payload_bytes, config.batch_size
            )
        p_loss = min(1.0, result.p_loss * (1.0 - shortfall) + shortfall)
        intervals.append(
            IntervalMeasurement(
                messages=stream.arrival_rate * reconfig_interval_s,
                p_loss=p_loss,
                p_duplicate=result.p_duplicate,
            )
        )
        stale.append(result.p_stale)
        config = controller.decide(estimator.estimate(), stream, config)
        time_s += reconfig_interval_s
        index += 1
    rates = aggregate_rates(intervals)
    return DynamicRunReport(
        stream_name=stream.name,
        policy="online",
        intervals=intervals,
        rates=rates,
        mean_stale_fraction=sum(stale) / len(stale) if stale else 0.0,
    )
