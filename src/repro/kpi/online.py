"""Online dynamic configuration (the paper's future-work extension).

Section V assumes "the network status to be known" and generates the
configuration file offline; the conclusion lists an online algorithm as
future work.  This module implements that extension with the one
:class:`~repro.kpi.control.Controller`, fed by its EWMA
:class:`~repro.kpi.control.NetworkStateEstimator` instead of the trace:
the estimator infers the current one-way delay and packet loss rate purely
from producer-observable signals (response round-trip times and transport
retransmission counters), and the controller re-runs the paper's stepwise
KPI search every interval against that estimate, with a hysteresis guard
so small estimate wobbles do not trigger restarts (the paper: frequent
changes cost coordination overhead).

The online loop therefore needs no oracle: the bench compares it against
both the offline (oracle-trace) controller and the static default.
"""

from __future__ import annotations

from typing import Optional

from ..kafka.config import DEFAULT_PRODUCER_CONFIG, ProducerConfig
from ..models.predictor import ReliabilityPredictor
from ..network.trace import NetworkTrace
from ..performance.queueing import ProducerPerformanceModel
from ..workloads.streams import StreamProfile
from .control import Controller, Decision, Interval, replay, required_producers
from .dynamic import DynamicRunReport
from .selection import ParameterSteps
from .weighted import DEFAULT_WEIGHTS, KpiWeights

__all__ = ["OnlineDynamicController", "run_online_experiment"]


def OnlineDynamicController(
    predictor: ReliabilityPredictor,
    performance_model: Optional[ProducerPerformanceModel] = None,
    weights: KpiWeights = DEFAULT_WEIGHTS,
    gamma_requirement: float = 0.95,
    steps: Optional[ParameterSteps] = None,
    hysteresis: float = 0.02,
) -> Controller:
    """The online preset: a :class:`Controller` with a hysteresis guard.

    Use one per run — the controller carries its estimator's belief.
    """
    return Controller(
        predictor,
        performance_model,
        weights,
        gamma_requirement,
        steps,
        hysteresis=hysteresis,
    )


def run_online_experiment(
    trace: NetworkTrace,
    stream: StreamProfile,
    controller: Controller,
    seed: int = 1,
    start: Optional[ProducerConfig] = None,
    reconfig_interval_s: float = 60.0,
    messages_cap_per_interval: Optional[int] = None,
) -> DynamicRunReport:
    """Replay a trace with closed-loop (estimate → reconfigure) control.

    Unlike :func:`~repro.kpi.dynamic.run_traced_experiment`, the network
    state is **never** read from the trace by the controller: the trace is
    sampled once per reconfiguration interval, each interval's experiment
    feeds the estimator with the transport signals it produced, and the
    next interval's configuration comes from the estimate alone.
    """
    config = start if start is not None else DEFAULT_PRODUCER_CONFIG
    intervals = [
        Interval(
            duration_s=reconfig_interval_s,
            seed=seed + 101 * index,
            delay_s=point.delay_s,
            loss_rate=point.loss_rate,
            max_messages=messages_cap_per_interval,
        )
        for index, (_, point) in enumerate(trace.sample(reconfig_interval_s))
    ]
    start_decision = Decision(
        config, "start", producers=required_producers(config, stream)
    )
    return DynamicRunReport.from_records(
        stream, "online", replay(intervals, stream, start_decision, controller)
    )
