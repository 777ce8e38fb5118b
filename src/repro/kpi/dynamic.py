"""Dynamic configuration of the producer (paper Section V, Table II).

The paper's scheme, reproduced faithfully:

* The network status over time is assumed known (a :class:`NetworkTrace`
  of Pareto delay and Gilbert–Elliott loss, Fig. 9).
* Configurations are generated **offline**: every re-configuration
  interval the controller reads the trace, runs the stepwise KPI search
  against the *prediction model*, and records the chosen configuration in
  a :class:`ConfigurationPlan`.  The paper writes this plan to a
  configuration file; here it is passed in memory and never written.
* The experiment replays the plan: the producer is restarted with the
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

from dataclasses import dataclass, field
from typing import List, Optional

from ..kafka.config import DEFAULT_PRODUCER_CONFIG, ProducerConfig
from ..models.predictor import ReliabilityPredictor
from ..network.trace import NetworkTrace, interval_index
from ..performance.queueing import ProducerPerformanceModel
from ..workloads.streams import StreamProfile
from .control import (
    Controller,
    Decision,
    Interval,
    IntervalRecord,
    OverallRates,
    overall_rates,
    replay,
)
from .selection import ParameterSteps
from .weighted import DEFAULT_WEIGHTS, KpiWeights

__all__ = [
    "ConfigPlanEntry",
    "ConfigurationPlan",
    "DynamicConfigurationController",
    "DynamicRunReport",
    "run_traced_experiment",
]


@dataclass(frozen=True)
class ConfigPlanEntry:
    """One interval of the offline plan: when it starts and what was decided."""

    time_s: float
    decision: Decision

    @property
    def config(self) -> ProducerConfig:
        """The planned producer configuration."""
        return self.decision.config

    @property
    def producers(self) -> int:
        """How many producer instances the plan runs."""
        return self.decision.producers

    @property
    def predicted_gamma(self) -> Optional[float]:
        """The γ the planner predicted for :attr:`config`."""
        return self.decision.predicted_gamma


@dataclass
class ConfigurationPlan:
    """The offline plan: one decision per re-configuration interval."""

    interval_s: float
    entries: List[ConfigPlanEntry] = field(default_factory=list)

    def at(self, time_s: float) -> ConfigPlanEntry:
        """Entry in effect at ``time_s``."""
        if not self.entries:
            raise ValueError("empty plan")
        index = interval_index(time_s, self.interval_s)
        index = min(max(index, 0), len(self.entries) - 1)
        return self.entries[index]


class DynamicConfigurationController:
    """The offline planner: the :class:`~repro.kpi.control.Controller` fed
    by the trace oracle once per reconfiguration interval, with no guard."""

    def __init__(
        self,
        predictor: ReliabilityPredictor,
        performance_model: Optional[ProducerPerformanceModel] = None,
        weights: KpiWeights = DEFAULT_WEIGHTS,
        gamma_requirement: float = 0.8,
        reconfig_interval_s: float = 60.0,
        steps: Optional[ParameterSteps] = None,
    ) -> None:
        if reconfig_interval_s <= 0:
            raise ValueError("reconfig_interval_s must be positive")
        self.controller = Controller(
            predictor, performance_model, weights, gamma_requirement, steps
        )
        self.reconfig_interval_s = reconfig_interval_s

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
        for time_s, point in trace.sample(self.reconfig_interval_s):
            decision = self.controller.decide(stream, config, known=point)
            config = decision.config
            plan.entries.append(ConfigPlanEntry(time_s, decision))
        return plan


@dataclass
class DynamicRunReport:
    """Outcome of replaying one policy against one stream and trace: the
    replayed records, each weighted by the workload it carried (λ·dt)."""

    stream_name: str
    policy: str
    records: List[IntervalRecord]
    weights: List[float]

    @classmethod
    def from_records(
        cls, stream: StreamProfile, policy: str, records: List[IntervalRecord]
    ) -> "DynamicRunReport":
        """Weight each replayed interval by the stream's arrival rate × duration."""
        weights = [stream.arrival_rate * record.interval.duration_s for record in records]
        return cls(stream.name, policy, records, weights)

    @property
    def rates(self) -> OverallRates:
        """Eq. 3 over the intervals, the polling shortfall charged as loss."""
        return overall_rates(self.records, self.weights)

    @property
    def mean_stale_fraction(self) -> float:
        """Mean stale fraction across intervals."""
        stale = [record.result.p_stale for record in self.records]
        return sum(stale) / len(stale) if stale else 0.0

    @property
    def decisions(self) -> List[Decision]:
        """The decision behind each interval's configuration."""
        return [record.decision for record in self.records]


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
    (default policy, one producer) must be given.  Each trace interval
    runs as its own testbed experiment — the paper restarts the producer
    on every configuration change anyway — and contributes its record,
    weighted by the workload it carried.
    """
    if (plan is None) == (static_config is None):
        raise ValueError("give exactly one of plan or static_config")
    intervals = [
        Interval(
            duration_s=trace.interval_s,
            seed=seed + 31 * index,
            delay_s=point.delay_s,
            loss_rate=point.loss_rate,
            max_messages=messages_cap_per_interval,
            planned=plan.at(point.time_s).decision if plan is not None else None,
        )
        for index, point in enumerate(trace)
    ]
    start = Decision(static_config, "static") if static_config is not None else None
    return DynamicRunReport.from_records(
        stream,
        "dynamic" if plan is not None else "default",
        replay(intervals, stream, start),
    )
