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
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional

from ..kafka.config import DEFAULT_PRODUCER_CONFIG, ProducerConfig
from ..kafka.semantics import DeliverySemantics
from ..models.predictor import ReliabilityPredictor
from ..network.trace import NetworkTrace
from ..performance.queueing import ProducerPerformanceModel
from ..workloads.streams import StreamProfile
from .aggregate import IntervalMeasurement, OverallRates, aggregate_rates
from .control import Controller, Decision, Interval, IntervalRecord, replay
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
    """One line of the offline configuration file."""

    time_s: float
    config: ProducerConfig
    producers: int
    predicted_gamma: Optional[float]
    #: The controller's decision record; not saved with the plan.
    decision: Optional[Decision] = field(default=None, compare=False, repr=False)

    def planned(self) -> Decision:
        """The decision a replay runs (bare for an entry loaded from a file)."""
        if self.decision is not None:
            return self.decision
        return Decision(self.config, "planned", self.producers, self.predicted_gamma)


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
            plan.entries.append(
                ConfigPlanEntry(
                    time_s, config, decision.producers, decision.predicted_gamma, decision
                )
            )
        return plan


@dataclass
class DynamicRunReport:
    """Outcome of replaying one policy against one stream and trace."""

    stream_name: str
    policy: str
    intervals: List[IntervalMeasurement]
    rates: OverallRates
    mean_stale_fraction: float
    #: The decision behind each interval's configuration.
    decisions: List[Decision] = field(default_factory=list)

    @classmethod
    def from_records(
        cls, stream: StreamProfile, policy: str, records: List[IntervalRecord]
    ) -> "DynamicRunReport":
        """Eq. 3 over replayed intervals, the polling shortfall charged as loss."""
        intervals = [
            IntervalMeasurement(
                messages=stream.arrival_rate * record.interval.duration_s,
                p_loss=min(
                    1.0,
                    record.result.p_loss * (1.0 - record.shortfall) + record.shortfall,
                ),
                p_duplicate=record.result.p_duplicate,
            )
            for record in records
        ]
        stale = [record.result.p_stale for record in records]
        return cls(
            stream_name=stream.name,
            policy=policy,
            intervals=intervals,
            rates=aggregate_rates(intervals),
            mean_stale_fraction=sum(stale) / len(stale) if stale else 0.0,
            decisions=[record.decision for record in records],
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
    (default policy, one producer) must be given.  Each trace interval
    runs as its own testbed experiment — the paper restarts the producer
    on every configuration change anyway — and contributes a
    workload-weighted interval measurement.
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
            planned=plan.at(point.time_s).planned() if plan is not None else None,
        )
        for index, point in enumerate(trace)
    ]
    start = Decision(static_config, "static") if static_config is not None else None
    return DynamicRunReport.from_records(
        stream,
        "dynamic" if plan is not None else "default",
        replay(intervals, stream, start),
    )
