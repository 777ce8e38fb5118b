"""Chaos campaign runner: replay a schedule, measure the degradation.

A campaign replays every phase of a :class:`~repro.chaos.schedule.ChaosSchedule`
as its own fully-telemetered testbed experiment, under one of two control
policies:

* ``static`` — the default producer configuration for every phase (the
  control group);
* ``degraded`` — the :class:`~repro.kpi.control.Controller` closed loop
  with its breaker, hysteresis and min-hold guards: each phase's
  producer-observable signals feed the EWMA network estimator and the
  circuit breaker, and the *next* phase runs whatever configuration the
  controller decided.

Phases run through the one interval-replay loop,
:func:`~repro.kpi.control.replay`; a phase interval starts on a clean
link, schedules the phase's fault actions, runs traced with invariant
checks, and is never throttled by the polling rate.

Each phase report holds the phase's replayed
:class:`~repro.kpi.control.IntervalRecord` — its result (``P_l``, ``P_d``,
run manifest) and its decision (configuration, predicted γ and fallback
tier, breaker state) — plus the measured γ against the stream's KPI
weights and the time-to-recover extracted from the trace: the gap between
the last restore/clear action and the first acknowledgement after it.
The trace is dropped from the record once that gap is measured.  The
campaign report is pure simulation output — no wall-clock times — so one
seed produces byte-identical JSON on every run, which is the determinism
contract the tests pin.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional

from ..kafka.config import DEFAULT_PRODUCER_CONFIG
from ..kpi.control import (
    CircuitBreaker,
    Controller,
    Decision,
    Interval,
    IntervalRecord,
    OverallRates,
    overall_rates,
    replay,
)
from ..kpi.selection import SelectionContext, evaluate_configs
from ..kpi.weighted import KpiWeights, kpi_from_estimates
from ..models.predictor import ReliabilityEstimate, ReliabilityPredictor
from ..observability.telemetry import TelemetryConfig
from ..observability.trace import EventKind
from ..performance.queueing import ProducerPerformanceModel
from ..testbed.experiment import Experiment
from ..workloads.streams import StreamProfile, WEB_ACCESS_LOGS
from .schedule import ChaosPhase, ChaosSchedule

__all__ = ["PhaseReport", "CampaignReport", "phase_seed", "run_campaign"]


def phase_seed(campaign_seed: int, index: int, phase_name: str) -> int:
    """Derive a phase's experiment seed from the campaign seed.

    Hash-derived rather than additive so reordering or renaming phases
    changes their seeds — two campaigns only share per-phase randomness if
    they share the phase *and* its position.
    """
    payload = f"{campaign_seed}:{index}:{phase_name}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=6).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class PhaseReport:
    """Measured outcome of one campaign phase: its replayed record (trace
    dropped), the measured γ and the time to recover."""

    phase: ChaosPhase
    index: int
    record: IntervalRecord
    gamma_measured: float
    time_to_recover_s: Optional[float]

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (already free of wall-clock fields)."""
        decision, result = self.record.decision, self.record.result
        config = decision.config
        manifest = result.manifest or {}
        actions = [action.kind for action in self.phase.actions]
        return {
            "name": self.phase.name,
            "index": self.index,
            "duration_s": self.phase.duration_s,
            "seed": self.record.interval.seed,
            "config": {
                "semantics": config.semantics.value,
                "batch_size": config.batch_size,
                "polling_interval_s": config.polling_interval_s,
                "message_timeout_s": config.message_timeout_s,
            },
            "produced": result.produced,
            "p_loss": result.p_loss,
            "p_duplicate": result.p_duplicate,
            "p_stale": result.p_stale,
            "gamma_measured": self.gamma_measured,
            "gamma_predicted": decision.predicted_gamma,
            "prediction_source": decision.prediction_source,
            "breaker_state": decision.breaker_state,
            "decision_reason": decision.reason,
            "time_to_recover_s": self.time_to_recover_s,
            "faults_injected": actions.count("inject_fault"),
            "broker_crashes": actions.count("crash_broker"),
            "trace_digest": manifest.get("trace_digest"),
            "events_processed": manifest.get("events_processed", 0),
        }


@dataclass
class CampaignReport:
    """The full campaign outcome; serialises to deterministic JSON."""

    schedule_name: str
    policy: str
    seed: int
    stream_name: str
    phases: List[PhaseReport] = field(default_factory=list)

    @property
    def rates(self) -> OverallRates:
        """Eq. 3 across all phases, each weighted by the messages it produced."""
        records = [phase.record for phase in self.phases]
        return overall_rates(records, [record.result.produced for record in records])

    @property
    def overall_p_loss(self) -> float:
        """Message-weighted loss rate across all phases."""
        return self.rates.r_loss

    @property
    def overall_p_duplicate(self) -> float:
        """Message-weighted duplicate rate across all phases."""
        return self.rates.r_duplicate

    @property
    def mean_gamma(self) -> float:
        """Mean measured γ across phases."""
        if not self.phases:
            return 0.0
        return sum(phase.gamma_measured for phase in self.phases) / len(self.phases)

    @property
    def breaker_trips(self) -> int:
        """Phases whose configuration came from an open breaker."""
        return sum(1 for phase in self.phases if phase.record.decision.reason == "parked")

    def to_dict(self) -> Dict[str, object]:
        """Deterministic plain-dict form — simulation outputs only.

        Wall-clock durations are deliberately absent: two runs of the same
        seeded campaign must serialise to the same bytes.
        """
        return {
            "kind": "chaos_campaign_report",
            "schedule": self.schedule_name,
            "policy": self.policy,
            "seed": self.seed,
            "stream": self.stream_name,
            "overall_p_loss": self.overall_p_loss,
            "overall_p_duplicate": self.overall_p_duplicate,
            "mean_gamma": self.mean_gamma,
            "breaker_trips": self.breaker_trips,
            "phases": [phase.to_dict() for phase in self.phases],
        }

    def to_json(self) -> str:
        """Byte-stable JSON (sorted keys, fixed separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _schedule_actions(experiment: Experiment, phase: ChaosPhase) -> None:
    """Install the phase's timed actions into the experiment's simulator."""
    injector = experiment.injector
    for action in phase.actions:
        if action.kind == "inject_fault":
            injector.inject_at(action.time_s, action.fault)
        elif action.kind == "clear_fault":
            injector.clear_at(action.time_s)
        elif action.kind == "crash_broker":
            injector.crash_broker_at(action.time_s, action.broker_id)
        else:
            injector.restore_broker_at(action.time_s, action.broker_id)


def _time_to_recover(
    records: List[dict], recovery_time: Optional[float]
) -> Optional[float]:
    """Gap between the phase's last scheduled recovery and the first ack.

    ``recovery_time`` is the phase's last restore/clear action
    (:attr:`ChaosPhase.last_recovery_s`); the ack comes from the trace.
    The run's *final* fault-clear record cannot anchor this — the testbed
    always clears treatments after the simulator drains, long after any
    real recovery.  ``None`` when the phase never schedules a recovery or
    nothing was acknowledged afterwards (the system never came back).
    """
    if recovery_time is None:
        return None
    for record in records:
        if record.get("kind") == EventKind.ACK and record["t"] >= recovery_time:
            return record["t"] - recovery_time
    return None


def _phase_conditions(phase: ChaosPhase) -> "tuple[float, float]":
    """The nominal (delay, loss) the phase injects, for prediction input."""
    delay = 0.0
    loss = 0.0
    for action in phase.actions:
        if action.kind == "inject_fault":
            delay = max(delay, action.fault.delay_s)
            loss = max(loss, action.fault.loss_rate)
    return delay, loss


def _clip01(value: float) -> float:
    return min(1.0, max(0.0, value))


def run_campaign(
    schedule: ChaosSchedule,
    stream: StreamProfile = WEB_ACCESS_LOGS,
    policy: str = "static",
    seed: int = 0,
    predictor: Optional[ReliabilityPredictor] = None,
    performance_model: Optional[ProducerPerformanceModel] = None,
    messages_cap_per_phase: Optional[int] = None,
) -> CampaignReport:
    """Replay a chaos schedule under one policy and report per phase.

    Parameters
    ----------
    schedule:
        The campaign to replay, one experiment per phase.
    stream:
        Workload shape and KPI weights; the measured γ of each phase uses
        this stream's weights.
    policy:
        ``"static"`` (the default producer configuration throughout) or
        ``"degraded"`` (the closed-loop controller with breaker,
        hysteresis and min-hold guards, starting from that
        configuration).
    seed:
        Campaign seed; every phase derives its experiment seed from it via
        :func:`phase_seed`, so the whole campaign is one deterministic
        function of ``(schedule, stream, policy, seed)``.
    predictor:
        Reliability predictor for the degraded controller and for
        predicted-γ reporting.  An untrained predictor is fine — the
        fallback chain answers from memory or the conservative floor,
        and the report records which tier it had to use.
    messages_cap_per_phase:
        Optional ceiling on messages per phase for quick smoke runs.
    """
    if policy not in ("static", "degraded"):
        raise ValueError('policy must be "static" or "degraded"')
    model = (
        performance_model
        if performance_model is not None
        else ProducerPerformanceModel()
    )
    controller: Optional[Controller] = None
    if policy == "degraded":
        controller = Controller(
            predictor if predictor is not None else ReliabilityPredictor(),
            performance_model=model,
            hysteresis=0.02,
            min_hold_intervals=2,
            breaker=CircuitBreaker(),
        )
    telemetry = TelemetryConfig()
    cap = messages_cap_per_phase
    intervals = [
        Interval(
            phase.duration_s,
            phase_seed(seed, index, phase.name),
            *_phase_conditions(phase),
            # The floor of 10 messages applies before the cap.
            min_messages=10 if cap is None else min(10, cap),
            max_messages=cap,
            throttled=False,
            telemetry=telemetry,
            ack_accounting=True,
            install_faults=partial(_schedule_actions, phase=phase),
        )
        for index, phase in enumerate(schedule.phases)
    ]
    records = replay(
        intervals, stream, Decision(DEFAULT_PRODUCER_CONFIG, "start"), controller
    )
    weights = KpiWeights.of(stream.kpi_weights)
    report = CampaignReport(
        schedule_name=schedule.name,
        policy=policy,
        seed=seed,
        stream_name=stream.name,
    )
    for index, (phase, record) in enumerate(zip(schedule.phases, records)):
        decision, result = record.decision, record.result
        config = decision.config
        delay, loss = record.interval.delay_s, record.interval.loss_rate
        if controller is None and predictor is not None:
            # Phases repeating the same conditions hit the predictor's
            # quantised-feature memo instead of re-running the forward pass.
            context = SelectionContext(
                message_bytes=stream.mean_payload_bytes,
                timeliness_s=stream.timeliness_s,
                network_delay_s=delay,
                loss_rate=loss,
            )
            predicted, source = evaluate_configs(
                [config], context, predictor, model, weights
            )[0]
            decision = replace(
                decision, predicted_gamma=predicted, prediction_source=source
            )
        gamma_measured = kpi_from_estimates(
            model.predict(config, stream.mean_payload_bytes, network_delay_s=delay),
            ReliabilityEstimate(
                p_loss=_clip01(result.p_loss),
                p_duplicate=_clip01(result.p_duplicate),
            ),
            weights,
        )
        recover = _time_to_recover(record.trace or [], phase.last_recovery_s)
        report.phases.append(
            PhaseReport(
                phase,
                index,
                replace(record, decision=decision, trace=None),
                gamma_measured,
                recover,
            )
        )
    return report
