"""The three benchmark workloads: ``collect``, ``paper-point``, ``control-loop``.

Each workload is a closed batch loop.  :meth:`Workload.setup` turns the
seed into inputs (and, for ``control-loop``, a trained predictor);
:meth:`Workload.run_unit` runs one unit of work through the program's
public functions and returns a :class:`Unit`: operations attempted and
failed, simulated messages produced, per-operation latencies, the
deterministic output records that are digested, and deterministic counts.

The shape of every workload is pinned with :data:`PINNED_SEED`: the grid
rows of both Fig. 3 plans, and for ``control-loop`` the training
collection, the trained predictor and both network traces.  ``--seed``
drives the random streams of every measured experiment (and the chaos
schedule), so the amount of work in a unit is the same for every seed
while its inputs still follow the seed.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

import repro.chaos.campaign as campaign
import repro.chaos.schedule as chaos_schedule
import repro.kpi.dynamic as dynamic
import repro.kpi.online as online
import repro.kpi.selection as selection
import repro.models.training as training
import repro.network.trace as network_trace
import repro.testbed.collection as collection
import repro.testbed.experiment as experiment
import repro.testbed.runner as runner
from repro.kafka.config import DEFAULT_PRODUCER_CONFIG, ProducerConfig
from repro.kafka.semantics import DeliverySemantics
from repro.kpi.weighted import KpiWeights
from repro.models.predictor import TrainingSettings
from repro.performance.queueing import ProducerPerformanceModel
from repro.testbed.scenario import Scenario
from repro.workloads.streams import PAPER_STREAMS

from hostclock import HostClock
from layers import Patcher

#: Seed of everything that fixes a workload's shape (see module docstring).
PINNED_SEED = 0

#: Input sizes.  ``full`` is the default and measured size; ``toy`` is the
#: self-test size (a few seconds for all three workloads).
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "collect_rows": (6, 6),
        "collect_messages": 2000,
        "paper_messages": 10000,
        "train_rows": (40, 48),
        "train_messages": 150,
        "train_epochs": 100,
        "decision_points": 36,
        "replay_points": 6,
        "replay_cap": 60,
        "phase_cap": 150,
    },
    "toy": {
        "collect_rows": (2, 2),
        "collect_messages": 200,
        "paper_messages": 500,
        "train_rows": (32, 32),
        "train_messages": 60,
        "train_epochs": 5,
        "decision_points": 4,
        "replay_points": 2,
        "replay_cap": 20,
        "phase_cap": 30,
    },
}


@dataclass
class Unit:
    """What one unit of work did."""

    attempted: int = 0
    failed: int = 0
    produced: int = 0
    #: Unit time in reference seconds (see ``hostclock.py``) and in raw
    #: wall seconds; calibration kernel runs are in neither.
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    op_latencies_s: List[float] = field(default_factory=list)
    records: List[Any] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)
    #: Whether every experiment ran in this process, so that the experiment
    #: log (and with it ``counts``) saw them all; false for a pooled run.
    in_process: bool = True


def _in_unit_range(*values: float) -> bool:
    return all(0.0 <= value <= 1.0 for value in values)


def log_experiments(patcher: Patcher, records: List[Dict[str, Any]]) -> None:
    """Append a record per ``Experiment.run`` while ``patcher`` is active.

    O(1) work per experiment: seed, P_l/P_d/P_s, census fractions and the
    event, segment, retransmission and duplicate-segment counts the
    experiment object exposes.
    """

    def make(run: Callable[..., Any]) -> Callable[..., Any]:
        def logged_run(exp: Any) -> Any:
            result = run(exp)
            forward = exp.channel.stats("forward")
            reverse = exp.channel.stats("reverse")
            records.append(
                {
                    "seed": exp.scenario.seed,
                    "produced": result.produced,
                    "p_loss": result.p_loss,
                    "p_duplicate": result.p_duplicate,
                    "p_stale": result.p_stale,
                    "cases": result.case_fractions,
                    "events": exp.sim.events_processed,
                    "segments": forward.segments_sent + reverse.segments_sent,
                    "retransmissions": forward.retransmissions + reverse.retransmissions,
                    "duplicate_segments": (
                        forward.duplicate_segments + reverse.duplicate_segments
                    ),
                    "ok": _in_unit_range(result.p_loss, result.p_duplicate, result.p_stale),
                }
            )
            return result

        return logged_run

    patcher.method(experiment.Experiment, "run", make)


def experiment_totals(records: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Deterministic counts summed over :func:`log_experiments` records."""
    if not records:
        return {}
    return {
        key: sum(r[key] for r in records)
        for key in (
            "produced", "events", "segments", "retransmissions", "duplicate_segments"
        )
    } | {"experiments": len(records)}


class Workload:
    """One named workload: seeded set-up plus a repeatable unit of work."""

    name = ""
    op_name = ""

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = SIZES[size]

    def setup(self) -> Any:
        raise NotImplementedError

    def run_unit(self, state: Any, traced: bool, serial: bool = False) -> Unit:
        """Run one unit; ``serial`` keeps every experiment in this process."""
        raise NotImplementedError

    def _run_logged(
        self, body: Callable[[HostClock], Unit], expected_ops: int
    ) -> Unit:
        """Run ``body`` on a fresh clock, logging experiments; a raise fails the unit."""
        records: List[Dict[str, Any]] = []
        patcher = Patcher()
        log_experiments(patcher, records)
        clock = HostClock()
        try:
            unit = body(clock)
        except Exception as exc:  # noqa: BLE001 - a failed unit is reported, not fatal
            unit = Unit(attempted=expected_ops, failed=expected_ops)
            unit.info["error"] = repr(exc)
        finally:
            clock.stop()
            patcher.restore()
        unit.wall_s = clock.total
        unit.raw_wall_s = clock.raw_total
        unit.info["kernel_s"] = clock.kernel_s
        unit.info["experiments"] = records
        unit.counts = experiment_totals(records) | unit.counts
        return unit


class _PinnedPlan(collection.CollectionPlan):
    """A Fig. 3 plan whose row subsample is drawn with :data:`PINNED_SEED`."""

    def scenarios(self, rng: Optional[np.random.Generator] = None) -> List[Scenario]:
        return super().scenarios(np.random.default_rng(PINNED_SEED))


def fig3_plans(seed: int, rows: Sequence[int], messages: int) -> List[_PinnedPlan]:
    """Pinned subsamples of both Fig. 3 grids; experiment seeds follow ``seed``."""
    base = Scenario(message_count=messages, seed=seed)
    plans = []
    for make, max_rows in zip(
        (collection.normal_case_plan, collection.abnormal_case_plan), rows
    ):
        plan = make(base=base, max_rows=max_rows)
        plans.append(_PinnedPlan(plan.name, plan.base, plan.axes, plan.max_rows))
    return plans


def _result_record(result: Any) -> Dict[str, Any]:
    return {
        "seed": result.seed,
        "produced": result.produced,
        "p_loss": result.p_loss,
        "p_duplicate": result.p_duplicate,
        "p_stale": result.p_stale,
        "cases": result.case_fractions,
        "retransmissions": result.retransmissions,
        "request_retries": result.request_retries,
        "duplicate_copies": result.duplicate_copies,
        "simulated_duration_s": result.simulated_duration_s,
    }


class Collect(Workload):
    """Both Fig. 3 grids through ``collect_training_data``, default workers."""

    name = "collect"
    op_name = "experiment"

    def setup(self) -> Any:
        size = self.size
        plans = fig3_plans(self.seed, size["collect_rows"], size["collect_messages"])
        return {"plans": plans, "experiments": sum(len(p.scenarios()) for p in plans)}

    def run_unit(self, state: Any, traced: bool, serial: bool = False) -> Unit:
        infos: List[Dict[str, Any]] = []
        latencies: List[float] = []

        def record_info(run_many: Callable[..., Any]) -> Callable[..., Any]:
            def with_info(*args: Any, **kwargs: Any) -> Any:
                info: Dict[str, Any] = {}
                kwargs.setdefault("execution_info", info)
                try:
                    return run_many(*args, **kwargs)
                finally:
                    infos.append(info)

            return with_info

        def body(clock: HostClock) -> Unit:
            def progress(index: int, total: int, scenario: Scenario) -> None:
                # A calibration kernel runs between experiments only while
                # no pool worker is alive: workers simulating during the
                # kernel would do work that no segment counts.  Traced runs
                # calibrate only around the whole call, as a kernel run here
                # would count as run_many's self time.
                calibrate = not traced and not multiprocessing.active_children()
                latencies.append(clock.lap(calibrate=calibrate))

            # The traced run is serial so every call is seen in-process.
            workers = 1 if traced or serial else None
            clock.start()
            results = collection.collect_training_data(
                state["plans"], progress=progress, workers=workers
            )
            # Pool teardown belongs to the run: every CLI invocation pays it.
            runner.shutdown_pool()
            clock.stop()
            records = [_result_record(result) for result in results]
            failed = sum(
                1
                for r in records
                if not _in_unit_range(r["p_loss"], r["p_duplicate"], r["p_stale"])
            )
            return Unit(
                attempted=len(results),
                failed=failed,
                produced=sum(r["produced"] for r in records),
                op_latencies_s=latencies,
                records=records,
            )

        patcher = Patcher()
        patcher.function("repro.testbed.runner", "run_many", record_info)
        try:
            unit = self._run_logged(body, state["experiments"])
        finally:
            patcher.restore()
        execution = infos[-1] if infos else {}
        unit.info["execution_info"] = execution
        unit.in_process = execution.get("mode") != "pool"
        return unit


def reference_scenario(seed: int, messages: int) -> Scenario:
    """The paper's reference point: M=200 B, D=100 ms, L=10 %, ALO, B=2."""
    return Scenario(
        message_bytes=200,
        network_delay_s=0.1,
        loss_rate=0.1,
        config=ProducerConfig(
            semantics=DeliverySemantics.AT_LEAST_ONCE, batch_size=2
        ),
        message_count=messages,
        seed=seed,
    )


class PaperPoint(Workload):
    """One long experiment at the reference vector via ``run_experiment``."""

    name = "paper-point"
    op_name = "experiment"

    def setup(self) -> Any:
        return reference_scenario(self.seed, self.size["paper_messages"])

    def run_unit(self, state: Any, traced: bool, serial: bool = False) -> Unit:
        def body(clock: HostClock) -> Unit:
            clock.start()
            result = experiment.run_experiment(state)
            elapsed = clock.stop()
            ok = _in_unit_range(result.p_loss, result.p_duplicate, result.p_stale)
            return Unit(
                attempted=1,
                failed=0 if ok else 1,
                produced=result.produced,
                op_latencies_s=[elapsed],
            )

        unit = self._run_logged(body, 1)
        # The log record adds event and segment counts to P_l/P_d/census.
        unit.records = unit.info["experiments"]
        return unit


class ControlLoop(Workload):
    """Trained predictor → timed decisions → the three replay loops."""

    name = "control-loop"
    op_name = "decision"

    def setup(self) -> Any:
        size = self.size
        # Pinned, so every seed makes the same decisions (same search work).
        report = training.train_reliability_model(
            plans=fig3_plans(PINNED_SEED, size["train_rows"], size["train_messages"]),
            settings=TrainingSettings(epochs=size["train_epochs"], seed=PINNED_SEED),
            seed=PINNED_SEED,
        )
        rng = np.random.default_rng(PINNED_SEED)
        decision_trace = network_trace.generate_paper_trace(
            rng, duration_s=10.0 * size["decision_points"], interval_s=10.0
        )
        replay_trace = network_trace.generate_paper_trace(
            rng, duration_s=60.0 * size["replay_points"], interval_s=60.0
        )
        return {
            "predictor": report.predictor,
            "decision_trace": decision_trace,
            "replay_trace": replay_trace,
        }

    def run_unit(self, state: Any, traced: bool, serial: bool = False) -> Unit:
        size = self.size
        predictor = state["predictor"]
        seed = self.seed

        def body(clock: HostClock) -> Unit:
            # Every unit starts cold: no prediction or performance memo
            # carries over from the previous unit.
            predictor.invalidate_caches()
            model = ProducerPerformanceModel()
            unit = Unit()
            hits0, misses0 = predictor.memo_stats
            decisions: List[Any] = []
            clock.start()
            for stream_index, stream in enumerate(PAPER_STREAMS):
                weights = KpiWeights.of(stream.kpi_weights)
                config = DEFAULT_PRODUCER_CONFIG
                raw_latencies: List[float] = []
                for point in state["decision_trace"]:
                    context = selection.SelectionContext(
                        message_bytes=stream.mean_payload_bytes,
                        timeliness_s=stream.timeliness_s,
                        network_delay_s=point.delay_s,
                        loss_rate=point.loss_rate,
                    )
                    start = time.perf_counter()
                    chosen = selection.select_configuration(
                        context,
                        predictor,
                        model,
                        weights=weights,
                        gamma_requirement=0.95,
                        start=config,
                    )
                    raw_latencies.append(time.perf_counter() - start)
                    config = chosen.config
                    unit.attempted += 1
                    if not math.isfinite(chosen.gamma):
                        unit.failed += 1
                    decisions.append(
                        [
                            stream_index,
                            config.semantics.value,
                            config.batch_size,
                            config.polling_interval_s,
                            config.message_timeout_s,
                            chosen.gamma,
                            chosen.steps_taken,
                        ]
                    )
                clock.lap()
                unit.op_latencies_s += [raw * clock.last_factor for raw in raw_latencies]
            unit.records.append({"decisions": decisions})
            unit.counts["decisions"] = len(decisions)
            unit.counts["search_steps"] = sum(d[-1] for d in decisions)
            replay = state["replay_trace"]
            cap = size["replay_cap"]
            for stream in PAPER_STREAMS:
                weights = KpiWeights.of(stream.kpi_weights)
                controller = dynamic.DynamicConfigurationController(
                    predictor,
                    model,
                    weights=weights,
                    gamma_requirement=0.95,
                    reconfig_interval_s=60.0,
                )
                plan = controller.generate_plan(replay, stream)
                reports = [
                    dynamic.run_traced_experiment(
                        replay, stream, plan=plan, seed=seed, messages_cap_per_interval=cap
                    ),
                    dynamic.run_traced_experiment(
                        replay,
                        stream,
                        static_config=DEFAULT_PRODUCER_CONFIG,
                        seed=seed,
                        messages_cap_per_interval=cap,
                    ),
                    online.run_online_experiment(
                        replay,
                        stream,
                        online.OnlineDynamicController(predictor, model, weights=weights),
                        seed=seed,
                        reconfig_interval_s=60.0,
                        messages_cap_per_interval=cap,
                    ),
                ]
                unit.records.append(
                    {
                        "plan": [
                            [e.time_s, e.config.semantics.value, e.config.batch_size,
                             e.config.polling_interval_s, e.producers, e.predicted_gamma]
                            for e in plan.entries
                        ],
                        "rates": [
                            [r.policy, r.rates.r_loss, r.rates.r_duplicate,
                             r.mean_stale_fraction]
                            for r in reports
                        ],
                    }
                )
                clock.lap()
            for policy in ("static", "degraded"):
                report = campaign.run_campaign(
                    chaos_schedule.flap_burst_schedule(seed),
                    policy=policy,
                    seed=seed,
                    predictor=predictor,
                    performance_model=model,
                    messages_cap_per_phase=size["phase_cap"],
                )
                unit.records.append({"campaign": report.to_dict()})
                clock.lap()
            hits, misses = predictor.memo_stats
            unit.info["memo"] = (hits - hits0, misses - misses0)
            return unit

        expected = 3 * len(state["decision_trace"])
        unit = self._run_logged(body, expected)
        experiments = unit.info["experiments"]
        unit.attempted += len(experiments)
        unit.failed += sum(1 for r in experiments if not r["ok"])
        unit.produced = sum(r["produced"] for r in experiments)
        unit.records.append({"experiments": experiments})
        return unit


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (Collect, PaperPoint, ControlLoop)
}
