"""Command-line interface for the reproduction toolkit.

Five subcommands cover the paper's workflow:

``repro experiment``
    Run one testbed experiment and print the measured reliability.
    ``--metrics`` emits the run's metrics + manifest as JSON instead of
    the table; ``--trace-file`` writes the structured event trace as
    JSONL for later ``repro inspect``.
``repro train``
    Collect Fig. 3 training data, train the ANN predictor, report MAE and
    optionally persist the model to a registry directory.
``repro dynamic``
    Generate a Fig. 9 trace, build the offline configuration plan with a
    stored (or freshly trained) model, replay default vs dynamic policies
    and print the Table II-style rates.
``repro chaos``
    Replay a seeded chaos campaign (broker flaps, loss bursts, delay
    spikes) under the static and/or degraded-mode control policies and
    print the per-phase degradation; ``--out`` writes the deterministic
    JSON campaign report.
``repro inspect``
    Load a ``--trace-file`` JSONL trace, replay it through the invariant
    checker and print a summary; exits non-zero on any violation.

Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict, List, Optional

from .analysis import render_table
from .chaos import flap_burst_schedule, run_campaign, staged_escalation_schedule
from .observability import (
    TelemetryConfig,
    conservation_violations,
    load_trace_file,
    trace_violations,
)
from .kafka import DEFAULT_PRODUCER_CONFIG, DeliverySemantics, ProducerConfig
from .kpi import DynamicConfigurationController, KpiWeights, run_traced_experiment
from .models import (
    ModelRegistry,
    ReliabilityPredictor,
    TrainingSettings,
    train_reliability_model,
)
from .network import generate_paper_trace
from .performance import ProducerPerformanceModel
from .simulation import RngRegistry
from .testbed import Scenario, abnormal_case_plan, normal_case_plan, run_many
from .workloads import PAPER_STREAMS
from .workloads.streams import GAME_TRAFFIC, SOCIAL_MEDIA, WEB_ACCESS_LOGS

__all__ = ["main", "build_parser"]


def _workers_argument(text: str):
    """Parse ``--workers``: a positive integer or the literal ``auto``."""
    value = text.strip().lower()
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'expected an integer or "auto", got {text!r}'
        ) from None


def _positive_int(text: str) -> int:
    """Parse a count that must be at least 1 (a usage error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """Parse a duration that must be positive and finite (a usage error otherwise)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    # Written as ``not <`` so NaN is rejected too.
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text}")
    return value


def _execution_line(info: dict) -> str:
    """One-line human summary of how a grid actually executed."""
    mode = info.get("mode", "?")
    parts = [f"mode={mode}"]
    if info.get("workers"):
        parts.append(f"workers={info['workers']}")
    if info.get("reason"):
        parts.append(f"reason={info['reason']}")
    return " ".join(parts)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DSN'20 Kafka-reliability reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = sub.add_parser(
        "experiment", help="run one testbed experiment and print P_l / P_d"
    )
    experiment.add_argument("--message-bytes", type=int, default=200, metavar="M")
    experiment.add_argument("--delay-ms", type=float, default=0.0, metavar="D")
    experiment.add_argument("--loss", type=float, default=0.0, metavar="L")
    experiment.add_argument(
        "--semantics",
        choices=[member.value for member in DeliverySemantics],
        default="at_least_once",
    )
    experiment.add_argument("--batch-size", type=int, default=1, metavar="B")
    experiment.add_argument("--polling-ms", type=float, default=0.0, metavar="DELTA")
    experiment.add_argument("--timeout-s", type=float, default=1.5, metavar="T_O")
    experiment.add_argument("--messages", type=int, default=5000, metavar="N")
    experiment.add_argument("--seed", type=int, default=1)
    experiment.add_argument("--bursty-loss", action="store_true")
    experiment.add_argument(
        "--metrics", action="store_true",
        help="print the run's metrics and manifest as JSON "
             "(suppresses the table)",
    )
    experiment.add_argument(
        "--trace-file", metavar="PATH", default=None,
        help="write the structured event trace (JSONL) to PATH; "
             "inspect it later with 'repro inspect PATH'",
    )

    train = sub.add_parser("train", help="collect data and train the predictor")
    train.add_argument(
        "--workers", type=_workers_argument, default="auto",
        metavar="N|auto",
        help="experiment pool size, capped at the usable CPUs; 'auto' "
             "(default) means $REPRO_WORKERS, else every usable CPU; "
             "falls back to serial when a pool cannot win",
    )
    train.add_argument("--messages", type=_positive_int, default=2000,
                       help="messages per collection experiment")
    train.add_argument("--normal-rows", type=_positive_int, default=60)
    train.add_argument("--abnormal-rows", type=_positive_int, default=90)
    train.add_argument("--epochs", type=_positive_int, default=300)
    train.add_argument("--paper-topology", action="store_true",
                       help="use the paper's 200/200/200/64 hidden layers")
    train.add_argument("--registry", metavar="DIR",
                       help="persist the trained model under this directory")
    train.add_argument("--name", default="reliability",
                       help="model name inside the registry")

    dynamic = sub.add_parser(
        "dynamic", help="default-vs-dynamic configuration over a trace"
    )
    dynamic.add_argument("--registry", metavar="DIR",
                         help="load the predictor from this registry")
    dynamic.add_argument("--name", default="reliability")
    dynamic.add_argument("--duration", type=_positive_seconds, default=300.0,
                         help="trace duration in seconds")
    dynamic.add_argument("--interval", type=_positive_seconds, default=10.0,
                         help="trace resolution in seconds")
    dynamic.add_argument("--reconfigure-every", type=_positive_seconds, default=60.0)
    dynamic.add_argument("--gamma", type=float, default=0.95,
                         help="KPI requirement for the stepwise search")
    dynamic.add_argument("--cap", type=_positive_int, default=300,
                         help="max messages per measured interval")
    dynamic.add_argument("--seed", type=int, default=2020)

    chaos = sub.add_parser(
        "chaos", help="replay a seeded chaos campaign and report degradation"
    )
    chaos.add_argument(
        "--schedule", choices=["flap-burst", "staged-escalation"],
        default="flap-burst",
    )
    chaos.add_argument(
        "--policy", choices=["static", "degraded", "both"], default="both",
        help="control policy to replay (default: both, for comparison)",
    )
    chaos.add_argument(
        "--stream", choices=["social", "web", "game"], default="web",
        help="workload shape and KPI weights (default: web access logs)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--cap", type=_positive_int, default=None, metavar="N",
        help="max messages per phase (smoke runs)",
    )
    chaos.add_argument(
        "--registry", metavar="DIR", default=None,
        help="load a trained predictor; without one the degraded "
             "controller runs on its fallback chain (reported per phase)",
    )
    chaos.add_argument("--name", default="reliability")
    chaos.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the deterministic JSON campaign report to PATH",
    )

    inspect = sub.add_parser(
        "inspect", help="verify a trace file against its run manifest"
    )
    inspect.add_argument("trace_file", metavar="TRACE_FILE",
                         help="JSONL trace written by 'repro experiment --trace-file'")
    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        scenario = Scenario(
            message_bytes=args.message_bytes,
            network_delay_s=args.delay_ms / 1000.0,
            loss_rate=args.loss,
            message_count=args.messages,
            seed=args.seed,
            bursty_loss=args.bursty_loss,
            config=ProducerConfig(
                semantics=DeliverySemantics.parse(args.semantics),
                batch_size=args.batch_size,
                polling_interval_s=args.polling_ms / 1000.0,
                message_timeout_s=args.timeout_s,
            ),
        )
    except ValueError as exc:
        # An out-of-range option is a usage error, reported by main().
        raise argparse.ArgumentError(None, str(exc)) from None
    telemetry = None
    if args.metrics or args.trace_file:
        telemetry = TelemetryConfig(trace_path=args.trace_file)
    execution: dict = {}
    [result] = run_many(
        [scenario], telemetry=telemetry, execution_info=execution
    )
    if args.metrics:
        # Machine-readable mode: exactly one JSON document on stdout.
        manifest = dict(result.manifest)
        metrics = manifest.pop("metrics", {})
        document = {
            "manifest": manifest,
            "metrics": metrics,
            "execution": execution,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    low, high = result.p_loss_ci
    rows = [
        ["metric", "value"],
        ["P_l (loss)", f"{result.p_loss:.4f}  (95% CI {low:.4f}-{high:.4f})"],
        ["P_d (duplicate)", f"{result.p_duplicate:.4f}"],
        ["stale fraction", f"{result.p_stale:.4f}"],
        ["throughput", f"{result.throughput_msgs_per_s:.1f} msg/s"],
        ["simulated time", f"{result.simulated_duration_s:.1f} s"],
    ]
    for case, fraction in sorted(result.case_fractions.items()):
        rows.append([f"Table I {case}", f"{fraction:.4f}"])
    rows.append(["execution", _execution_line(execution)])
    print(render_table(rows, title="Experiment result"))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    base = Scenario(message_count=args.messages)
    plans = [
        normal_case_plan(base=base, max_rows=args.normal_rows),
        abnormal_case_plan(base=base, max_rows=args.abnormal_rows),
    ]
    settings = (
        TrainingSettings(epochs=args.epochs)
        if args.paper_topology
        else TrainingSettings(
            hidden=(96, 48), epochs=args.epochs, learning_rate=0.3, patience=80
        )
    )

    def progress(index: int, total: int, scenario) -> None:
        if index % 10 == 0:
            sys.stdout.write(f"\rcollecting {index + 1}/{total}...")
            sys.stdout.flush()

    report = train_reliability_model(
        plans=plans,
        settings=settings,
        progress=progress,
        workers=args.workers,
    )
    print(f"\rcollected {report.train_rows + report.test_rows} rows")
    rows = [["submodel", "rows"]]
    for key, count in sorted(report.submodel_rows.items()):
        rows.append([f"{key[0]}/{key[1]}", str(count)])
    print(render_table(rows))
    print(f"hold-out MAE: {report.mae_report} (paper target: < 0.02)")
    if args.registry:
        path = ModelRegistry(args.registry).save(args.name, report.predictor)
        print(f"model saved to {path}")
    return 0


def _load_model(args: argparse.Namespace) -> Optional[ReliabilityPredictor]:
    """The ``--registry`` model named ``--name``, or None once the reason
    it cannot be loaded is reported."""
    try:
        return ModelRegistry(args.registry).load(args.name)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_dynamic(args: argparse.Namespace) -> int:
    if args.registry:
        predictor = _load_model(args)
        if predictor is None:
            return 2
    else:
        print("no --registry given; training a quick model first...")
        base = Scenario(message_count=1200)
        report = train_reliability_model(
            plans=[
                normal_case_plan(base=base, max_rows=40),
                abnormal_case_plan(base=base, max_rows=70),
            ],
            settings=TrainingSettings(
                hidden=(64, 32), epochs=200, learning_rate=0.3, patience=50
            ),
        )
        predictor = report.predictor
        print(f"quick model MAE: {report.overall_mae:.4f}")
    rng = RngRegistry(args.seed)
    trace = generate_paper_trace(
        rng.stream("trace"), duration_s=args.duration, interval_s=args.interval
    )
    performance_model = ProducerPerformanceModel()
    rows = [["stream", "policy", "R_l", "R_d"]]
    for stream in PAPER_STREAMS:
        controller = DynamicConfigurationController(
            predictor,
            performance_model,
            weights=KpiWeights.of(stream.kpi_weights),
            gamma_requirement=args.gamma,
            reconfig_interval_s=args.reconfigure_every,
        )
        plan = controller.generate_plan(trace, stream)
        for policy, kwargs in [
            ("default", dict(static_config=DEFAULT_PRODUCER_CONFIG)),
            ("dynamic", dict(plan=plan)),
        ]:
            outcome = run_traced_experiment(
                trace, stream, messages_cap_per_interval=args.cap,
                seed=args.seed, **kwargs,
            )
            rows.append([
                stream.name, policy,
                f"{outcome.rates.r_loss:.2%}",
                f"{outcome.rates.r_duplicate:.3%}",
            ])
    print(render_table(rows, title="Table II-style comparison"))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    schedules = {
        "flap-burst": flap_burst_schedule,
        "staged-escalation": staged_escalation_schedule,
    }
    streams = {
        "social": SOCIAL_MEDIA,
        "web": WEB_ACCESS_LOGS,
        "game": GAME_TRAFFIC,
    }
    schedule = schedules[args.schedule](seed=args.seed)
    stream = streams[args.stream]
    predictor = None
    if args.registry:
        predictor = _load_model(args)
        if predictor is None:
            return 2
    policies = ["static", "degraded"] if args.policy == "both" else [args.policy]
    reports: List[Dict[str, Any]] = []
    rows = [["policy", "phase", "P_l", "P_d", "γ meas", "γ pred", "tier",
             "breaker", "recover"]]
    for policy in policies:
        report = run_campaign(
            schedule,
            stream=stream,
            policy=policy,
            seed=args.seed,
            predictor=predictor,
            messages_cap_per_phase=args.cap,
        )
        # The table and the JSON report render the same dict.
        reports.append(report.to_dict())
        for phase in reports[-1]["phases"]:
            rows.append([
                policy,
                phase["name"],
                f"{phase['p_loss']:.3f}",
                f"{phase['p_duplicate']:.3f}",
                f"{phase['gamma_measured']:.3f}",
                "-" if phase["gamma_predicted"] is None
                else f"{phase['gamma_predicted']:.3f}",
                phase["prediction_source"] or "-",
                phase["breaker_state"] or "-",
                "-" if phase["time_to_recover_s"] is None
                else f"{phase['time_to_recover_s']:.2f}s",
            ])
    print(render_table(rows, title=f"Chaos campaign: {schedule.name} (seed {args.seed})"))
    for summary in reports:
        print(
            f"{summary['policy']}: overall P_l={summary['overall_p_loss']:.3f} "
            f"P_d={summary['overall_p_duplicate']:.3f} "
            f"mean γ={summary['mean_gamma']:.3f} "
            f"parked phases={summary['breaker_trips']}"
        )
    # Campaign phases feed controller state forward, so the replay is a
    # sequential control loop.
    print("execution: mode=serial reason=sequential_control_loop")
    if args.out:
        if len(reports) == 1:
            document = reports[0]
        else:
            document = {
                "kind": "chaos_campaign_comparison",
                "schedule": schedule.name,
                "seed": args.seed,
                "campaigns": reports,
            }
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        events, manifest = load_trace_file(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    violations: List[str] = []
    if manifest is None:
        violations.append("no manifest line in the trace file")
    else:
        violations.extend(conservation_violations(manifest))
        violations.extend(trace_violations(events, manifest))
    kinds: dict = {}
    for record in events:
        kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
    summary = {
        "trace_file": args.trace_file,
        "events": len(events),
        "kinds": dict(sorted(kinds.items())),
        "manifest": {
            key: manifest[key]
            for key in (
                "scenario_fingerprint", "seed", "produced", "case_counts",
                "unresolved", "trace_events", "trace_digest", "trace_complete",
            )
            if key in manifest
        }
        if manifest is not None
        else None,
        "violations": violations,
        "ok": not violations,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if not violations else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "train": _cmd_train,
        "dynamic": _cmd_dynamic,
        "chaos": _cmd_chaos,
        "inspect": _cmd_inspect,
    }
    try:
        return handlers[args.command](args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
