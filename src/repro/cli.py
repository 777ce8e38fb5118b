"""Command-line interface for the reproduction toolkit.

Six subcommands cover the paper's workflow:

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
``repro lint``
    Run the determinism & correctness static-analysis rules over the
    source tree; exits non-zero on any new, unsuppressed finding (see
    DESIGN.md §9 and the lint-baseline workflow in README).

Installed as the ``repro`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis import render_table
from .chaos import flap_burst_schedule, run_campaign, staged_escalation_schedule
from .observability import (
    TelemetryConfig,
    conservation_violations,
    load_trace_file,
    trace_violations,
)
from .kafka import DEFAULT_PRODUCER_CONFIG, DeliverySemantics, ProducerConfig
from .lint import cli as lint_cli
from .kpi import DynamicConfigurationController, KpiWeights, run_traced_experiment
from .models import ModelRegistry, TrainingSettings, train_reliability_model
from .network import generate_paper_trace
from .performance import ProducerPerformanceModel
from .simulation import RngRegistry
from .testbed import (
    ResultCache,
    Scenario,
    abnormal_case_plan,
    normal_case_plan,
    resolve_workers,
    run_many,
)
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

    def add_engine_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--workers", type=_workers_argument, default="auto",
            metavar="N|auto",
            help="experiment pool size, capped at the usable CPUs; 'auto' "
                 "(default) means $REPRO_WORKERS, else every usable CPU; "
                 "falls back to serial when a pool cannot win",
        )
        command.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help="reuse measured results from (and write new ones to) "
                 "this cache directory",
        )

    experiment = sub.add_parser(
        "experiment", help="run one testbed experiment and print P_l / P_d"
    )
    add_engine_options(experiment)
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
        help="print the run's metrics registry and manifest as JSON "
             "(suppresses the table)",
    )
    experiment.add_argument(
        "--trace-file", metavar="PATH", default=None,
        help="write the structured event trace (JSONL) to PATH; "
             "inspect it later with 'repro inspect PATH'",
    )

    train = sub.add_parser("train", help="collect data and train the predictor")
    add_engine_options(train)
    train.add_argument("--messages", type=int, default=2000,
                       help="messages per collection experiment")
    train.add_argument("--normal-rows", type=int, default=60)
    train.add_argument("--abnormal-rows", type=int, default=90)
    train.add_argument("--epochs", type=int, default=300)
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
    dynamic.add_argument("--duration", type=float, default=300.0,
                         help="trace duration in seconds")
    dynamic.add_argument("--interval", type=float, default=10.0,
                         help="trace resolution in seconds")
    dynamic.add_argument("--reconfigure-every", type=float, default=60.0)
    dynamic.add_argument("--gamma", type=float, default=0.95,
                         help="KPI requirement for the stepwise search")
    dynamic.add_argument("--cap", type=int, default=300,
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
        "--cap", type=int, default=None, metavar="N",
        help="max messages per phase (smoke runs)",
    )
    chaos.add_argument(
        "--registry", metavar="DIR", default=None,
        help="load a trained predictor; without one the degraded "
             "controller runs on its fallback chain (reported per phase)",
    )
    chaos.add_argument("--name", default="reliability")
    chaos.add_argument(
        "--workers", type=_workers_argument, default="auto", metavar="N|auto",
        help="worker budget note for the run manifest; campaign phases "
             "feed controller state forward, so the replay itself is a "
             "sequential control loop",
    )
    chaos.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the deterministic JSON campaign report to PATH",
    )

    inspect = sub.add_parser(
        "inspect", help="verify a trace file against its run manifest"
    )
    inspect.add_argument("trace_file", metavar="TRACE_FILE",
                         help="JSONL trace written by 'repro experiment --trace-file'")

    lint = sub.add_parser(
        "lint", help="run the determinism & correctness lint rules"
    )
    lint_cli.configure_parser(lint)
    return parser


def _build_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    return ResultCache(args.cache_dir) if args.cache_dir else None


def _cmd_experiment(args: argparse.Namespace) -> int:
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
    telemetry = None
    if args.metrics or args.trace_file:
        telemetry = TelemetryConfig(trace_path=args.trace_file)
    execution: dict = {}
    [result] = run_many(
        [scenario], workers=args.workers, cache=_build_cache(args),
        telemetry=telemetry, execution_info=execution,
    )
    if args.metrics:
        if result.manifest is None:
            print(
                "error: cached result carries no telemetry; "
                "re-run without --cache-dir or clear the cache",
                file=sys.stderr,
            )
            return 1
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
        cache=_build_cache(args),
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


def _cmd_dynamic(args: argparse.Namespace) -> int:
    if args.registry:
        predictor = ModelRegistry(args.registry).load(args.name)
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
        predictor = ModelRegistry(args.registry).load(args.name)
    policies = ["static", "degraded"] if args.policy == "both" else [args.policy]
    reports = []
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
        reports.append(report)
        for phase in report.phases:
            rows.append([
                policy,
                phase.name,
                f"{phase.p_loss:.3f}",
                f"{phase.p_duplicate:.3f}",
                f"{phase.gamma_measured:.3f}",
                "-" if phase.gamma_predicted is None
                else f"{phase.gamma_predicted:.3f}",
                phase.prediction_source or "-",
                phase.breaker_state or "-",
                "-" if phase.time_to_recover_s is None
                else f"{phase.time_to_recover_s:.2f}s",
            ])
    print(render_table(rows, title=f"Chaos campaign: {schedule.name} (seed {args.seed})"))
    for report in reports:
        print(
            f"{report.policy}: overall P_l={report.overall_p_loss:.3f} "
            f"P_d={report.overall_p_duplicate:.3f} "
            f"mean γ={report.mean_gamma:.3f} "
            f"parked phases={report.breaker_trips}"
        )
    # Campaign phases feed controller state forward, so the replay is a
    # sequential control loop regardless of the worker budget.
    print(
        "execution: mode=serial reason=sequential_control_loop "
        f"workers_budget={resolve_workers(args.workers)}"
    )
    if args.out:
        if len(reports) == 1:
            document = reports[0].to_dict()
        else:
            document = {
                "kind": "chaos_campaign_comparison",
                "schedule": schedule.name,
                "seed": args.seed,
                "campaigns": [report.to_dict() for report in reports],
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
    args = build_parser().parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "train": _cmd_train,
        "dynamic": _cmd_dynamic,
        "chaos": _cmd_chaos,
        "inspect": _cmd_inspect,
        "lint": lint_cli.run,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
