"""Golden digests of the interval-replay paths: plan, static, online, chaos.

Every report the replay produces is reduced to a canonical JSON payload
(floats in ``repr`` form, so one ULP moves the digest) and pinned by its
SHA-256.  The inputs cover the places where the three replay flavours
differ: a trace whose interval (10 s) differs from the reconfiguration
interval (30 s or 20 s), a static configuration whose polling interval
throttles the stream (non-zero polling shortfall), message caps below and
above the floor of 10 messages, and both stock chaos schedules under
both policies.  The predictor is the analytic stub of ``test_online_loop``, so
no ANN training is involved.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.chaos import flap_burst_schedule, run_campaign, staged_escalation_schedule
from repro.kafka import ProducerConfig
from repro.kpi import (
    DynamicConfigurationController,
    KpiWeights,
    OnlineDynamicController,
    run_online_experiment,
    run_traced_experiment,
)
from repro.network import NetworkTrace, TracePoint
from repro.performance import ProducerPerformanceModel
from repro.workloads import WEB_ACCESS_LOGS

from .test_online_loop import AnalyticPredictor

GOLDEN = {
    "plan": "9972672193d80488ed301d561bb94bad675e07fffdf18c98e174ee8ceb88e6ac",
    "plan_report": "8c0af4a2105f0b60e5e6c64e281cf942a06a7f898bcff122cd552902f4e892d2",
    "static_report": "ffd81945f98b837eece0ef0cdb1bae338d5b2f8c7bf4c74ab3eb550e4576c403",
    "shortfall_report": "66cd5cfcefd1d61a530afd02b0771be27ea59bebac0beed5cd5d466f9317897a",
    "online_report": "3a4de31bafbb881198b5008e94bc631546d3481a6986b1dfeacc6b6987e25dbb",
    "static_campaign": "95c1af7a7b1153967f08b0417b33ec459a8574dd183e8b539b4bb30359d5cc62",
    "degraded_campaign": "431ab4d44a5afd76423fab4f0a9311bbc1f3f7acbaa3830b1d19a64300bdd1b0",
    "degraded_campaign_ann": "44c5036a37f7e268b260e46d21b6caa27c546ab2f51ea9e073735c30fbd18339",
    "static_escalation": "f5fb702e5e141bc02ba1cb4d20e4385bea9d538d8c71b409cea151ec99551290",
    "degraded_escalation": "9f2d90267c2e75c75e1261022bf8a855641f402f7d9ffa7f0cb8c6ace539e6f4",
}

#: Trace interval 10 s; the plan and the online loop step every 30 s / 20 s.
TRACE = NetworkTrace(interval_s=10, points=[
    TracePoint(0.0, 0.02, 0.0),
    TracePoint(10.0, 0.25, 0.3),
    TracePoint(20.0, 0.3, 0.35),
    TracePoint(30.0, 0.1, 0.2),
    TracePoint(40.0, 0.05, 0.1),
    TracePoint(50.0, 0.02, 0.0),
])

#: Polls at most 1/0.09 ≈ 11.1 msg/s against the stream's 15 msg/s.
THROTTLED = ProducerConfig(batch_size=2, polling_interval_s=0.09)


def digest(payload) -> str:
    """SHA-256 of a report's JSON text, or of a payload's canonical JSON."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_payload(config):
    return {**asdict(config), "semantics": config.semantics.value}


def report_payload(report):
    return {
        "stream": report.stream_name,
        "policy": report.policy,
        "intervals": [
            [repr(w), repr(r.p_loss), repr(r.result.p_duplicate)]
            for r, w in zip(report.records, report.weights)
        ],
        "rates": [
            repr(report.rates.r_loss),
            repr(report.rates.r_duplicate),
            repr(report.rates.total_messages),
        ],
        "mean_stale_fraction": repr(report.mean_stale_fraction),
    }


def controller_args():
    return dict(
        weights=KpiWeights.of(WEB_ACCESS_LOGS.kpi_weights), gamma_requirement=0.97
    )


@pytest.fixture(scope="module")
def plan():
    controller = DynamicConfigurationController(
        AnalyticPredictor(), ProducerPerformanceModel(),
        reconfig_interval_s=30.0, **controller_args(),
    )
    return controller.generate_plan(TRACE, WEB_ACCESS_LOGS)


def payloads(plan):
    """Everything pinned, keyed like :data:`GOLDEN`."""
    out = {
        "plan": {
            "interval_s": repr(plan.interval_s),
            "entries": [
                [repr(e.time_s), config_payload(e.config), e.producers,
                 repr(e.predicted_gamma)]
                for e in plan.entries
            ],
        },
        "plan_report": report_payload(run_traced_experiment(
            TRACE, WEB_ACCESS_LOGS, plan=plan, seed=3,
            messages_cap_per_interval=150,
        )),
        # A cap below the floor of 10 messages.
        "static_report": report_payload(run_traced_experiment(
            TRACE, WEB_ACCESS_LOGS, static_config=ProducerConfig(), seed=4,
            messages_cap_per_interval=5,
        )),
        "shortfall_report": report_payload(run_traced_experiment(
            TRACE, WEB_ACCESS_LOGS, static_config=THROTTLED, seed=5,
            messages_cap_per_interval=120,
        )),
        "online_report": report_payload(run_online_experiment(
            TRACE, WEB_ACCESS_LOGS,
            OnlineDynamicController(
                AnalyticPredictor(), ProducerPerformanceModel(), **controller_args()
            ),
            seed=6, start=THROTTLED, reconfig_interval_s=20.0,
            messages_cap_per_interval=200,
        )),
    }
    # A phase cap below the floor of 10 messages under the static policy.
    out["static_campaign"] = run_campaign(
        flap_burst_schedule(seed=7), policy="static", seed=7,
        predictor=AnalyticPredictor(), messages_cap_per_phase=8,
    ).to_json()
    out["degraded_campaign"] = run_campaign(
        flap_burst_schedule(seed=7), policy="degraded", seed=7,
        messages_cap_per_phase=40,
    ).to_json()
    out["degraded_campaign_ann"] = run_campaign(
        flap_burst_schedule(seed=7), policy="degraded", seed=7,
        predictor=AnalyticPredictor(), messages_cap_per_phase=60,
    ).to_json()
    # The one stock schedule with a delay spike (jittered latency), uncapped.
    for policy in ("static", "degraded"):
        out[f"{policy}_escalation"] = run_campaign(
            staged_escalation_schedule(seed=7), policy=policy, seed=7,
            predictor=AnalyticPredictor(),
        ).to_json()
    return out


def test_replay_reports_match_golden(plan):
    got = {name: digest(payload) for name, payload in payloads(plan).items()}
    assert got == GOLDEN

