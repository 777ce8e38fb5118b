"""Golden digests of the run metrics a manifest embeds.

``manifest["metrics"]`` is built once, as the run finishes, from the
counts the components keep anyway: producer and transport stats, broker
counters and partition logs, the tracker's Fig. 2 edge counts, the fault
injectors' counts, the census and the reconciliation.  Each digest pins
every metric's name, type and value for one run.  The runs cover the
conditional metrics: every transition edge a lossy run takes, a fleet of
three producers, an at-most-once run (no V edge) and every phase of a
capped degraded flap-burst campaign, whose broker flap drops requests
(``broker.requests_dropped``) and whose phases inject faults
(``faults.injected``).
"""

import hashlib
import json
from typing import Dict

import pytest

from repro.chaos import flap_burst_schedule, run_campaign
from repro.kafka import DeliverySemantics, ProducerConfig
from repro.testbed import Experiment, Scenario, TelemetryConfig

from .test_scaled import BASE

GOLDEN: Dict[str, str] = {
    "lossy": "62b312a85fcb4f28f6e6dd6167a82c8cccfd5d6438531de6bf70b753cf777d75",
    "fleet/producers=3": "d402de29115ed005abc7fe634ae8e3ec2608e5c0b6eb5381949da3fff17067e1",
    "at_most_once": "1503592ccaf8415ba216593be5e478be30f3ff2f58a08e01217d05b0404ba7e7",
    "flap-burst/baseline": "e62b8bd199ec86276171ef6a65b11068fca21dc91a739d6f7ef3bbb2a3fd04ba",
    "flap-burst/loss-burst": "2e2098320ff94975c355e83f7930a62114654bb2b7542b5c659fc827a9780b2d",
    "flap-burst/blackout": "01afcea4adb599e3746973f2e93a6a48b610cebc9a017149c9d3c655aeb3824a",
    "flap-burst/broker-flap": "fd49790270e20cf385c80187075d9f4e4483b8bce844a06be86ad4ce9934c424",
    "flap-burst/recovery": "985e1fcc1f79bd5d151f623a1042cda693d4c69a2322e5c16be93766a3212816",
}

LOSSY = Scenario(loss_rate=0.1, message_count=400, seed=4)


def digest(metrics) -> str:
    """SHA-256 of the metrics' canonical JSON (floats in ``repr`` form)."""
    encoded = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def run_metrics() -> Dict[str, dict]:
    """Every pinned run's ``manifest["metrics"]``, keyed like :data:`GOLDEN`."""
    telemetry = TelemetryConfig()
    out = {
        "lossy": Experiment(LOSSY, telemetry=telemetry).run().manifest["metrics"],
        "fleet/producers=3": Experiment(
            BASE.with_(message_count=450, arrival_rate=12.0, loss_rate=0.1),
            telemetry=telemetry,
            producers=3,
        ).run().manifest["metrics"],
        "at_most_once": Experiment(
            LOSSY.with_(
                config=ProducerConfig(semantics=DeliverySemantics.AT_MOST_ONCE)
            ),
            telemetry=telemetry,
        ).run().manifest["metrics"],
    }
    campaign = run_campaign(
        flap_burst_schedule(seed=7), policy="degraded", seed=7,
        messages_cap_per_phase=60,
    )
    for phase in campaign.phases:
        out[f"flap-burst/{phase.phase.name}"] = phase.record.result.manifest["metrics"]
    return out


@pytest.fixture(scope="module")
def metrics():
    return run_metrics()


def test_metrics_match_golden(metrics):
    assert {name: digest(body) for name, body in metrics.items()} == GOLDEN


def test_conditional_metrics_occur(metrics):
    """The digests cover every metric that appears only when non-zero."""
    conditional = {f"transitions.{edge}" for edge in ("I", "II", "III", "IV", "V", "VI")}
    conditional |= {"broker.appends", "broker.requests_dropped", "faults.injected"}
    assert conditional <= set().union(*metrics.values())
    for run in metrics.values():
        for name in conditional & set(run):
            assert run[name] == {"type": "counter", "value": run[name]["value"]}
            assert run[name]["value"] > 0
