"""Validation of the HPCC'19 performance model against the simulator.

The weighted KPI (Eq. 2) trusts the queueing model's (φ, μ) predictions;
this bench cross-checks them against what the simulated testbed actually
measures: sustained throughput under saturation vs the predicted service
rate μ, and link utilisation vs the predicted φ, across message sizes and
batch sizes.
"""


from repro.analysis import comparison_table, render_table
from repro.kafka import DeliverySemantics, ProducerConfig
from repro.kafka.config import LINK_CAPACITY_BPS
from repro.performance import ProducerPerformanceModel
from repro.testbed import Experiment, Scenario

from paper_targets import Criterion
from conftest import write_report

CASES = [
    ("M=100, B=1", 100, 1),
    ("M=200, B=1", 200, 1),
    ("M=200, B=4", 200, 4),
    ("M=500, B=1", 500, 1),
    ("M=500, B=4", 500, 4),
]


def measured_utilization(link, duration_s):
    """φ achieved over a run: bytes sent in both directions (they share
    the bridge capacity) over what the link could carry."""
    sent = link.forward.stats.bytes_sent + link.reverse.stats.bytes_sent
    return min(1.0, sent / (link.forward.capacity_bps * duration_s))


def run_validation():
    model = ProducerPerformanceModel()
    rows = []
    for label, size, batch in CASES:
        config = ProducerConfig(
            semantics=DeliverySemantics.AT_LEAST_ONCE,
            batch_size=batch,
            message_timeout_s=8.0,
            linger_s=0.2,
        )
        predicted = model.predict(config, size)
        # μ validation: saturate the producer so the measured throughput
        # is the service rate.
        saturated = Scenario(
            message_bytes=size,
            message_count=2500,
            seed=161,
            arrival_rate=predicted.service_rate * 3.0,
            config=config,
        )
        result = Experiment(saturated).run()
        # φ validation: offer a moderate load and compare utilisation at
        # that same offered rate.
        offered = 0.7 * predicted.service_rate
        moderate = saturated.with_(arrival_rate=offered, message_count=1500)
        moderate_experiment = Experiment(moderate)
        moderate_result = moderate_experiment.run()
        measured_phi = measured_utilization(
            moderate_experiment.link, moderate_result.simulated_duration_s
        )
        wire_per_message = model.round_trip_bytes(
            size, batch, True
        ) / batch
        predicted_phi = min(1.0, offered * wire_per_message / LINK_CAPACITY_BPS)
        rows.append(
            {
                "label": label,
                "mu_predicted": predicted.service_rate,
                "mu_measured": result.throughput_msgs_per_s or 0.0,
                "phi_predicted": predicted_phi,
                "phi_measured": measured_phi,
            }
        )
    return rows


def test_performance_model_validation(benchmark):
    rows = benchmark.pedantic(run_validation, rounds=1, iterations=1)
    table_rows = [["case", "μ predicted", "μ measured", "φ predicted", "φ measured"]]
    mu_errors, phi_errors = [], []
    for row in rows:
        table_rows.append([
            row["label"],
            f"{row['mu_predicted']:.1f}/s",
            f"{row['mu_measured']:.1f}/s",
            f"{row['phi_predicted']:.2f}",
            f"{row['phi_measured']:.2f}",
        ])
        mu_errors.append(
            abs(row["mu_measured"] - row["mu_predicted"])
            / max(row["mu_predicted"], 1e-9)
        )
        phi_errors.append(abs(row["phi_measured"] - row["phi_predicted"]))
    table = render_table(table_rows, title="Performance model vs simulator")

    ordering_predicted = [row["mu_predicted"] for row in rows]
    ordering_measured = [row["mu_measured"] for row in rows]
    # Ranking preserved up to prediction ties: a pair only counts as an
    # inversion when the model separates the two configurations clearly
    # (>15 %) yet the simulator orders them the other way.
    rank_match = all(
        ordering_measured[i] > ordering_measured[j]
        for i in range(len(rows))
        for j in range(len(rows))
        if ordering_predicted[i] > 1.15 * ordering_predicted[j]
    )
    criteria = [
        Criterion(
            "service-rate prediction within a factor",
            "relative μ error bounded (the KPI only ranks configs)",
            f"max relative error = {max(mu_errors):.0%}",
            max(mu_errors) < 0.6,
        ),
        Criterion(
            "configuration ranking preserved",
            "predicted μ orders clearly-separated configurations correctly",
            f"predicted {['%.0f' % value for value in ordering_predicted]} vs "
            f"measured {['%.0f' % value for value in ordering_measured]}",
            rank_match,
        ),
        Criterion(
            "utilisation prediction within 0.3",
            "φ errors bounded",
            f"max φ error = {max(phi_errors):.2f}",
            max(phi_errors) < 0.3,
        ),
    ]
    text = table + "\n\n" + comparison_table(
        "Performance-model criteria", [criterion.as_tuple() for criterion in criteria]
    )
    write_report("performance_model", text)
    failed = [criterion.label for criterion in criteria if not criterion.holds]
    assert not failed, f"diverged: {failed}"
