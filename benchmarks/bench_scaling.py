"""Reproduction of the Section IV-C producer-scaling strategy.

The paper prescribes: when one fully-loaded producer loses messages, slow
it down (δ↑) and scale the fleet to keep the aggregate rate
(``N_p/δ = N_p'/(δ+Δδ)``).  This bench runs the *actual* fleet in one
simulation — N producers, each with its own uplink, sharing the broker
cluster — and shows loss collapsing as the fleet grows, at constant
aggregate throughput.
"""


from repro.analysis import FigureSeries, comparison_table, ascii_plot
from repro.kafka import DeliverySemantics, ProducerConfig
from repro.testbed import Scenario, run_experiment

from paper_targets import Criterion
from conftest import write_report

FLEET_SIZES = [1, 2, 3, 4, 6]
AGGREGATE_RATE = 24.0


def run_scaling():
    scenario = Scenario(
        message_bytes=200,
        message_count=3000,
        seed=131,
        arrival_rate=AGGREGATE_RATE,
        config=ProducerConfig(
            semantics=DeliverySemantics.AT_LEAST_ONCE, message_timeout_s=1.0
        ),
    )
    losses, throughputs = [], []
    for fleet in FLEET_SIZES:
        result = run_experiment(scenario, producers=fleet)
        losses.append(result.p_loss)
        throughputs.append(result.throughput_msgs_per_s or 0.0)
    return losses, throughputs


def test_producer_scaling(benchmark):
    losses, throughputs = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    series = FigureSeries(
        f"Producer scaling: P_l vs fleet size (aggregate {AGGREGATE_RATE:.0f} msg/s)",
        "producers", "P_l", x=list(map(float, FLEET_SIZES)),
    )
    series.add_curve("P_l", losses)

    criteria = [
        Criterion(
            "single producer is overloaded",
            "P_l high at N=1",
            f"{losses[0]:.2f}",
            losses[0] > 0.3,
        ),
        Criterion(
            "scaling eliminates the loss",
            "P_l ≈ 0 once per-producer load fits",
            f"N=4: {losses[3]:.3f}, N=6: {losses[4]:.3f}",
            losses[3] < 0.05 and losses[4] < 0.05,
        ),
        Criterion(
            "monotone improvement",
            "more producers never hurt",
            " → ".join(f"{value:.2f}" for value in losses),
            all(losses[i] >= losses[i + 1] - 0.03 for i in range(len(losses) - 1)),
        ),
        Criterion(
            "aggregate throughput preserved",
            "delivered rate grows toward the offered rate",
            f"{throughputs[0]:.1f} → {throughputs[-1]:.1f} msg/s",
            throughputs[-1] > throughputs[0],
        ),
    ]
    text = ascii_plot(series) + "\n\n" + comparison_table(
        "Scaling criteria", [criterion.as_tuple() for criterion in criteria]
    )
    write_report("scaling", text)
    assert all(criterion.holds for criterion in criteria)
