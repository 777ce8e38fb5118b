#!/usr/bin/env python
"""Train the paper's ANN reliability predictor on testbed data.

Walks the full Eq. 1 pipeline:

1. collect training rows with the Fig. 3 normal/abnormal design,
2. train the per-(region, semantics) ANN submodels,
3. report the hold-out MAE (paper target: below 0.02), and
4. query the trained predictor for a configuration decision.

Run with::

    python examples/train_reliability_model.py [--full]

``--full`` uses the paper's exact hyperparameters (hidden layers
200/200/200/64, 1000 epochs) and a larger collection grid; the default is
a minutes-scale run with a reduced topology.
"""

import argparse
import sys

from repro.analysis import render_table
from repro.models import (
    FeatureVector,
    ModelRegistry,
    TrainingSettings,
    train_reliability_model,
)
from repro.kafka import DeliverySemantics, ProducerConfig
from repro.testbed import Scenario, abnormal_case_plan, normal_case_plan


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="paper-scale training")
    parser.add_argument("--save", metavar="DIR", help="persist the model registry here")
    args = parser.parse_args()

    if args.full:
        base = Scenario(message_count=20_000)
        plans = [normal_case_plan(base=base), abnormal_case_plan(base=base)]
        settings = TrainingSettings()  # the paper's 200/200/200/64, SGD 0.5
    else:
        base = Scenario(message_count=1500)
        plans = [
            normal_case_plan(base=base, max_rows=60),
            abnormal_case_plan(base=base, max_rows=90),
        ]
        settings = TrainingSettings(
            hidden=(64, 32), epochs=250, learning_rate=0.3, patience=60
        )

    def progress(index, total, scenario):
        if index % 10 == 0:
            sys.stdout.write(f"\rcollecting {index + 1}/{total} experiments...")
            sys.stdout.flush()

    report = train_reliability_model(plans=plans, settings=settings, progress=progress)
    print(f"\rcollected {report.train_rows + report.test_rows} rows"
          f" ({report.train_rows} train / {report.test_rows} hold-out)")

    rows = [["submodel (region, semantics)", "training rows"]]
    for key, count in sorted(report.submodel_rows.items()):
        rows.append([f"{key[0]}, {key[1]}", str(count)])
    print(render_table(rows))
    print(f"\nhold-out MAE: {report.mae_report}")
    print(f"paper target: overall MAE < 0.02 → measured {report.overall_mae:.4f}")

    # Use the model the way the paper's Section IV does: compare the
    # predicted loss probability of candidate configurations.
    print("\nPredicted P_l for candidate configurations at D=100 ms, L=19 %:")
    candidate_rows = [["configuration", "predicted P_l", "predicted P_d"]]
    for label, batch, semantics in [
        ("stream mode (B=1), at-least-once", 1, DeliverySemantics.AT_LEAST_ONCE),
        ("batched (B=5),   at-least-once", 5, DeliverySemantics.AT_LEAST_ONCE),
        ("stream mode (B=1), at-most-once", 1, DeliverySemantics.AT_MOST_ONCE),
    ]:
        scenario = Scenario(
            message_bytes=200,
            network_delay_s=0.1,
            loss_rate=0.19,
            config=ProducerConfig(semantics=semantics, batch_size=batch,
                                  message_timeout_s=1.5),
        )
        vector = FeatureVector.from_scenario(scenario)
        if vector.submodel_key not in report.predictor.submodels:
            continue
        estimate = report.predictor.predict_vectors([vector])[0]
        candidate_rows.append(
            [label, f"{estimate.p_loss:.3f}", f"{estimate.p_duplicate:.4f}"]
        )
    print(render_table(candidate_rows))

    if args.save:
        registry = ModelRegistry(args.save)
        registry.save("reliability", report.predictor)
        print(f"\nmodel saved under {args.save}/reliability")


if __name__ == "__main__":
    main()
