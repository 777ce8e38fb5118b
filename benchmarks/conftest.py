"""Shared fixtures for the reproduction benchmarks.

Heavy artefacts (the trained reliability predictor and its training data)
are cached under ``benchmarks/_artifacts`` so the figure benches can run
independently without re-collecting and re-training each time.  Delete
that directory to force a fresh collection/training pass.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.models import (
    ModelRegistry,
    ReliabilityPredictor,
    TrainingSettings,
    train_reliability_model,
)
from repro.testbed import (
    Scenario,
    abnormal_case_plan,
    load_results_csv,
    normal_case_plan,
    save_results_csv,
)

ARTIFACTS = Path(__file__).parent / "_artifacts"
OUTPUT_DIR = Path(__file__).parent / "out"

#: Training settings for the cached benchmark model: smaller than the
#: paper's 200/200/200/64×1000-epoch network but trained on the same
#: feature design; the MAE bench reports the achieved accuracy.
BENCH_SETTINGS = TrainingSettings(
    hidden=(128, 128, 64), epochs=700, learning_rate=0.3, batch_size=32, patience=120
)

#: Messages per collection experiment (the paper uses 10^6; frequencies
#: only need enough samples for the CI the results record).
COLLECTION_MESSAGES = 4000


def write_report(name: str, text: str) -> Path:
    """Persist a bench's human-readable report under ``benchmarks/out``."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[report saved to {path}]")
    return path


#: Seed replications averaged per training row.  One finite run's
#: measured frequency is noisy across burst phases; the paper's 10^6
#: messages average that noise out, we replicate-and-average instead.
COLLECTION_REPLICATIONS = 3


def _collect_replicated():
    from dataclasses import replace

    from repro.testbed import collect_training_data

    replications = []
    for replication in range(COLLECTION_REPLICATIONS):
        base = Scenario(
            message_count=COLLECTION_MESSAGES, seed=1 + 2000 * replication
        )
        replications.append(
            [
                normal_case_plan(base=base, max_rows=200),
                abnormal_case_plan(base=base, max_rows=360),
            ]
        )
    # One call for every replication, so no replication's tail leaves a
    # CPU idle; the rows come back in plan order and split by size.
    collected = collect_training_data(
        [plan for plans in replications for plan in plans]
    )
    replicate_rows = []
    start = 0
    for plans in replications:
        size = sum(len(plan.scenarios()) for plan in plans)
        replicate_rows.append(collected[start : start + size])
        start += size
    averaged = []
    for rows in zip(*replicate_rows):
        first = rows[0]
        averaged.append(
            replace(
                first,
                p_loss=sum(r.p_loss for r in rows) / len(rows),
                p_duplicate=sum(r.p_duplicate for r in rows) / len(rows),
                p_stale=sum(r.p_stale for r in rows) / len(rows),
            )
        )
    return averaged


@pytest.fixture(scope="session")
def training_rows():
    """Measured Fig. 3 collection rows (replicate-averaged), cached as CSV."""
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    csv_path = ARTIFACTS / "training_rows.csv"
    if csv_path.exists():
        return load_results_csv(csv_path)
    rows = _collect_replicated()
    save_results_csv(rows, csv_path)
    return rows


#: Split seed shared between training (here) and evaluation (the MAE
#: bench) so the hold-out rows are never seen during training.
SPLIT_SEED = 99


@pytest.fixture(scope="session")
def paper_model(training_rows) -> ReliabilityPredictor:
    """The trained reliability predictor, cached in the model registry."""
    registry = ModelRegistry(ARTIFACTS / "models")
    if "bench" in registry.list_models():
        return registry.load("bench")
    report = train_reliability_model(
        results=training_rows,
        settings=BENCH_SETTINGS,
        test_fraction=0.25,
        seed=SPLIT_SEED,
    )
    registry.save("bench", report.predictor)
    (ARTIFACTS / "mae.txt").write_text(repr(report.mae_report))
    return report.predictor
