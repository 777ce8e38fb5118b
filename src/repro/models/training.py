"""End-to-end training pipeline: collect → train → evaluate.

One call reproduces the paper's workflow: run the Fig. 3 collection plans
on the testbed, split the measured rows, train the ANN submodels and
report hold-out MAE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..testbed.collection import (
    CollectionPlan,
    abnormal_case_plan,
    collect_training_data,
    normal_case_plan,
)
from ..testbed.results import ExperimentResult
from .features import FeatureVector
from .predictor import ReliabilityPredictor, TrainingSettings

__all__ = ["TrainedModelReport", "train_reliability_model", "split_results"]


@dataclass
class TrainedModelReport:
    """Outcome of one training pipeline run."""

    predictor: ReliabilityPredictor
    train_rows: int
    test_rows: int
    submodel_rows: Dict[Tuple[str, str], int]
    mae_report: Dict[str, float]
    train_results: List[ExperimentResult] = field(default_factory=list)
    test_results: List[ExperimentResult] = field(default_factory=list)

    @property
    def overall_mae(self) -> float:
        """Hold-out MAE (paper target: below 0.02)."""
        return self.mae_report["overall"]


def split_results(
    results: Sequence[ExperimentResult],
    test_fraction: float = 0.2,
    seed: int = 0,
) -> Tuple[List[ExperimentResult], List[ExperimentResult]]:
    """Shuffle-split measured rows into train and hold-out sets."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    if len(results) < 5:
        raise ValueError("too few results to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(results))
    cut = max(1, int(round(len(results) * test_fraction)))
    test_index = set(order[:cut].tolist())
    train = [results[i] for i in range(len(results)) if i not in test_index]
    test = [results[i] for i in range(len(results)) if i in test_index]
    return train, test


def train_reliability_model(
    results: Optional[Sequence[ExperimentResult]] = None,
    plans: Optional[Sequence[CollectionPlan]] = None,
    settings: Optional[TrainingSettings] = None,
    test_fraction: float = 0.2,
    seed: int = 0,
    progress: Optional[Callable[[int, int, object], None]] = None,
    workers: Optional[int] = None,
) -> TrainedModelReport:
    """Run the full pipeline and return the trained predictor + report.

    Parameters
    ----------
    results:
        Pre-measured rows; when omitted, the testbed is run over ``plans``
        (defaulting to the paper's Fig. 3 normal + abnormal grids).
    plans:
        Collection plans to measure when ``results`` is not given.
    settings:
        ANN hyperparameters (defaults to the paper's).
    test_fraction / seed:
        Hold-out split control.
    progress:
        Forwarded to the collection loop.
    workers:
        Parallel-collection pool size, forwarded to
        :func:`~repro.testbed.collection.collect_training_data` (no
        effect when ``results`` is given).
    """
    if results is None:
        if plans is None:
            plans = [normal_case_plan(), abnormal_case_plan()]
        results = collect_training_data(plans, progress=progress, workers=workers)
    results = list(results)
    train, test = split_results(results, test_fraction, seed)
    predictor = ReliabilityPredictor()
    submodel_rows = predictor.fit(train, settings)
    evaluable = [
        row
        for row in test
        if FeatureVector.from_result(row).submodel_key in predictor.submodels
    ]
    mae_report = predictor.evaluate(evaluable if evaluable else train)
    return TrainedModelReport(
        predictor=predictor,
        train_rows=len(train),
        test_rows=len(test),
        submodel_rows=submodel_rows,
        mae_report=mae_report,
        train_results=train,
        test_results=test,
    )
