"""Training-data collection, paper Fig. 3.

The feature space of Eq. 1 grows exponentially, so the paper splits it by
the current network environment:

* **Normal cases** (D < 200 ms, L = 0): network features are inert; the
  effective features are the stream type and the overload-related
  configuration parameters (message size, polling interval, message
  timeout, batch size, semantics).
* **Abnormal cases** (faults injected): proper values are fixed for the
  normal-case features so their impact can be neglected, and the grid
  covers the network features (D, L) against the fault-related
  configuration (semantics, batch size, message size).

``collect_training_data`` materialises either grid (or both) into measured
:class:`~repro.testbed.results.ExperimentResult` rows ready for model
training; per-region row budgets keep collection time bounded, mirroring
the paper's "minimise the time spent on collecting training data".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..kafka.semantics import DeliverySemantics
from .results import ExperimentResult
from .runner import run_many
from .scenario import Scenario
from .sweep import grid_points

__all__ = ["CollectionPlan", "normal_case_plan", "abnormal_case_plan", "collect_training_data"]


@dataclass
class CollectionPlan:
    """A named grid of scenarios to measure.

    Attributes
    ----------
    name:
        Region label ("normal" / "abnormal").
    base:
        Scenario supplying unswept features.
    axes:
        Axis name → candidate values (see :func:`~repro.testbed.sweep.apply_axis`).
    max_rows:
        Optional cap; when the full grid is larger, a seeded random subset
        of this size is drawn (Latin-hypercube-flavoured subsampling keeps
        coverage broad).
    """

    name: str
    base: Scenario
    axes: Dict[str, Sequence]
    max_rows: Optional[int] = None

    def scenarios(self, rng: Optional[np.random.Generator] = None) -> List[Scenario]:
        """Materialise the grid (subsampled when ``max_rows`` is set)."""
        size = math.prod(len(values) for values in self.axes.values())
        rows = None
        if self.max_rows is not None and size > self.max_rows:
            rng = rng if rng is not None else np.random.default_rng(self.base.seed)
            rows = sorted(rng.choice(size, size=self.max_rows, replace=False))
        return [
            scenario.with_(seed=self.base.seed + 17 * row)
            for row, scenario in enumerate(grid_points(self.base, self.axes, rows))
        ]


def normal_case_plan(
    base: Optional[Scenario] = None,
    message_count: int = 3000,
    max_rows: Optional[int] = None,
) -> CollectionPlan:
    """The Fig. 3 normal-case grid (D < 200 ms, L = 0).

    Effective features: message size, delivery semantics, batch size,
    polling interval and message timeout, under the full-load/polled
    source discipline where overload losses live.
    """
    if base is None:
        base = Scenario(message_count=message_count)
    base = base.with_(network_delay_s=0.0, loss_rate=0.0)
    axes: Dict[str, Sequence] = {
        "message_bytes": [100, 200, 400, 800],
        "config.semantics": [
            DeliverySemantics.AT_MOST_ONCE,
            DeliverySemantics.AT_LEAST_ONCE,
        ],
        "config.batch_size": [1, 2, 5],
        "config.polling_interval_s": [0.0, 0.03, 0.06, 0.09],
        "config.message_timeout_s": [0.5, 1.0, 1.5, 3.0],
    }
    return CollectionPlan("normal", base, axes, max_rows)


def abnormal_case_plan(
    base: Optional[Scenario] = None,
    message_count: int = 3000,
    max_rows: Optional[int] = None,
) -> CollectionPlan:
    """The Fig. 3 abnormal-case grid (network faults injected).

    Normal-case features are pinned at proper values (generous timeout,
    stable polling is kept at full load to expose congestion); the grid
    covers delay, loss, semantics, batch size and message size.
    """
    if base is None:
        base = Scenario(message_count=message_count)
    base = base.with_(
        config=base.config.with_(message_timeout_s=1.5, polling_interval_s=0.0)
    )
    axes: Dict[str, Sequence] = {
        "message_bytes": [100, 200, 400, 800],
        "network_delay_s": [0.02, 0.1, 0.2],
        "loss_rate": [0.0, 0.05, 0.1, 0.15, 0.2, 0.3],
        "config.semantics": [
            DeliverySemantics.AT_MOST_ONCE,
            DeliverySemantics.AT_LEAST_ONCE,
        ],
        "config.batch_size": [1, 2, 5, 10],
    }
    return CollectionPlan("abnormal", base, axes, max_rows)


def collect_training_data(
    plans: Sequence[CollectionPlan],
    progress: Optional[Callable[[int, int, Scenario], None]] = None,
    workers: Optional[int] = None,
) -> List[ExperimentResult]:
    """Run every scenario of every plan and return the measured rows.

    ``workers`` fans the collection out over a process pool (see
    :func:`~repro.testbed.runner.run_many`); the rows are identical to a
    serial run either way.  ``progress(index, total, scenario)`` fires as
    each row completes.
    """
    scenarios: List[Scenario] = []
    for plan in plans:
        scenarios.extend(plan.scenarios())
    return run_many(scenarios, workers=workers, progress=progress)
