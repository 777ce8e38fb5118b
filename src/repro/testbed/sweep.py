"""Feature-grid sweeps over the testbed.

A sweep runs one experiment per point of a cartesian feature grid, with
optional seed replication, mirroring how the paper harvests the figures'
curves ("we observe the changes in P_l with M ranging from 50 to 1000
bytes").  Axis names address either :class:`Scenario` fields directly
(``"message_bytes"``) or producer-configuration fields with a ``config.``
prefix (``"config.batch_size"``).

Sweeps run through the parallel engine (:mod:`repro.testbed.runner`):
pass ``workers=`` to fan the grid out over a process pool and ``cache=``
to reuse rows measured by earlier sweeps — results are identical to the
serial path either way.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from .cache import ResultCache
from .results import ExperimentResult
from .runner import run_many
from .scenario import Scenario

__all__ = ["apply_axis", "derive_seed", "sweep", "replicate", "mean_metric"]


def apply_axis(scenario: Scenario, axis: str, value) -> Scenario:
    """Return ``scenario`` with one axis set.

    ``axis`` is a Scenario field name or ``config.<field>`` for producer
    configuration fields.
    """
    if axis.startswith("config."):
        field = axis[len("config."):]
        return scenario.with_(config=scenario.config.with_(**{field: value}))
    return scenario.with_(**{axis: value})


def derive_seed(base_seed: int, point: int, replication: int) -> int:
    """Derive the seed of one ``(grid point, replication)`` cell.

    The scheme hashes ``"base/point/replication"`` with BLAKE2b and takes
    the first four bytes as an unsigned integer.  This guarantees that

    * every (point, replication) cell of a sweep gets its own random
      streams — the old additive scheme ``base + 1000 * replication``
      reused the identical seed set at every grid point, unintentionally
      coupling all points through common random numbers;
    * replications of the same point differ, so replicate-averaging
      actually averages independent noise;
    * the mapping is deterministic and platform-independent, so sweeps
      stay exactly reproducible (and cacheable) from ``base_seed``.
    """
    digest = hashlib.blake2b(
        f"{base_seed}/{point}/{replication}".encode("ascii"), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big")


def grid_scenarios(
    base: Scenario,
    axes: Dict[str, Sequence],
    replications: int = 1,
) -> List[Scenario]:
    """Materialise the sweep grid as a scenario list (grid order,
    replications adjacent), with per-cell seeds from :func:`derive_seed`."""
    if replications < 1:
        raise ValueError("replications must be >= 1")
    names = list(axes)
    scenarios: List[Scenario] = []
    for point, values in enumerate(
        itertools.product(*(axes[name] for name in names))
    ):
        scenario = base
        for name, value in zip(names, values):
            scenario = apply_axis(scenario, name, value)
        for replication in range(replications):
            scenarios.append(
                scenario.with_(seed=derive_seed(base.seed, point, replication))
            )
    return scenarios


def sweep(
    base: Scenario,
    axes: Dict[str, Sequence],
    replications: int = 1,
    progress: Optional[Callable[[Scenario], None]] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[ExperimentResult]:
    """Run the cartesian product of ``axes`` starting from ``base``.

    Parameters
    ----------
    base:
        Scenario providing every unswept feature.
    axes:
        Mapping of axis name → values, e.g.
        ``{"message_bytes": [50, 100], "config.batch_size": [1, 2]}``.
    replications:
        Experiments per grid point; cell ``(point, k)`` derives its seed
        with :func:`derive_seed` so no two cells share random streams.
    progress:
        Optional callback invoked with each scenario as it completes.
    workers:
        Process-pool size; ``None`` resolves via the ``REPRO_WORKERS``
        environment variable, defaulting to every CPU the process may run
        on (see :func:`~repro.testbed.runner.resolve_workers`).
    cache:
        Optional :class:`~repro.testbed.cache.ResultCache` for reusing
        previously measured rows.

    Returns results in grid order (replications adjacent), identical for
    any worker count.
    """
    scenarios = grid_scenarios(base, axes, replications)
    wrapped = None
    if progress is not None:
        wrapped = lambda index, total, scenario: progress(scenario)  # noqa: E731
    return run_many(scenarios, workers=workers, cache=cache, progress=wrapped)


def replicate(
    scenario: Scenario,
    replications: int,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[ExperimentResult]:
    """Run one scenario under ``replications`` different seeds."""
    return sweep(
        scenario, {}, replications=replications, workers=workers, cache=cache
    )


def mean_metric(
    results: Iterable[ExperimentResult], metric: str = "p_loss"
) -> float:
    """Average a metric over results (CI-friendly aggregation)."""
    values = [getattr(result, metric) for result in results]
    if not values:
        raise ValueError("no results to aggregate")
    return float(np.mean(values))
