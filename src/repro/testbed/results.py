"""Experiment results: the measured reliability metrics plus diagnostics."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from ..kafka.state import DeliveryCase

__all__ = [
    "ExperimentResult",
    "wilson_interval",
    "save_results_csv",
    "load_results_csv",
]


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion.

    Used to report the confidence interval that replaces the paper's
    10^6-message sample when benches run with fewer messages.
    """
    if trials <= 0:
        return (0.0, 1.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return (max(0.0, centre - half), min(1.0, centre + half))


@dataclass
class ExperimentResult:
    """Outcome of one testbed experiment.

    ``p_loss`` and ``p_duplicate`` are the paper's reliability metrics,
    measured by consumer reconciliation (the ground truth).  The case
    census is the producer-view Fig. 2 classification; the two agree up to
    the documented persisted-but-unacked divergence.
    """

    # Features (paper Eq. 1 inputs)
    message_bytes: int
    timeliness_s: Optional[float]
    network_delay_s: float
    loss_rate: float
    semantics: str
    batch_size: int
    polling_interval_s: float
    message_timeout_s: float
    # Outputs
    produced: int
    p_loss: float
    p_duplicate: float
    p_stale: float = 0.0
    # Diagnostics
    case_fractions: Dict[str, float] = field(default_factory=dict)
    persisted_but_unacked: int = 0
    duplicate_copies: int = 0
    throughput_msgs_per_s: Optional[float] = None
    simulated_duration_s: float = 0.0
    retransmissions: int = 0
    request_retries: int = 0
    seed: int = 0
    # Run manifest (observability): attached when the experiment ran with
    # telemetry.  Excluded from equality — wall time differs between
    # bit-identical reruns — and from repr/CSV noise.
    manifest: Optional[Dict] = field(default=None, compare=False, repr=False)

    @property
    def p_loss_ci(self) -> tuple:
        """95 % Wilson interval on the loss probability."""
        return wilson_interval(round(self.p_loss * self.produced), self.produced)

    @property
    def p_duplicate_ci(self) -> tuple:
        """95 % Wilson interval on the duplicate probability."""
        return wilson_interval(round(self.p_duplicate * self.produced), self.produced)

    @classmethod
    def case_key(cls, case: DeliveryCase) -> str:
        """Stable string key for a delivery case."""
        return f"case{case.value}"


_CSV_FIELDS = [
    "message_bytes",
    "timeliness_s",
    "network_delay_s",
    "loss_rate",
    "semantics",
    "batch_size",
    "polling_interval_s",
    "message_timeout_s",
    "produced",
    "p_loss",
    "p_duplicate",
    "p_stale",
    "seed",
]


def save_results_csv(results: Iterable[ExperimentResult], path: "str | Path") -> None:
    """Persist results (features + metrics) as CSV for model training."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for result in results:
            row = {name: getattr(result, name) for name in _CSV_FIELDS}
            row["timeliness_s"] = result.timeliness_s if result.timeliness_s is not None else ""
            writer.writerow(row)


def load_results_csv(path: "str | Path") -> List[ExperimentResult]:
    """Load results previously saved with :func:`save_results_csv`."""
    out: List[ExperimentResult] = []
    with Path(path).open() as handle:
        for row in csv.DictReader(handle):
            out.append(
                ExperimentResult(
                    message_bytes=int(row["message_bytes"]),
                    timeliness_s=float(row["timeliness_s"]) if row["timeliness_s"] else None,
                    network_delay_s=float(row["network_delay_s"]),
                    loss_rate=float(row["loss_rate"]),
                    semantics=row["semantics"],
                    batch_size=int(row["batch_size"]),
                    polling_interval_s=float(row["polling_interval_s"]),
                    message_timeout_s=float(row["message_timeout_s"]),
                    produced=int(row["produced"]),
                    p_loss=float(row["p_loss"]),
                    p_duplicate=float(row["p_duplicate"]),
                    p_stale=float(row["p_stale"]),
                    seed=int(row["seed"]),
                )
            )
    return out
