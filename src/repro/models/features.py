"""Feature schema for the reliability prediction model (paper Eq. 1).

The model's inputs are ``(M, S, D, L, Confs)`` where ``Confs`` covers
delivery semantics, batch size, polling interval and message timeout.
Delivery semantics is a categorical feature; following the paper's Fig. 3
design the predictor trains *separate* submodels per semantics (and per
normal/abnormal network region), so the numeric vector excludes it and
the schema exposes the submodel key instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..kafka.semantics import DeliverySemantics
from ..testbed.results import ExperimentResult
from ..testbed.scenario import Scenario

__all__ = ["FeatureVector", "FeatureSchema", "region_of", "NORMAL", "ABNORMAL"]

#: Region labels of the Fig. 3 split.
NORMAL = "normal"
ABNORMAL = "abnormal"

#: The Fig. 3 normal-network predicate thresholds.
_NORMAL_MAX_DELAY_S = 0.200


def region_of(network_delay_s: float, loss_rate: float) -> str:
    """Classify a network condition into the Fig. 3 region."""
    if network_delay_s < _NORMAL_MAX_DELAY_S and loss_rate == 0.0:
        return NORMAL
    return ABNORMAL


@dataclass(frozen=True)
class FeatureVector:
    """One model input: the Eq. 1 features."""

    message_bytes: float
    timeliness_s: float
    network_delay_s: float
    loss_rate: float
    semantics: DeliverySemantics
    batch_size: float
    polling_interval_s: float
    message_timeout_s: float

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "FeatureVector":
        """Extract the features of a testbed scenario."""
        return cls(
            message_bytes=float(scenario.message_bytes),
            timeliness_s=float(scenario.timeliness_s or 0.0),
            network_delay_s=float(scenario.network_delay_s),
            loss_rate=float(scenario.loss_rate),
            semantics=scenario.config.semantics,
            batch_size=float(scenario.config.batch_size),
            polling_interval_s=float(scenario.config.polling_interval_s),
            message_timeout_s=float(scenario.config.message_timeout_s),
        )

    @classmethod
    def from_result(cls, result: ExperimentResult) -> "FeatureVector":
        """Extract the features a measured result was produced under."""
        return cls(
            message_bytes=float(result.message_bytes),
            timeliness_s=float(result.timeliness_s or 0.0),
            network_delay_s=float(result.network_delay_s),
            loss_rate=float(result.loss_rate),
            semantics=DeliverySemantics.parse(result.semantics),
            batch_size=float(result.batch_size),
            polling_interval_s=float(result.polling_interval_s),
            message_timeout_s=float(result.message_timeout_s),
        )

    @property
    def region(self) -> str:
        """Fig. 3 region of this feature vector."""
        return region_of(self.network_delay_s, self.loss_rate)

    @property
    def submodel_key(self) -> Tuple[str, str]:
        """(region, semantics) — the submodel this vector routes to."""
        return (self.region, self.semantics.value)


class FeatureSchema:
    """Maps feature vectors to numeric arrays for one submodel.

    Per the Fig. 3 reduction, each region uses only its *effective*
    numeric features; the remaining inputs are constant within a submodel
    and would only add noise columns.

    The last column is the analytic load ratio λ̂/μ̂ from the
    performance model — the hybrid analytical+ML approach
    of the paper's reference [15].  The ratio encodes where the overload
    cliff sits, which a small MLP struggles to infer from raw features.
    """

    #: Effective numeric features per region.
    REGION_COLUMNS: Dict[str, List[str]] = {
        NORMAL: [
            "message_bytes",
            "timeliness_s",
            "batch_size",
            "polling_interval_s",
            "message_timeout_s",
        ],
        ABNORMAL: [
            "message_bytes",
            "timeliness_s",
            "network_delay_s",
            "loss_rate",
            "batch_size",
            "message_timeout_s",
        ],
    }

    def __init__(self, region: str) -> None:
        if region not in self.REGION_COLUMNS:
            raise ValueError(f"unknown region {region!r}")
        self.region = region
        self.columns = list(self.REGION_COLUMNS[region])
        # One C-level call gathers every raw column of a vector.
        self._raw_columns = operator.attrgetter(*self.columns)
        self.columns.append("load_ratio")
        self._performance_model = None
        # The load ratio is a pure function of its inputs but costs a
        # whole queueing-model evaluation in Python; configuration
        # searches re-encode the same candidates round after round, so
        # memoise per distinct input tuple.
        self._load_ratio_cache: Dict[Tuple, float] = {}

    @property
    def input_dim(self) -> int:
        """Width of the numeric input vector."""
        return len(self.columns)

    def _load_ratio(self, vector: FeatureVector) -> float:
        key = (
            vector.semantics,
            vector.batch_size,
            vector.polling_interval_s,
            vector.message_timeout_s,
            vector.message_bytes,
            vector.network_delay_s,
        )
        cached = self._load_ratio_cache.get(key)
        if cached is not None:
            return cached
        ratio = self._load_ratio_uncached(vector)
        if len(self._load_ratio_cache) >= 4096:
            self._load_ratio_cache.clear()
        self._load_ratio_cache[key] = ratio
        return ratio

    def _load_ratio_uncached(self, vector: FeatureVector) -> float:
        from ..kafka.config import ProducerConfig
        from ..performance.queueing import ProducerPerformanceModel

        if self._performance_model is None:
            self._performance_model = ProducerPerformanceModel()
        config = ProducerConfig(
            semantics=vector.semantics,
            batch_size=max(1, int(round(vector.batch_size))),
            polling_interval_s=vector.polling_interval_s,
            message_timeout_s=vector.message_timeout_s,
        )
        message_bytes = max(1, int(round(vector.message_bytes)))
        mu = self._performance_model.service_rate(
            config, message_bytes, vector.network_delay_s
        )
        lam = self._performance_model.arrival_rate(config, message_bytes)
        return min(10.0, lam / max(mu, 1e-9))

    def _row(self, vector: FeatureVector) -> List[float]:
        row = list(self._raw_columns(vector))
        row.append(self._load_ratio(vector))
        return row

    def encode(self, vector: FeatureVector) -> np.ndarray:
        """Encode one feature vector as a numeric row."""
        return np.array(self._row(vector), dtype=np.float64)

    def encode_many(self, vectors: List[FeatureVector]) -> np.ndarray:
        """Encode a batch of feature vectors as a matrix.

        Values are bitwise-identical to stacking :meth:`encode` rows —
        the columns are gathered as Python floats either way — but the
        matrix is materialised with a single ``np.array`` call instead of
        one small-array allocation per vector.
        """
        if not vectors:
            raise ValueError("no feature vectors to encode")
        return np.array([self._row(vector) for vector in vectors], dtype=np.float64)

    def output_columns(self, semantics: DeliverySemantics) -> List[str]:
        """Model outputs for a semantics: P_l always, P_d only with acks.

        This is the paper's output-layer reduction: under at-most-once
        there are no duplicates, so the submodel predicts P_l alone.
        """
        if semantics is DeliverySemantics.AT_MOST_ONCE:
            return ["p_loss"]
        return ["p_loss", "p_duplicate"]
