"""The reliability predictor — the paper's primary contribution.

``{P̂_l, P̂_d} = f(M, S, D, L, Confs)`` (Eq. 1), realised as a family of
ANN submodels routed by the Fig. 3 region (normal/abnormal network) and
the delivery semantics (at-most-once predicts only P̂_l).  Each submodel
is the paper's fully-connected network (hidden layers 200/200/200/64,
SGD, MSE) behind a standard scaler; predictions are clipped to [0, 1].
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, cast

import numpy as np

from ..ann.network import PAPER_HIDDEN_LAYERS, Sequential, build_mlp
from ..ann.optimizers import SGD
from ..ann.scaling import StandardScaler
from ..kafka.semantics import DeliverySemantics
from ..testbed.results import ExperimentResult
from .features import FeatureSchema, FeatureVector

__all__ = [
    "TrainingSettings",
    "ReliabilityEstimate",
    "FallbackEstimate",
    "SubModel",
    "ReliabilityPredictor",
    "CONSERVATIVE_ESTIMATE",
    "TIERS",
]



@dataclass(frozen=True)
class TrainingSettings:
    """Hyperparameters for submodel training.

    Defaults follow the paper (Section III-G): hidden layers 200/200/200/64,
    SGD with learning rate 0.5, 1000 epochs.  Tests and quick runs pass a
    smaller topology and fewer epochs.
    """

    hidden: Tuple[int, ...] = PAPER_HIDDEN_LAYERS
    learning_rate: float = 0.5
    epochs: int = 1000
    batch_size: int = 32
    validation_fraction: float = 0.15
    patience: Optional[int] = 100
    seed: int = 0
    physics_features: bool = True

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.validation_fraction < 0.5:
            raise ValueError("validation_fraction must be in (0, 0.5)")


@dataclass(frozen=True)
class ReliabilityEstimate:
    """A prediction of the two reliability metrics."""

    p_loss: float
    p_duplicate: float

    def __post_init__(self) -> None:
        for name, value in (("p_loss", self.p_loss), ("p_duplicate", self.p_duplicate)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")


#: The last resort of the prediction fallback chain: assume the network is
#: bad enough that half the stream is at risk and duplicates are possible.
#: Deliberately pessimistic so a controller falling back to it prefers the
#: safest configurations rather than optimistic, brittle ones.
CONSERVATIVE_ESTIMATE = ReliabilityEstimate(p_loss=0.5, p_duplicate=0.05)

#: The fallback chain's tiers, best first (``FallbackEstimate.source``).
TIERS = ("ann", "neighbour", "conservative")

#: Sentinel distinguishing "index not built yet" from "built, but empty"
#: (``None``) in the neighbour-index cache.
_UNBUILT = object()


@dataclass(frozen=True)
class FallbackEstimate:
    """A prediction plus the fallback-chain tier that produced it.

    ``source`` is one of ``"ann"`` (a trained submodel served the
    prediction), ``"neighbour"`` (nearest measured neighbour of the query
    among remembered results) or ``"conservative"`` (the pessimistic
    built-in default — nothing else applied).
    """

    estimate: ReliabilityEstimate
    source: str

    @property
    def degraded(self) -> bool:
        """Whether the prediction came from a fallback tier, not the ANN."""
        return self.source != "ann"


class SubModel:
    """One (region, semantics) ANN with its scaler."""

    def __init__(
        self,
        region: str,
        semantics: DeliverySemantics,
        network: Sequential,
        scaler: StandardScaler,
        physics_features: bool = True,
    ) -> None:
        self.region = region
        self.semantics = semantics
        self.network = network
        self.scaler = scaler
        self.schema = FeatureSchema(region, physics_features)
        self.outputs = self.schema.output_columns(semantics)

    def predict_rows(self, rows: np.ndarray) -> np.ndarray:
        """One vectorised forward pass over pre-encoded rows, clipped to [0, 1].

        Row ``i`` of the result does not depend on the other rows: the
        scaler and the clip are elementwise, and
        :meth:`Sequential.predict_rowwise` keeps per-row GEMV accumulation
        order inside the network, so a batch of one equals any batch.
        """
        scaled = self.scaler.transform(rows)
        return np.clip(self.network.predict_rowwise(scaled), 0.0, 1.0)

    def estimate_from_outputs(self, outputs: np.ndarray) -> ReliabilityEstimate:
        """Name one output row and wrap it as a :class:`ReliabilityEstimate`."""
        named = dict(zip(self.outputs, outputs))
        return ReliabilityEstimate(
            p_loss=float(named.get("p_loss", 0.0)),
            p_duplicate=float(named.get("p_duplicate", 0.0)),
        )


class ReliabilityPredictor:
    """Routes feature vectors to trained submodels (the Eq. 1 ``f``)."""

    #: Characteristic scales used to normalise feature distances in the
    #: nearest-neighbour fallback (roughly the spans of the Fig. 3 grid).
    _NEIGHBOUR_SCALES = {
        "message_bytes": 1000.0,
        "timeliness_s": 10.0,
        "network_delay_s": 0.4,
        "loss_rate": 0.3,
        "batch_size": 10.0,
        "polling_interval_s": 0.1,
        "message_timeout_s": 3.0,
    }

    #: Capacity of the quantised-feature prediction memo (LRU eviction).
    MEMO_CAPACITY = 4096

    def __init__(self) -> None:
        self.submodels: Dict[Tuple[str, str], SubModel] = {}
        self._memory: List[ExperimentResult] = []
        # Quantised-feature LRU memo over the fallback chain's answers.
        # Keys are FeatureVector.quantised_key(); entries are the exact
        # FallbackEstimate the chain produced, so a memo hit is
        # bit-identical to recomputing.  Invalidated whenever the chain's
        # inputs change: fit() (new submodels) and remember() (new rows
        # for the neighbour tier).
        self._memo: "OrderedDict[Tuple, FallbackEstimate]" = OrderedDict()
        self._memo_hits = 0
        self._memo_misses = 0
        # Per-semantics numpy index over remembered rows for the
        # vectorised nearest-neighbour fallback; rebuilt lazily after
        # every invalidation.
        self._neighbour_index_cache: Dict[
            str, Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
        ] = {}

    # ------------------------------------------------------------- caching

    def invalidate_caches(self) -> None:
        """Drop the prediction memo and the neighbour index.

        Called automatically by :meth:`fit` and :meth:`remember`; exposed
        for callers that mutate :attr:`submodels` directly (registry
        loaders, tests).
        """
        self._memo.clear()
        self._neighbour_index_cache.clear()

    @property
    def memo_stats(self) -> Tuple[int, int]:
        """(hits, misses) of the quantised-feature memo since creation."""
        return (self._memo_hits, self._memo_misses)

    def _memo_get(self, key: Tuple) -> Optional[FallbackEstimate]:
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            self._memo_hits += 1
        else:
            self._memo_misses += 1
        return hit

    def _memo_put(self, key: Tuple, value: FallbackEstimate) -> None:
        self._memo[key] = value
        self._memo.move_to_end(key)
        while len(self._memo) > self.MEMO_CAPACITY:
            self._memo.popitem(last=False)

    # ------------------------------------------------------------ training

    @staticmethod
    def _targets(result: ExperimentResult, outputs: List[str]) -> np.ndarray:
        mapping = {"p_loss": result.p_loss, "p_duplicate": result.p_duplicate}
        return np.array([mapping[name] for name in outputs], dtype=np.float64)

    def fit(
        self,
        results: Sequence[ExperimentResult],
        settings: Optional[TrainingSettings] = None,
    ) -> Dict[Tuple[str, str], int]:
        """Train one submodel per (region, semantics) present in ``results``.

        Returns the number of training rows per submodel.  Regions or
        semantics with fewer than 8 rows are skipped (too little data to
        even overfit meaningfully); queries routed to a missing submodel
        raise ``KeyError`` from :meth:`predict_vectors` and fall through
        to the degraded tiers of :meth:`predict_with_fallback_batch`.
        """
        if not results:
            raise ValueError("no training data")
        settings = settings if settings is not None else TrainingSettings()
        # Training rows double as the neighbour-fallback lookup table, so a
        # freshly trained predictor degrades gracefully out of the box.
        # (Registry persistence stores only the networks; reload and call
        # :meth:`remember` to rebuild the table from saved results.)
        self._memory.extend(results)
        self.invalidate_caches()
        groups: Dict[Tuple[str, str], List[ExperimentResult]] = {}
        for result in results:
            vector = FeatureVector.from_result(result)
            groups.setdefault(vector.submodel_key, []).append(result)
        counts: Dict[Tuple[str, str], int] = {}
        for key, rows in groups.items():
            if len(rows) < 8:
                continue
            counts[key] = len(rows)
            self._fit_submodel(key, rows, settings)
        if not self.submodels:
            raise ValueError("every submodel group had fewer than 8 rows")
        return counts

    def _fit_submodel(
        self,
        key: Tuple[str, str],
        rows: Sequence[ExperimentResult],
        settings: TrainingSettings,
    ) -> None:
        region, semantics_value = key
        semantics = DeliverySemantics.parse(semantics_value)
        schema = FeatureSchema(region, settings.physics_features)
        outputs = schema.output_columns(semantics)
        vectors = [FeatureVector.from_result(row) for row in rows]
        x = schema.encode_many(vectors)
        y = np.stack([self._targets(row, outputs) for row in rows])
        scaler = StandardScaler()
        x_scaled = scaler.fit_transform(x)
        rng = np.random.default_rng(settings.seed)
        count = x.shape[0]
        order = rng.permutation(count)
        val_count = max(1, int(round(count * settings.validation_fraction)))
        val_index, train_index = order[:val_count], order[val_count:]
        network = build_mlp(
            schema.input_dim,
            len(outputs),
            hidden=settings.hidden,
            seed=settings.seed,
        )
        network.fit(
            x_scaled[train_index],
            y[train_index],
            epochs=settings.epochs,
            batch_size=settings.batch_size,
            optimizer=SGD(settings.learning_rate),
            loss="mse",
            validation=(x_scaled[val_index], y[val_index]),
            patience=settings.patience,
            rng=rng,
        )
        self.submodels[key] = SubModel(
            region, semantics, network, scaler, settings.physics_features
        )

    # ------------------------------------------------------------ fallback

    def remember(self, results: Sequence[ExperimentResult]) -> int:
        """Retain measured rows for the nearest-neighbour fallback tier.

        Training already consumes measured results; remembering them (or
        any later measurements) keeps a plain lookup table the fallback
        chain can serve from when no submodel covers a query — e.g. a
        semantics/region combination that had too few training rows, or a
        predictor still warming up.  Returns the total remembered rows.
        """
        self._memory.extend(results)
        self.invalidate_caches()
        return len(self._memory)

    @property
    def remembered_rows(self) -> int:
        """Number of measured rows available to the neighbour fallback."""
        return len(self._memory)

    def _neighbour_index(
        self, semantics: DeliverySemantics
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Numpy view of the remembered rows under one semantics.

        Returns ``(features, p_loss, p_duplicate)`` where ``features`` has
        one column per :data:`_NEIGHBOUR_SCALES` entry and rows keep the
        memory (insertion) order — the tie-breaking order of
        :meth:`_nearest_neighbour`.  Rebuilt lazily after every
        :meth:`invalidate_caches`.
        """
        cached = self._neighbour_index_cache.get(semantics.value, _UNBUILT)
        if cached is not _UNBUILT:
            return cached
        features: List[List[float]] = []
        p_loss: List[float] = []
        p_duplicate: List[float] = []
        names = list(self._NEIGHBOUR_SCALES)
        for row in self._memory:
            candidate = FeatureVector.from_result(row)
            if candidate.semantics is not semantics:
                continue
            features.append([getattr(candidate, name) for name in names])
            p_loss.append(row.p_loss)
            p_duplicate.append(row.p_duplicate)
        index: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
        if not features:
            index = None
        else:
            index = (
                np.array(features, dtype=np.float64),
                np.array(p_loss, dtype=np.float64),
                np.array(p_duplicate, dtype=np.float64),
            )
        self._neighbour_index_cache[semantics.value] = index
        return index

    def _nearest_neighbour(
        self, vector: FeatureVector
    ) -> Optional[ReliabilityEstimate]:
        """Measured result closest to ``vector`` under the same semantics.

        Ties resolve to the earliest remembered row, so the tier is
        deterministic for a fixed memory.  The distances are computed over
        the whole memory at once with numpy, column by column in
        :data:`_NEIGHBOUR_SCALES` order so every per-row sum reproduces a
        sequential Python accumulation bit for bit (``np.sum`` would not:
        it uses pairwise summation).
        """
        index = self._neighbour_index(vector.semantics)
        if index is None:
            return None
        features, p_loss, p_duplicate = index
        total: Optional[np.ndarray] = None
        for column, (name, scale) in enumerate(self._NEIGHBOUR_SCALES.items()):
            delta = (getattr(vector, name) - features[:, column]) / scale
            squared = delta * delta
            total = squared if total is None else total + squared
        pick = int(np.argmin(total))
        return ReliabilityEstimate(
            p_loss=min(1.0, max(0.0, float(p_loss[pick]))),
            p_duplicate=min(1.0, max(0.0, float(p_duplicate[pick]))),
        )

    # ---------------------------------------------------------- prediction

    def predict_with_fallback_batch(
        self, vectors: Sequence[FeatureVector]
    ) -> List[FallbackEstimate]:
        """Eq. 1 through the degradation chain, one tiered estimate per vector.

        The one prediction entry point of the configuration search and
        every controller; it never raises ``KeyError``.  Tier 1 is the
        trained ANN submodel (the normal path).  When no submodel covers
        a query, tier 2 answers with the measured result nearest in
        feature space under the same semantics.  With no usable memory
        either, tier 3 returns :data:`CONSERVATIVE_ESTIMATE` — a
        pessimistic constant that steers any downstream configuration
        search toward the safest settings.  A single query is a batch of
        one.
        """
        return self._predict(vectors, fallback=True)

    def predict_vectors(
        self, vectors: Sequence[FeatureVector]
    ) -> List[ReliabilityEstimate]:
        """The ANN tier alone: raises ``KeyError`` for an uncovered vector.

        :meth:`evaluate` uses it to report the paper's MAE for the network
        itself rather than for the fallback chain.
        """
        return [tiered.estimate for tiered in self._predict(vectors, fallback=False)]

    def _predict(
        self, vectors: Sequence[FeatureVector], fallback: bool
    ) -> List[FallbackEstimate]:
        """Shared core: quantised-feature memo, then one forward pass per
        submodel group, then (with ``fallback``) the degraded tiers.

        Every answer lands in the memo, so repeated queries (hill-climb
        search revisiting the same candidates round after round) are
        O(1).  Without ``fallback`` only ``"ann"`` memo entries are served
        and the first uncovered vector raises ``KeyError``.
        """
        vectors = list(vectors)
        out: List[Optional[FallbackEstimate]] = [None] * len(vectors)
        keys: List[Tuple] = []
        pending: Dict[Tuple[str, str], List[int]] = {}
        uncovered: List[int] = []
        for i, vector in enumerate(vectors):
            # The first two key elements ARE the submodel key, so one
            # quantised_key() call covers both routing and the memo probe.
            quantised = vector.quantised_key()
            keys.append(quantised)
            cached = self._memo_get(quantised)
            if cached is not None and (fallback or cached.source == "ann"):
                # fit() and remember() invalidate the memo, so an entry
                # still answers from the tier it was stored under and the
                # coverage check can be skipped on a hit.
                out[i] = cached
                continue
            key = quantised[:2]
            if key in self.submodels:
                pending.setdefault(key, []).append(i)
            elif fallback:
                uncovered.append(i)
            else:
                raise KeyError(
                    f"no submodel trained for region={key[0]!r}, semantics={key[1]!r}"
                )
        for key, indices in pending.items():
            submodel = self.submodels[key]
            rows = submodel.schema.encode_many([vectors[i] for i in indices])
            outputs = submodel.predict_rows(rows)
            for slot, i in enumerate(indices):
                result = FallbackEstimate(
                    submodel.estimate_from_outputs(outputs[slot]), "ann"
                )
                out[i] = result
                self._memo_put(keys[i], result)
        for i in uncovered:
            neighbour = self._nearest_neighbour(vectors[i])
            if neighbour is not None:
                result = FallbackEstimate(neighbour, "neighbour")
            else:
                result = FallbackEstimate(CONSERVATIVE_ESTIMATE, "conservative")
            out[i] = result
            self._memo_put(keys[i], result)
        return cast(List[FallbackEstimate], out)

    # ---------------------------------------------------------- evaluation

    def evaluate(
        self, results: Sequence[ExperimentResult]
    ) -> Dict[str, float]:
        """MAE of the predictor against measured hold-out results.

        Returns per-output MAE plus ``"overall"`` — the figure the paper
        reports as "below 0.02".
        """
        errors: Dict[str, List[float]] = {"p_loss": [], "p_duplicate": []}
        vectors = [FeatureVector.from_result(result) for result in results]
        estimates = self.predict_vectors(vectors)
        for result, vector, estimate in zip(results, vectors, estimates):
            errors["p_loss"].append(abs(estimate.p_loss - result.p_loss))
            if vector.semantics is not DeliverySemantics.AT_MOST_ONCE:
                errors["p_duplicate"].append(
                    abs(estimate.p_duplicate - result.p_duplicate)
                )
        report = {
            name: float(np.mean(values))
            for name, values in errors.items()
            if values
        }
        all_errors = [e for values in errors.values() for e in values]
        if not all_errors:
            raise ValueError("no evaluable results")
        report["overall"] = float(np.mean(all_errors))
        return report
