"""Configuration selection by stepwise KPI search (paper Section V).

"For each parameter, we move its current value stepwise forward or
backward and substitute the value into our prediction model to obtain the
predicted results.  We repeat this until the predicted γ meets the
requirement."  The purpose is explicitly *not* to find the maximum γ but
the first configuration satisfying the user's requirement — the outputs
are near-monotone in the inputs, so a greedy coordinate walk suffices.

Also implements the Section IV-C producer scaling rule
``N_p / δ = N_p' / (δ + Δδ)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..kafka.config import ProducerConfig
from ..kafka.semantics import DeliverySemantics
from ..models.features import FeatureVector
from ..models.predictor import (
    TIERS,
    FallbackEstimate,
    ReliabilityEstimate,
    ReliabilityPredictor,
)
from ..performance.queueing import PerformanceEstimate, ProducerPerformanceModel
from .weighted import DEFAULT_WEIGHTS, KpiWeights, kpi_from_estimates

__all__ = [
    "SelectionContext",
    "ParameterSteps",
    "SelectionResult",
    "evaluate_configs",
    "select_configuration",
    "scale_producers",
]

#: Rounds of the coordinate search before it stops without a fixed point.
_MAX_ROUNDS = 8

#: One coordinate's axis during the search: its candidate values, the
#: position of the entry config's value, and the performance estimates of
#: the candidates scored and the reliability estimates fetched so far, both
#: keyed by position.
_Axis = Tuple[
    List[Any],
    int,
    Dict[int, PerformanceEstimate],
    Dict[int, FallbackEstimate],
]

#: The estimate recorded for a pruned candidate: one the ANN tier covers
#: whose best case (no loss, no duplicates) cannot beat the current γ.  It
#: is never predicted and never wins a move; it counts as an ANN answer,
#: which it would have been.
_PRUNED = FallbackEstimate(ReliabilityEstimate(1.0, 1.0), "ann")


@dataclass(frozen=True)
class SelectionContext:
    """The environment a configuration is being chosen for."""

    message_bytes: int
    timeliness_s: float
    network_delay_s: float
    loss_rate: float

    def feature_vector(self, config: ProducerConfig) -> FeatureVector:
        """Combine environment and configuration into model inputs.

        Equal to calling ``FeatureVector(...)`` with these fields, at about
        a third of its cost: the search builds one vector per candidate,
        so the fields go straight into the instance dict instead of
        through the frozen dataclass's ``__init__`` (``FeatureVector``
        has no ``__post_init__`` to skip).
        """
        vector = object.__new__(FeatureVector)
        vector.__dict__.update(
            message_bytes=float(self.message_bytes),
            timeliness_s=float(self.timeliness_s),
            network_delay_s=float(self.network_delay_s),
            loss_rate=float(self.loss_rate),
            semantics=config.semantics,
            batch_size=float(config.batch_size),
            polling_interval_s=float(config.polling_interval_s),
            message_timeout_s=float(config.message_timeout_s),
        )
        return vector


@dataclass(frozen=True)
class ParameterSteps:
    """Candidate values per tunable parameter, in stepwise order."""

    semantics: Sequence[DeliverySemantics] = (
        DeliverySemantics.AT_LEAST_ONCE,
        DeliverySemantics.AT_MOST_ONCE,
    )
    batch_size: Sequence[int] = (1, 2, 3, 4, 6, 8, 10)
    polling_interval_s: Sequence[float] = (0.0, 0.02, 0.04, 0.06, 0.09)
    message_timeout_s: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 3.0)

    def __post_init__(self) -> None:
        # The search scores a candidate from its fields and builds its
        # ProducerConfig only when the walk moves to it, so every value is
        # checked here, once, by the checks a config runs.
        base = ProducerConfig()
        for parameter in _PARAMETERS:
            for value in getattr(self, parameter):
                base.with_(**{parameter: value})


#: The tunable parameters, in the order the search walks them.
_PARAMETERS = ("semantics", "batch_size", "polling_interval_s", "message_timeout_s")

#: The steps used when a search is given none (checked once, not per call).
_DEFAULT_STEPS = ParameterSteps()


@dataclass
class SelectionResult:
    """Outcome of a stepwise search.

    ``prediction_source`` is the worst fallback tier (see
    :data:`~repro.models.predictor.TIERS`) among every estimate the search
    read, so a guard can tell a decision built on the ANN from one built
    on a degraded tier.  A candidate pruned without a prediction is one
    the ANN tier covers, so it counts as ``"ann"``.  ``config_source`` is
    the tier of the estimate behind ``gamma`` itself.
    """

    config: ProducerConfig
    gamma: float
    met_requirement: bool
    steps_taken: int
    trace: List[Tuple[str, float]] = field(default_factory=list)
    prediction_source: str = "ann"
    config_source: str = "ann"


def evaluate_configs(
    configs: Sequence[ProducerConfig],
    context: SelectionContext,
    predictor: ReliabilityPredictor,
    performance_model: ProducerPerformanceModel,
    weights: KpiWeights = DEFAULT_WEIGHTS,
) -> List[Tuple[float, str]]:
    """Predicted γ of many configurations, each with its prediction tier.

    The reliability estimates come from one
    :meth:`~ReliabilityPredictor.predict_with_fallback_batch` call, so
    every candidate is scored: an uncovered one from the neighbour or
    conservative tier.  The performance model side is closed-form per
    candidate and memoised inside :meth:`ProducerPerformanceModel.predict`,
    so the repeated re-scoring a hill-climb does costs one dict hit per
    revisit.
    """
    configs = list(configs)
    estimates = predictor.predict_with_fallback_batch(
        [context.feature_vector(config) for config in configs]
    )
    scored: List[Tuple[float, str]] = []
    for config, tiered in zip(configs, estimates):
        performance = performance_model.predict(
            config, context.message_bytes, context.network_delay_s
        )
        scored.append(
            (kpi_from_estimates(performance, tiered.estimate, weights), tiered.source)
        )
    return scored


def _axis_values(
    steps: ParameterSteps, parameter: str, config: ProducerConfig
) -> Tuple[List[Any], int]:
    """The candidate values of ``parameter`` and the position of ``config``'s.

    A current value off the step grid joins it in order.
    """
    values = list(getattr(steps, parameter))
    current_value = getattr(config, parameter)
    if current_value not in values:
        values = sorted(
            set(values) | {current_value},
            key=lambda v: (str(v) if parameter == "semantics" else float(v)),
        )
    return values, values.index(current_value)


def select_configuration(
    context: SelectionContext,
    predictor: ReliabilityPredictor,
    performance_model: ProducerPerformanceModel,
    weights: KpiWeights = DEFAULT_WEIGHTS,
    gamma_requirement: float = 0.8,
    start: Optional[ProducerConfig] = None,
    steps: Optional[ParameterSteps] = None,
) -> SelectionResult:
    """Stepwise coordinate search until γ meets the requirement.

    Each round walks the parameters in a fixed order; for each, the
    current value is moved one step at a time in the direction that
    improves the predicted γ, stopping at a local optimum for that
    coordinate.  The search exits as soon as the requirement is met (the
    paper's criterion), when a full round makes no move, or after
    ``_MAX_ROUNDS`` rounds.

    Estimates come in two stages, each one
    :meth:`~ReliabilityPredictor.predict_with_fallback_batch` call.  The
    first stage works per round: when the walk reaches a coordinate whose
    neighbours at the current config are not fetched yet, one call fetches
    the immediate neighbours of that coordinate and of every later one.  A
    walk that never moves therefore makes at most two calls in all (the
    start config and one round).  The second stage works per axis: once
    the walk moves on a coordinate and wants more than the entry value's
    neighbours, one call fetches the rest of that axis.  A move changes
    the config, so the later coordinates fetch their neighbours again.

    A candidate is the current config with one parameter changed, and it
    is scored from those fields
    (:meth:`~ProducerPerformanceModel.predict_fields`) when its axis is
    built: its :class:`ProducerConfig` is built only if the walk moves to
    it, and its feature vector only if it is fetched.  Eq. 2 with
    P_l = P_d = 0 is its best possible γ.  When the ANN tier covers the
    candidate (:meth:`~ReliabilityPredictor.covers`, asked once per
    semantics: within one context coverage depends on nothing else) and
    that best case cannot beat the current γ, the candidate is pruned: it
    is never predicted, counts one step when the walk reaches it, and
    never wins a move.  γ only rises during a walk, so the walk would have
    rejected it anyway, and every result field is the same as without
    pruning.  A candidate only a fallback tier answers is always fetched.
    Nothing is kept between calls but the predictor's and the model's own
    memos, which answer as a cold call would.

    ``prediction_source`` folds in the neighbours of each coordinate the
    walk reaches and every second-stage row, never the neighbours of a
    coordinate it left before reaching; pruned candidates count as
    ``"ann"``.
    """
    steps = steps if steps is not None else _DEFAULT_STEPS
    config = start if start is not None else ProducerConfig()
    gamma, source = evaluate_configs(
        [config], context, predictor, performance_model, weights
    )[0]
    result = SelectionResult(
        config,
        gamma,
        gamma >= gamma_requirement,
        0,
        prediction_source=source,
        config_source=source,
    )
    result.trace.append(("start", gamma))
    if result.met_requirement:
        return result

    message_bytes, delay = context.message_bytes, context.network_delay_s
    predict_fields = performance_model.predict_fields
    bandwidth_weight, service_weight, loss_weight, duplicate_weight = weights.as_tuple()
    # Whether the ANN tier covers a semantics here: coverage depends on a
    # vector only through its submodel key, (region, semantics), and the
    # context fixes the region.
    covered: Dict[DeliverySemantics, bool] = {}
    # The current config's fields and its feature vector's: a candidate is
    # one of them changed, and only a config the walk moves to is built.
    fields = config.__dict__
    features = context.feature_vector(config).__dict__

    def build(parameter: str, position: int, axis: _Axis) -> Optional[FeatureVector]:
        """Score the current config with ``parameter`` at the axis value
        ``position``.

        Returns the candidate's vector to fetch, or ``None`` when it is
        pruned (its marker is then recorded as its estimate).
        """
        values, _, performances, estimates = axis
        value = values[position]
        point = dict(fields)
        point[parameter] = value
        semantics = DeliverySemantics.parse(point["semantics"])
        feature = semantics if parameter == "semantics" else float(value)
        performance = performances[position] = predict_fields(
            message_bytes,
            delay,
            semantics.waits_for_ack,
            point["batch_size"],
            point["max_in_flight"],
            point["polling_interval_s"],
        )
        # weighted_kpi(φ, μ, 0, 0, weights) to the bit: ω·(1.0 − 0.0) is
        # ω exactly, and the sum runs left to right as there.
        best = (
            bandwidth_weight * performance.bandwidth_utilization
            + service_weight * performance.service_rate_norm
            + loss_weight
            + duplicate_weight
        )
        if best <= gamma + 1e-9:
            covers = covered.get(semantics)
            if covers is None:
                covers = covered[semantics] = predictor.covers(
                    _changed(features, parameter, feature)
                )
            if covers:
                estimates[position] = _PRUNED
                return None
        return _changed(features, parameter, feature)

    # First fetch stage, per parameter: its axis at the current config, the
    # candidates scored so far (the current config with that one field
    # changed) and their estimates.  Every entry describes the current
    # config, so a move clears them all; each move raises γ, so the walk
    # never comes back to a config whose entries were cleared.
    axes: Dict[str, _Axis] = {}
    for _round in range(_MAX_ROUNDS):
        moved = False
        for order, parameter in enumerate(_PARAMETERS):
            if parameter not in axes:
                # One grouped call fetches the immediate neighbours of this
                # coordinate and of every later one: a walk that does not
                # move reads all of them, so it pays one call per round
                # rather than one per coordinate.
                slots: List[Tuple[Dict[int, FallbackEstimate], int]] = []
                vectors: List[FeatureVector] = []
                for later in _PARAMETERS[order:]:
                    if later in axes:
                        continue
                    values, index = _axis_values(steps, later, config)
                    estimates: Dict[int, FallbackEstimate] = {}
                    axis: _Axis = (values, index, {}, estimates)
                    axes[later] = axis
                    for position in (index - 1, index + 1):
                        if 0 <= position < len(values):
                            vector = build(later, position, axis)
                            if vector is not None:
                                vectors.append(vector)
                                slots.append((estimates, position))
                if vectors:
                    fetched = predictor.predict_with_fallback_batch(vectors)
                    for (estimates, position), tiered in zip(slots, fetched):
                        estimates[position] = tiered
            axis = axes[parameter]
            values, index, performances, estimates = axis
            # Only the neighbours of a coordinate the walk reaches count
            # toward prediction_source, never rows fetched for a later
            # coordinate that the walk left before reaching (it met γ or
            # moved first).
            result.prediction_source = max(
                [result.prediction_source] + [t.source for t in estimates.values()],
                key=TIERS.index,
            )
            improved = True
            while improved:
                improved = False
                for direction in (+1, -1):
                    neighbour = index + direction
                    if not 0 <= neighbour < len(values):
                        continue
                    if neighbour not in estimates:
                        # Second stage: the walk moved on this axis and wants
                        # more than the entry's neighbours, so the rest of the
                        # axis comes in one call.  The current config differs
                        # from the entry one only in this parameter, which
                        # each candidate replaces.
                        rest: List[int] = []
                        vectors = []
                        for position in range(len(values)):
                            if position in estimates:
                                continue
                            vector = build(parameter, position, axis)
                            if vector is not None:
                                rest.append(position)
                                vectors.append(vector)
                        if vectors:
                            fetched = predictor.predict_with_fallback_batch(vectors)
                            result.prediction_source = max(
                                [result.prediction_source] + [t.source for t in fetched],
                                key=TIERS.index,
                            )
                            estimates.update(zip(rest, fetched))
                    result.steps_taken += 1
                    tiered = estimates[neighbour]
                    if tiered is _PRUNED:
                        continue
                    candidate_gamma = kpi_from_estimates(
                        performances[neighbour], tiered.estimate, weights
                    )
                    if candidate_gamma > gamma + 1e-9:
                        config = config.with_(**{parameter: values[neighbour]})
                        fields = config.__dict__
                        features = context.feature_vector(config).__dict__
                        gamma, index = candidate_gamma, neighbour
                        axes.clear()
                        result.config_source = tiered.source
                        result.trace.append((f"{parameter}={values[neighbour]}", gamma))
                        moved = True
                        improved = True
                        break
                if gamma >= gamma_requirement:
                    result.config, result.gamma = config, gamma
                    result.met_requirement = True
                    return result
        if not moved:
            break
    result.config, result.gamma = config, gamma
    result.met_requirement = gamma >= gamma_requirement
    return result


def _changed(features: Dict[str, Any], parameter: str, feature: Any) -> FeatureVector:
    """The feature vector with fields ``features`` but ``parameter`` set to
    ``feature`` (built as :meth:`SelectionContext.feature_vector` builds)."""
    vector = object.__new__(FeatureVector)
    vector.__dict__.update(features)
    vector.__dict__[parameter] = feature
    return vector


def scale_producers(
    current_producers: int,
    current_polling_interval_s: float,
    target_polling_interval_s: float,
) -> int:
    """Section IV-C scaling rule: keep the aggregate arrival rate.

    ``N_p / δ = N_p' / (δ + Δδ)`` — increasing each producer's polling
    interval from δ to δ+Δδ requires proportionally more producers.
    """
    if current_producers < 1:
        raise ValueError("current_producers must be >= 1")
    if current_polling_interval_s <= 0 or target_polling_interval_s <= 0:
        raise ValueError("polling intervals must be positive for the scaling rule")
    scaled = current_producers * target_polling_interval_s / current_polling_interval_s
    return max(current_producers, int(math.ceil(scaled)))
