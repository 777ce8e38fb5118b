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
from typing import Dict, List, Optional, Sequence, Tuple

from ..kafka.config import ProducerConfig
from ..kafka.semantics import DeliverySemantics
from ..models.features import FeatureVector
from ..models.predictor import TIERS, FallbackEstimate, ReliabilityPredictor
from ..performance.queueing import ProducerPerformanceModel
from .weighted import DEFAULT_WEIGHTS, KpiWeights, kpi_from_estimates

__all__ = [
    "SelectionContext",
    "ParameterSteps",
    "SelectionResult",
    "evaluate_configs",
    "select_configuration",
    "scale_producers",
]


@dataclass(frozen=True)
class SelectionContext:
    """The environment a configuration is being chosen for."""

    message_bytes: int
    timeliness_s: float
    network_delay_s: float
    loss_rate: float

    def feature_vector(self, config: ProducerConfig) -> FeatureVector:
        """Combine environment and configuration into model inputs."""
        return FeatureVector(
            message_bytes=float(self.message_bytes),
            timeliness_s=float(self.timeliness_s),
            network_delay_s=float(self.network_delay_s),
            loss_rate=float(self.loss_rate),
            semantics=config.semantics,
            batch_size=float(config.batch_size),
            polling_interval_s=float(config.polling_interval_s),
            message_timeout_s=float(config.message_timeout_s),
        )


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


@dataclass
class SelectionResult:
    """Outcome of a stepwise search.

    ``prediction_source`` is the worst fallback tier (see
    :data:`~repro.models.predictor.TIERS`) among every estimate the search
    read, so a guard can tell a decision built on the ANN from one built
    on a degraded tier; ``config_source`` is the tier of the estimate
    behind ``gamma`` itself.
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


def select_configuration(
    context: SelectionContext,
    predictor: ReliabilityPredictor,
    performance_model: ProducerPerformanceModel,
    weights: KpiWeights = DEFAULT_WEIGHTS,
    gamma_requirement: float = 0.8,
    start: Optional[ProducerConfig] = None,
    steps: Optional[ParameterSteps] = None,
    max_rounds: int = 8,
) -> SelectionResult:
    """Stepwise coordinate search until γ meets the requirement.

    Each round walks the parameters in a fixed order; for each, the
    current value is moved one step at a time in the direction that
    improves the predicted γ, stopping at a local optimum for that
    coordinate.  The search exits as soon as the requirement is met (the
    paper's criterion) or when a full round makes no move.

    Each coordinate fetches its candidate axis lazily in at most two
    :meth:`~ReliabilityPredictor.predict_with_fallback_batch` calls (see
    ``reliability_at``), so the prediction cost is at most two grouped
    forward passes per (coordinate, round) rather than one per probe.
    """
    steps = steps if steps is not None else ParameterSteps()
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

    def candidates(parameter: str) -> Sequence:
        return getattr(steps, parameter)

    def with_value(base: ProducerConfig, parameter: str, value: object) -> ProducerConfig:
        return base.with_(**{parameter: value})

    parameters = ["semantics", "batch_size", "polling_interval_s", "message_timeout_s"]
    for _round in range(max_rounds):
        moved = False
        for parameter in parameters:
            values = list(candidates(parameter))
            current_value = getattr(config, parameter)
            if current_value not in values:
                values = sorted(
                    set(values) | {current_value},
                    key=lambda v: (str(v) if parameter == "semantics" else float(v)),
                )
            index = values.index(current_value)
            # The walk only ever varies `parameter` while on this
            # coordinate, and with_() overwrites that field, so the axis
            # built from the entry config stays valid for the whole walk.
            axis_configs = [with_value(config, parameter, value) for value in values]
            axis_estimates: Dict[int, FallbackEstimate] = {}

            def reliability_at(position: int) -> FallbackEstimate:
                # Two-stage batched fetch.  The first request covers just
                # the entry value's immediate neighbours — the only probes
                # a non-moving coordinate ever makes, so a stuck walk pays
                # for two candidates (in one call).  The moment the walk
                # wants anything more, the rest of the axis is fetched in
                # a single grouped forward pass: a moving walk re-probes
                # values step by step, and the batch amortises all of
                # them at once.
                if position in axis_estimates:
                    return axis_estimates[position]
                if not axis_estimates:
                    wanted = [
                        p
                        for p in (index - 1, index + 1)
                        if 0 <= p < len(values)
                    ]
                else:
                    wanted = [
                        p for p in range(len(values)) if p not in axis_estimates
                    ]
                if position not in wanted:
                    wanted.append(position)
                fetched = predictor.predict_with_fallback_batch(
                    [context.feature_vector(axis_configs[p]) for p in wanted]
                )
                result.prediction_source = max(
                    [result.prediction_source] + [tiered.source for tiered in fetched],
                    key=TIERS.index,
                )
                axis_estimates.update(zip(wanted, fetched))
                return axis_estimates[position]

            def gamma_at(position: int) -> float:
                reliability = reliability_at(position).estimate
                performance = performance_model.predict(
                    axis_configs[position],
                    context.message_bytes,
                    context.network_delay_s,
                )
                return kpi_from_estimates(performance, reliability, weights)

            improved = True
            while improved:
                improved = False
                for direction in (+1, -1):
                    neighbour = index + direction
                    if not 0 <= neighbour < len(values):
                        continue
                    candidate_gamma = gamma_at(neighbour)
                    result.steps_taken += 1
                    if candidate_gamma > gamma + 1e-9:
                        config, gamma, index = (
                            axis_configs[neighbour],
                            candidate_gamma,
                            neighbour,
                        )
                        result.config_source = axis_estimates[neighbour].source
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
