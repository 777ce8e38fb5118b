"""Weighted KPI (Eq. 2), configuration selection and dynamic configuration.

``weighted_kpi`` evaluates Eq. 2; ``select_configuration`` performs the
paper's stepwise search; ``DynamicConfigurationController`` generates the
offline configuration file and ``run_traced_experiment`` replays it over
a network trace, aggregating Eq. 3 into the Table II rates.
"""

from .aggregate import IntervalMeasurement, OverallRates, aggregate_rates
from .online import (
    NetworkStateEstimate,
    NetworkStateEstimator,
    OnlineDynamicController,
    run_online_experiment,
)
from .dynamic import (
    PARKED_CONFIG,
    CircuitBreaker,
    ConfigPlanEntry,
    ConfigurationPlan,
    DegradedDecision,
    DegradedModeController,
    DynamicConfigurationController,
    DynamicRunReport,
    IntervalObservation,
    required_producers,
    run_traced_experiment,
)
from .selection import (
    ParameterSteps,
    SelectionContext,
    SelectionResult,
    evaluate_configs,
    scale_producers,
    select_configuration,
)
from .weighted import DEFAULT_WEIGHTS, KpiWeights, kpi_from_estimates, weighted_kpi

__all__ = [
    "IntervalMeasurement",
    "OverallRates",
    "aggregate_rates",
    "ConfigPlanEntry",
    "ConfigurationPlan",
    "DynamicConfigurationController",
    "DynamicRunReport",
    "IntervalObservation",
    "CircuitBreaker",
    "DegradedDecision",
    "DegradedModeController",
    "PARKED_CONFIG",
    "required_producers",
    "run_traced_experiment",
    "ParameterSteps",
    "SelectionContext",
    "SelectionResult",
    "evaluate_configs",
    "scale_producers",
    "select_configuration",
    "NetworkStateEstimate",
    "NetworkStateEstimator",
    "OnlineDynamicController",
    "run_online_experiment",
    "KpiWeights",
    "DEFAULT_WEIGHTS",
    "weighted_kpi",
    "kpi_from_estimates",
]
