"""Weighted KPI (Eq. 2), configuration selection and dynamic configuration.

``weighted_kpi`` evaluates Eq. 2; ``select_configuration`` performs the
paper's stepwise search; ``Controller`` is the one per-interval controller
and ``replay`` the one interval-replay loop.  The presets on top:
``DynamicConfigurationController`` generates the offline configuration
file and ``run_traced_experiment`` replays it over a network trace,
aggregating Eq. 3 into the Table II rates; ``OnlineDynamicController`` and
``run_online_experiment`` close the loop over an estimated network state.
"""

from .aggregate import IntervalMeasurement, OverallRates, aggregate_rates
from .control import (
    PARKED_CONFIG,
    CircuitBreaker,
    Controller,
    Decision,
    Interval,
    IntervalObservation,
    IntervalRecord,
    NetworkStateEstimate,
    NetworkStateEstimator,
    replay,
    required_producers,
)
from .dynamic import (
    ConfigPlanEntry,
    ConfigurationPlan,
    DynamicConfigurationController,
    DynamicRunReport,
    run_traced_experiment,
)
from .online import OnlineDynamicController, run_online_experiment
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
    "Controller",
    "Decision",
    "Interval",
    "IntervalRecord",
    "replay",
    "IntervalObservation",
    "CircuitBreaker",
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
