"""The experiment harness (Docker-testbed analogue).

One :class:`Scenario` fixes the paper's Eq. 1 features; ``run_experiment``
executes it against a freshly wired simulated Kafka system and returns the
measured reliability metrics.  ``sweep`` runs feature grids and
``collection`` implements the paper's Fig. 3 training-data design.
``run_many`` is the parallel engine underneath both (process-pool fan-out
with deterministic ordering) and ``ResultCache`` persists measured rows
across runs.
"""

from ..observability.telemetry import RunTelemetry, TelemetryConfig
from .cache import ResultCache, scenario_fingerprint
from .collection import (
    CollectionPlan,
    abnormal_case_plan,
    collect_training_data,
    normal_case_plan,
)
from .experiment import Experiment, run_experiment
from .runner import (
    ExperimentFailed,
    RunFailure,
    resolve_workers,
    run_many,
    shutdown_pool,
)
from .sensitivity import (
    DEFAULT_CANDIDATES,
    ParameterSensitivity,
    SensitivityReport,
    analyze_sensitivity,
)
from .results import ExperimentResult, load_results_csv, save_results_csv, wilson_interval
from .scenario import Scenario
from .sweep import apply_axis, derive_seed, mean_metric, replicate, sweep
from .tracker import CaseCensus, DeliveryTracker

__all__ = [
    "ResultCache",
    "scenario_fingerprint",
    "TelemetryConfig",
    "RunTelemetry",
    "run_many",
    "resolve_workers",
    "shutdown_pool",
    "RunFailure",
    "ExperimentFailed",
    "derive_seed",
    "CollectionPlan",
    "normal_case_plan",
    "abnormal_case_plan",
    "collect_training_data",
    "Experiment",
    "run_experiment",
    "ExperimentResult",
    "save_results_csv",
    "load_results_csv",
    "wilson_interval",
    "Scenario",
    "apply_axis",
    "sweep",
    "replicate",
    "mean_metric",
    "CaseCensus",
    "DeliveryTracker",
    "ParameterSensitivity",
    "SensitivityReport",
    "analyze_sensitivity",
    "DEFAULT_CANDIDATES",
]
