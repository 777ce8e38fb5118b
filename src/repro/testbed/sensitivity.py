"""Parameter sensitivity analysis (paper Section III-D).

The paper selects its prediction features by sensitivity: "A change in
the quantitative parameter's default value of 50 % should have observable
impact on reliability metrics, otherwise the parameter is neglected."
This module mechanises that screen: perturb each candidate parameter by a
configurable factor around a baseline scenario, measure the reliability
deltas on the testbed, and rank the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .results import ExperimentResult
from .runner import run_many
from .scenario import Scenario
from .sweep import apply_axis

__all__ = ["ParameterSensitivity", "SensitivityReport", "analyze_sensitivity", "DEFAULT_CANDIDATES"]

#: Quantitative parameters the paper screens (axis syntax of apply_axis).
DEFAULT_CANDIDATES = [
    "message_bytes",
    "config.batch_size",
    "config.message_timeout_s",
    "config.polling_interval_s",
    "config.request_timeout_s",
    "config.retry_backoff_s",
    "config.max_in_flight",
    "config.linger_s",
]


@dataclass
class ParameterSensitivity:
    """Measured impact of perturbing one parameter."""

    parameter: str
    baseline_value: float
    low_value: float
    high_value: float
    baseline_p_loss: float
    low_p_loss: float
    high_p_loss: float
    baseline_p_duplicate: float
    low_p_duplicate: float
    high_p_duplicate: float

    @property
    def max_delta(self) -> float:
        """Largest observed change across metrics and directions."""
        return max(
            abs(self.low_p_loss - self.baseline_p_loss),
            abs(self.high_p_loss - self.baseline_p_loss),
            abs(self.low_p_duplicate - self.baseline_p_duplicate),
            abs(self.high_p_duplicate - self.baseline_p_duplicate),
        )

    def is_sensitive(self, threshold: float = 0.02) -> bool:
        """The paper's screen: observable impact on a reliability metric."""
        return self.max_delta >= threshold


@dataclass
class SensitivityReport:
    """All screened parameters, ranked by impact."""

    baseline: ExperimentResult
    entries: List[ParameterSensitivity] = field(default_factory=list)

    def ranked(self) -> List[ParameterSensitivity]:
        """Entries ordered from most to least sensitive."""
        return sorted(self.entries, key=lambda entry: entry.max_delta, reverse=True)

    def selected_features(self, threshold: float = 0.02) -> List[str]:
        """Parameters that pass the paper's 50 %-perturbation screen."""
        return [
            entry.parameter
            for entry in self.ranked()
            if entry.is_sensitive(threshold)
        ]


def _perturbed(value: float, factor: float, parameter: str) -> float:
    scaled = value * factor
    if parameter in ("config.batch_size", "config.max_in_flight"):
        return max(1, int(round(scaled)))
    return scaled


def _axis_value(scenario: Scenario, parameter: str) -> float:
    if parameter.startswith("config."):
        return float(getattr(scenario.config, parameter[len("config."):]))
    return float(getattr(scenario, parameter))


def analyze_sensitivity(
    baseline: Scenario,
    candidates: Optional[Sequence[str]] = None,
    perturbation: float = 0.5,
    progress: Optional[Callable[[str], None]] = None,
    workers: Optional[Union[int, str]] = None,
    execution_info: Optional[Dict[str, Any]] = None,
) -> SensitivityReport:
    """Run the Section III-D screen around ``baseline``.

    Parameters
    ----------
    baseline:
        The scenario whose parameter defaults are perturbed.
    candidates:
        Axis names to screen (default: the paper's quantitative set).
    perturbation:
        Fractional change applied in each direction (paper: 0.5).
    progress:
        Optional callback invoked with each parameter name as its probe
        scenarios are scheduled.
    workers / execution_info:
        Process-pool size (``int`` or ``"auto"``) and execution-mode
        out-param, forwarded to
        :func:`~repro.testbed.runner.run_many`; the whole screen (one
        baseline plus up to two probes per candidate) runs as one batch.

    Parameters whose baseline value is 0 are perturbed upward only (a
    -50 % change of zero is zero); the upward probe uses a representative
    small value instead of 1.5 × 0.
    """
    if not 0.0 < perturbation < 1.0:
        raise ValueError("perturbation must be in (0, 1)")
    candidates = list(candidates) if candidates is not None else list(DEFAULT_CANDIDATES)
    zero_probe = {
        "config.polling_interval_s": 0.03,
        "config.linger_s": 0.05,
        "config.retry_backoff_s": 0.05,
    }
    # Schedule the baseline (slot 0) plus every probe as one batch so the
    # pool drains the whole screen at once.
    jobs: List[Scenario] = [baseline]
    specs: List[Tuple[str, float, float, float, int, int]] = []
    for parameter in candidates:
        if progress is not None:
            progress(parameter)
        value = _axis_value(baseline, parameter)
        if value == 0.0:
            high_value = zero_probe.get(parameter, 1.0)
            low_value = 0.0
        else:
            high_value = _perturbed(value, 1.0 + perturbation, parameter)
            low_value = _perturbed(value, 1.0 - perturbation, parameter)
        if low_value == value:
            low_index = 0
        else:
            low_index = len(jobs)
            jobs.append(apply_axis(baseline, parameter, low_value))
        high_index = len(jobs)
        jobs.append(apply_axis(baseline, parameter, high_value))
        specs.append(
            (parameter, value, low_value, high_value, low_index, high_index)
        )
    results = run_many(jobs, workers=workers, execution_info=execution_info)
    baseline_result = results[0]
    report = SensitivityReport(baseline=baseline_result)
    for parameter, value, low_value, high_value, low_index, high_index in specs:
        low_result = results[low_index]
        high_result = results[high_index]
        report.entries.append(
            ParameterSensitivity(
                parameter=parameter,
                baseline_value=value,
                low_value=low_value,
                high_value=high_value,
                baseline_p_loss=baseline_result.p_loss,
                low_p_loss=low_result.p_loss,
                high_p_loss=high_result.p_loss,
                baseline_p_duplicate=baseline_result.p_duplicate,
                low_p_duplicate=low_result.p_duplicate,
                high_p_duplicate=high_result.p_duplicate,
            )
        )
    return report
