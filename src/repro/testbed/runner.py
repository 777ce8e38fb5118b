"""The parallel experiment engine.

Every experiment is a pure function of its :class:`Scenario` (the seed
fixes all random streams and unique keys restart per run), so a grid of
scenarios is embarrassingly parallel: :func:`run_many` fans the work out
over a fork-based process pool and returns results in the input order,
bit-identical to running the same scenarios serially.

Worker count resolution (:func:`resolve_workers`):

1. an explicit ``workers=`` argument wins (``"auto"`` defers to 2–3),
2. else the ``REPRO_WORKERS`` environment variable,
3. else the number of CPUs this process may run on
   (``os.sched_getaffinity``, else ``os.cpu_count()``).

:func:`run_many` caps the resolved count at those usable CPUs and at the
number of scenarios.

Engine overhead control: each :func:`run_many` call forks its own
:class:`~concurrent.futures.ProcessPoolExecutor` and shuts it down before
returning.  A forked worker starts with the experiment stack already
imported, so the pool costs tens of milliseconds and no state outlives
the call.  Scenarios cross the process boundary pickled, one per
dispatch, so results stream back as each experiment finishes.  When a
pool cannot win — ``workers <= 1``, a single usable CPU, or one
scenario — or the platform cannot fork, the same loop consumes an
in-process ``map`` instead and ``execution_info`` records why, so the
engine never loses to serial execution on dispatch overhead.

A scenario's exception is captured with its traceback in the worker, and
:class:`ExperimentFailed` reports every failure once the grid drains.  A
worker that dies outright (e.g. killed by the OOM killer) breaks the
pool; :func:`run_many` then raises :class:`ExperimentFailed` for every
unfinished scenario instead of waiting forever.  A failed run is a
deterministic function of its scenario, so nothing is retried: recovery
is a rerun of the grid.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..observability.telemetry import TelemetryConfig
from .experiment import run_experiment
from .results import ExperimentResult
from .scenario import Scenario, default_salt, scenario_fingerprint

__all__ = [
    "WORKERS_ENV_VAR",
    "RunFailure",
    "ExperimentFailed",
    "resolve_workers",
    "run_many",
    "shutdown_pool",
]

#: Environment variable consulted when ``workers`` is not given.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Progress callback signature: ``(index, total, scenario)`` where
#: ``index`` is the completed scenario's position in the input sequence.
ProgressFn = Callable[[int, int, Scenario], None]


@dataclass
class RunFailure:
    """One scenario's captured failure, as listed by :class:`ExperimentFailed`."""

    scenario: Scenario
    error: str
    traceback: str
    fingerprint: str


class ExperimentFailed(RuntimeError):
    """One or more scenarios of a :func:`run_many` grid raised.

    The message identifies the first few failing scenarios by
    :func:`~repro.testbed.scenario.scenario_fingerprint` and seed and
    quotes the tail of each traceback, so a failed overnight sweep is
    diagnosable from the exception alone.
    """

    #: How many failures the message details.
    SHOWN = 3
    #: Traceback lines quoted per shown failure.
    TRACEBACK_TAIL = 6

    def __init__(self, failures: Sequence[RunFailure]) -> None:
        self.failures = list(failures)
        shown = self.failures[: self.SHOWN]
        lines = [
            f"{len(self.failures)} scenario(s) failed "
            f"(showing first {len(shown)}):"
        ]
        for position, failure in enumerate(shown, start=1):
            lines.append(
                f"  [{position}] {failure.fingerprint[:12]} "
                f"seed={failure.scenario.seed}: {failure.error}"
            )
            tail = failure.traceback.strip().splitlines()[-self.TRACEBACK_TAIL :]
            lines.extend(f"      {line}" for line in tail)
        if len(self.failures) > len(shown):
            lines.append(f"  ... and {len(self.failures) - len(shown)} more")
        super().__init__("\n".join(lines))


def resolve_workers(workers: Optional[Union[int, str]] = None) -> int:
    """Resolve the requested worker count (argument > env > usable CPUs).

    ``"auto"`` — the CLI default — behaves exactly like ``None``: consult
    ``REPRO_WORKERS`` (which may itself say ``auto``), else size to the
    CPUs this process may run on (see :func:`_cpu_count`).  Numeric
    strings are accepted so shell-sourced values need no pre-parsing.
    :func:`run_many` caps the result at the usable CPUs.
    """
    requested = _requested_workers(workers)
    # The parent only blocks on results, so every usable CPU can run a
    # worker.
    return requested if requested is not None else _cpu_count()


def _requested_workers(workers: Optional[Union[int, str]]) -> Optional[int]:
    """The caller's or ``REPRO_WORKERS``' count; ``None`` means "size to the CPUs"."""
    if isinstance(workers, str):
        text = workers.strip().lower()
        if text in ("", "auto"):
            workers = None
        else:
            try:
                workers = int(text)
            except ValueError:
                raise ValueError(
                    f'workers must be an integer or "auto", got {text!r}'
                ) from None
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not env or env.lower() == "auto":
            return None
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask, e.g. ``taskset``).

    Falls back to ``os.cpu_count()`` where affinity is unavailable.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _fork_context() -> Optional[Any]:
    """The ``fork`` multiprocessing context, or ``None`` where it is missing."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def shutdown_pool() -> None:
    """Release pooled workers: a no-op, kept for callers that ask.

    Every :func:`run_many` call forks its own pool and shuts it down
    before returning, so no pool outlives a call.
    """


def _run_one(job: Tuple[Scenario, Optional[TelemetryConfig]]) -> Tuple[bool, Any]:
    """Run one scenario, capturing any exception.

    Top-level so a pool task can pickle it by reference.  The job is
    ``(scenario, telemetry_config_or_None)``.  Returns ``(True, result)``
    or ``(False, (error_repr, traceback_text))``.
    """
    scenario, telemetry = job
    try:
        return True, run_experiment(scenario, telemetry=telemetry)
    except Exception as exc:  # noqa: BLE001 - captured per scenario by design
        return False, (repr(exc), traceback.format_exc())


def run_many(
    scenarios: Sequence[Scenario],
    workers: Optional[Union[int, str]] = None,
    progress: Optional[ProgressFn] = None,
    telemetry: Optional[TelemetryConfig] = None,
    execution_info: Optional[Dict[str, Any]] = None,
) -> List[ExperimentResult]:
    """Run many experiments, in parallel, in deterministic input order.

    Parameters
    ----------
    scenarios:
        The grid to measure (any iterable of :class:`Scenario`).
    workers:
        Pool size (``int`` or ``"auto"``); see :func:`resolve_workers`
        for defaulting.  The pool is capped at the usable CPUs and at the
        number of scenarios, and the call runs in-process instead
        whenever a pool cannot win — resolved ``workers <= 1``, a single
        usable CPU, or one scenario — or the platform has no ``fork``
        start method.
    progress:
        ``progress(index, total, scenario)`` invoked in input order as
        each scenario completes.
    telemetry:
        Optional :class:`~repro.observability.telemetry.TelemetryConfig`
        applied to every run.  A ``trace_path`` is specialised per grid
        slot via :meth:`TelemetryConfig.for_scenario` so parallel workers
        never interleave writes into one file.
    execution_info:
        Optional dict filled in place with how the grid actually ran:
        ``mode`` (``"serial"`` / ``"pool"``), ``workers`` (0 for an
        empty grid), ``reason`` (the auto-serial trigger, else
        ``None``), ``pending`` and ``total`` (both the grid size).
        Callers print it into run manifests.

    Returns
    -------
    list
        One :class:`ExperimentResult` per scenario, same order as the
        input.

    Raises
    ------
    ExperimentFailed
        After the grid drains, if any scenario raised; or as soon as a
        pool worker dies, for every scenario not finished by then.
    """
    scenarios = list(scenarios)
    total = len(scenarios)
    results: List[Optional[ExperimentResult]] = [None] * total
    info: Dict[str, Any] = {
        "mode": "serial",
        "workers": 0,
        "reason": None,
        "pending": total,
        "total": total,
    }
    failures: List[RunFailure] = []

    def failure(index: int, error: str, trace: str) -> RunFailure:
        scenario = scenarios[index]
        return RunFailure(
            scenario, error, trace, scenario_fingerprint(scenario, default_salt())
        )

    if scenarios:
        requested = _requested_workers(workers)
        cpus = _cpu_count()
        context = _fork_context()
        # A pool cannot beat the in-process loop when there is no
        # parallelism to buy (one worker, one CPU) or nothing to spread
        # (one scenario); fall back automatically and record why.
        serial_reason: Optional[str] = None
        if requested is not None and requested <= 1:
            serial_reason = "workers<=1"
        elif cpus <= 1:
            serial_reason = "cpu_count==1"
        elif total == 1:
            serial_reason = "single_scenario"
        elif context is None:
            serial_reason = "no_fork"
        jobs = [
            (
                scenario,
                None
                if telemetry is None
                else telemetry.for_scenario(index, scenario.seed),
            )
            for index, scenario in enumerate(scenarios)
        ]
        executor: Optional[ProcessPoolExecutor] = None
        settled = 0
        try:
            if serial_reason is None:
                effective = min(requested or cpus, cpus, total)
                info.update(mode="pool", workers=effective)
                executor = ProcessPoolExecutor(effective, mp_context=context)
                outcomes = executor.map(_run_one, jobs, chunksize=1)
            else:
                info.update(workers=1, reason=serial_reason)
                outcomes = map(_run_one, jobs)
            for index, (ok, payload) in enumerate(outcomes):
                settled += 1
                if ok:
                    results[index] = payload
                else:
                    failures.append(failure(index, *payload))
                if progress is not None:
                    progress(index, total, scenarios[index])
        except BrokenProcessPool as exc:
            # A worker died mid-task: every unfinished scenario fails.
            trace = traceback.format_exc()
            failures.extend(
                failure(index, repr(exc), trace) for index in range(settled, total)
            )
        finally:
            if executor is not None:
                # Reaps every worker; cancels what an exception left queued.
                executor.shutdown(wait=True, cancel_futures=True)

    if execution_info is not None:
        execution_info.update(info)
    if failures:
        raise ExperimentFailed(failures)
    return results  # type: ignore[return-value]  # every slot is filled
