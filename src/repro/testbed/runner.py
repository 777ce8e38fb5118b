"""The parallel experiment engine.

Every experiment is a pure function of its :class:`Scenario` (the seed
fixes all random streams and unique keys restart per run), so a grid of
scenarios is embarrassingly parallel: :func:`run_many` fans the work out
over a fork-based :mod:`multiprocessing` pool and returns results in the
input order, bit-identical to running the same scenarios serially.

Worker count resolution (:func:`resolve_workers`):

1. an explicit ``workers=`` argument wins (``"auto"`` defers to 2–3),
2. else the ``REPRO_WORKERS`` environment variable,
3. else the number of CPUs this process may run on
   (``os.sched_getaffinity``, else ``os.cpu_count()``).

:func:`run_many` caps the resolved count at those usable CPUs and at the
number of pending scenarios.

Engine overhead control: each :func:`run_many` call forks its own pool
and tears it down before returning.  A forked worker starts with the
experiment stack already imported, so the pool costs tens of
milliseconds and no state outlives the call.  Scenarios cross the
process boundary as lean field-diff payloads rehydrated in the worker,
one scenario per dispatch, so results stream back as each experiment
finishes.  When a pool cannot win — ``workers <= 1``, a single usable
CPU, or one pending scenario — or the platform cannot fork,
:func:`run_many` runs the in-process serial loop instead and records why
(``execution_info`` out-param and an optional ``runner.auto_serial.*``
metrics counter), so the engine never loses to serial execution on
dispatch overhead.  A
:class:`~repro.testbed.cache.ResultCache` can be threaded through so
already-measured rows are reused instead of re-run; fresh measurements
are written back to the cache as they complete.

Failures inside a worker never take the whole grid down silently: each
scenario's exception is captured with its traceback and either re-raised
as :class:`ExperimentFailed` (default) or returned in-slot as a
:class:`RunFailure` (``on_error="collect"``).

Fault tolerance (:class:`RetryPolicy`): transiently failing scenarios are
retried with exponential backoff plus deterministic jitter, each attempt
bounded by an optional wall-clock timeout (enforced by running attempts
in pool workers the parent can abandon).  Because fresh results are
written to the cache as they complete, an interrupted sweep — killed
worker, timeout, Ctrl-C — resumes from the cache on the next call
without recomputing finished scenarios.  A persistent
:class:`~repro.testbed.cache.Quarantine` parks scenarios that keep
exhausting their retry budget so one poisoned grid point cannot sink the
sweep.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields
from enum import Enum
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..kafka.config import BrokerConfig, HardwareProfile, ProducerConfig
from ..observability.metrics import MetricsRegistry
from ..observability.telemetry import TelemetryConfig
from .cache import Quarantine, ResultCache, default_salt, scenario_fingerprint
from .experiment import run_experiment
from .results import ExperimentResult
from .scenario import Scenario

__all__ = [
    "WORKERS_ENV_VAR",
    "RetryPolicy",
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


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Attributes
    ----------
    max_attempts:
        Total tries per scenario (1 = no retry).
    backoff_base_s:
        Pause before the first retry; attempt ``n`` waits
        ``backoff_base_s * backoff_factor**(n-1)``.
    backoff_factor:
        Exponential growth of the backoff.
    jitter_fraction:
        Symmetric jitter applied to each backoff, derived from a BLAKE2b
        hash of ``(scenario fingerprint, attempt)`` — fully deterministic,
        so a re-run sleeps the exact same schedule.
    timeout_s:
        Optional wall-clock budget per attempt.  Enforced by running
        attempts in pool workers the parent abandons on expiry, so it
        also covers hung (not just slow) runs; requires the pool path and
        therefore forces one even for a single pending scenario.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.1
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive when given")

    def delay_s(self, key: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``key``."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        if self.jitter_fraction == 0.0 or base == 0.0:
            return base
        digest = hashlib.blake2b(
            f"{key}:{attempt}".encode("utf-8"), digest_size=8
        ).digest()
        unit = int.from_bytes(digest, "big") / 2**64
        return base * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))


@dataclass
class RunFailure:
    """A captured per-scenario failure (``on_error="collect"`` slot)."""

    scenario: Scenario
    error: str
    traceback: str
    attempts: int = 1
    fingerprint: str = ""
    quarantined: bool = False

    def __bool__(self) -> bool:  # failed slots are falsy for easy filtering
        return False


class ExperimentFailed(RuntimeError):
    """One or more scenarios of a :func:`run_many` grid raised.

    The message identifies the first few failing scenarios by cache
    fingerprint and seed and quotes the tail of each traceback, so a
    failed overnight sweep is diagnosable from the exception alone.
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
            fingerprint = failure.fingerprint or scenario_fingerprint(
                failure.scenario, default_salt()
            )
            attempts = (
                f", {failure.attempts} attempt(s)" if failure.attempts > 1 else ""
            )
            lines.append(
                f"  [{position}] {fingerprint[:12]} seed={failure.scenario.seed}"
                f"{attempts}: {failure.error}"
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


#: Counter-name slugs for the auto-serial reasons.
_REASON_SLUGS = {
    "workers<=1": "workers_le_1",
    "cpu_count==1": "cpu_count_eq_1",
    "single_scenario": "single_scenario",
    "no_fork": "no_fork",
}


def shutdown_pool() -> None:
    """Release pooled workers: a no-op, kept for callers that ask.

    Every :func:`run_many` call forks its own pool and reaps it before
    returning, so no pool outlives a call.
    """


_SCENARIO_DEFAULTS = Scenario()
_NESTED_FIELDS = {
    "config": ProducerConfig,
    "hardware": HardwareProfile,
    "broker_config": BrokerConfig,
}


def _diff_dataclass(value: Any, default: Any) -> Dict[str, Any]:
    """Fields of ``value`` that differ from ``default``, enums as values."""
    diff: Dict[str, Any] = {}
    for field_info in dataclass_fields(value):
        current = getattr(value, field_info.name)
        if current == getattr(default, field_info.name):
            continue
        diff[field_info.name] = (
            current.value if isinstance(current, Enum) else current
        )
    return diff


def _encode_scenario(scenario: Scenario) -> Dict[str, Any]:
    """Lean wire form of a scenario: only the fields that differ.

    Sweeps vary a handful of axes around shared defaults, so the diff is
    typically a few primitives where a full pickle carries every field of
    the scenario plus three nested dataclasses — per-task IPC shrinks by
    roughly an order of magnitude.  :func:`_decode_scenario` is the exact
    inverse (round-trip equality is unit-tested), so workers reconstruct
    the identical frozen :class:`Scenario`.
    """
    payload: Dict[str, Any] = {}
    for field_info in dataclass_fields(Scenario):
        current = getattr(scenario, field_info.name)
        if current == getattr(_SCENARIO_DEFAULTS, field_info.name):
            continue
        nested = _NESTED_FIELDS.get(field_info.name)
        payload[field_info.name] = (
            _diff_dataclass(current, nested()) if nested else current
        )
    return payload


def _decode_scenario(payload: Dict[str, Any]) -> Scenario:
    """Rehydrate a :func:`_encode_scenario` payload into a scenario."""
    changes = dict(payload)
    if "config" in changes:
        # with_() parses the semantics enum back from its wire value.
        changes["config"] = ProducerConfig().with_(**changes["config"])
    for name in ("hardware", "broker_config"):
        if name in changes:
            changes[name] = _NESTED_FIELDS[name](**changes[name])
    return _SCENARIO_DEFAULTS.with_(**changes) if changes else _SCENARIO_DEFAULTS


def _run_one(job: Tuple[Scenario, Optional[TelemetryConfig]]) -> Tuple[bool, object]:
    """Pool worker: run one scenario, capturing any exception.

    Top-level so a pool task can pickle it by reference.  The job is
    ``(scenario, telemetry_config_or_None)`` — :class:`TelemetryConfig` is
    a frozen dataclass, so it pickles into the worker unchanged.  Returns
    ``(True, result)`` or ``(False, (error_repr, traceback_text))``.
    """
    scenario, telemetry = job
    try:
        if telemetry is None:
            # Positional-only call: keeps drop-in run_experiment stand-ins
            # (tests, custom drivers) working without a telemetry kwarg.
            return True, run_experiment(scenario)
        return True, run_experiment(scenario, telemetry=telemetry)
    except Exception as exc:  # noqa: BLE001 - captured per scenario by design
        return False, (repr(exc), traceback.format_exc())


def _run_encoded(
    job: Tuple[Dict[str, Any], Optional[TelemetryConfig]]
) -> Tuple[bool, object]:
    """Pool worker: rehydrate a lean scenario payload, then run it."""
    payload, telemetry = job
    try:
        scenario = _decode_scenario(payload)
    except Exception as exc:  # noqa: BLE001 - bad payload = failed slot
        return False, (repr(exc), traceback.format_exc())
    return _run_one((scenario, telemetry))


def run_many(
    scenarios: Sequence[Scenario],
    workers: Optional[Union[int, str]] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressFn] = None,
    on_error: str = "raise",
    telemetry: Optional[TelemetryConfig] = None,
    retry: Optional[RetryPolicy] = None,
    quarantine: Optional[Quarantine] = None,
    sleep: Callable[[float], None] = time.sleep,
    metrics: Optional[MetricsRegistry] = None,
    execution_info: Optional[Dict[str, Any]] = None,
) -> List[Union[ExperimentResult, RunFailure]]:
    """Run many experiments, in parallel, in deterministic input order.

    Parameters
    ----------
    scenarios:
        The grid to measure (any iterable of :class:`Scenario`).
    workers:
        Pool size (``int`` or ``"auto"``); see :func:`resolve_workers`
        for defaulting.  The pool is capped at the usable CPUs and at the
        number of scenarios actually needing a run, and the call falls
        back to the serial in-process loop outright whenever a pool cannot
        win — resolved ``workers <= 1``, a single usable CPU, or one
        pending scenario — or the platform has no ``fork`` start method.
    cache:
        Optional result cache; hits skip the run, fresh results are
        written back *as each scenario completes*, so an interrupted
        sweep resumes from the cache without recomputing finished rows.
    progress:
        ``progress(index, total, scenario)`` invoked as each scenario
        completes (cache hits report immediately).
    on_error:
        ``"raise"`` (default) raises :class:`ExperimentFailed` after the
        grid drains; ``"collect"`` leaves a :class:`RunFailure` in the
        failed slot instead.
    telemetry:
        Optional :class:`~repro.observability.telemetry.TelemetryConfig`
        applied to every fresh run (cache hits keep whatever manifest they
        were stored with).  A ``trace_path`` is specialised per grid slot
        via :meth:`TelemetryConfig.for_scenario` so parallel workers never
        interleave writes into one file.
    retry:
        Optional :class:`RetryPolicy`: failed attempts are retried with
        exponential backoff and deterministic jitter; a ``timeout_s``
        bounds each attempt's wall clock (timeout enforcement needs pool
        workers, so it forces the pool path even for one scenario).
    quarantine:
        Optional :class:`~repro.testbed.cache.Quarantine`.  Scenarios
        already quarantined are skipped up front (their slot is a
        :class:`RunFailure` with ``quarantined=True``); scenarios that
        exhaust their retry budget are recorded into it.  Providing a
        quarantine implies collect semantics for failures — the grid
        never raises :class:`ExperimentFailed`, because parking the
        persistent failers and completing the rest is the point.
    sleep:
        Backoff sleep hook (tests inject a recorder; production uses
        :func:`time.sleep`).
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`;
        an automatic serial fallback increments
        ``runner.auto_serial.<reason>`` so sweeps can report *why* the
        pool was skipped.
    execution_info:
        Optional dict filled in place with how the grid actually ran:
        ``mode`` (``"serial"`` / ``"pool"`` / ``"cache"``), ``workers``,
        ``reason`` (the auto-serial trigger, else ``None``),
        ``pending`` and ``total``.  Callers print it into
        run manifests.

    Returns
    -------
    list
        One entry per scenario, same order as the input.  Entries are
        :class:`ExperimentResult`, or :class:`RunFailure` under
        ``on_error="collect"`` or a quarantine.
    """
    if on_error not in ("raise", "collect"):
        raise ValueError('on_error must be "raise" or "collect"')
    scenarios = list(scenarios)
    total = len(scenarios)
    results: List[Union[ExperimentResult, RunFailure, None]] = [None] * total
    pending: List[int] = []
    salt = cache.salt if cache is not None else default_salt()
    fingerprints: Dict[int, str] = {}

    def fingerprint(index: int) -> str:
        key = fingerprints.get(index)
        if key is None:
            key = scenario_fingerprint(scenarios[index], salt)
            fingerprints[index] = key
        return key

    raising_failures: List[RunFailure] = []
    for index, scenario in enumerate(scenarios):
        hit = cache.get(scenario) if cache is not None else None
        if hit is not None:
            results[index] = hit
            if progress is not None:
                progress(index, total, scenario)
            continue
        if quarantine is not None and quarantine.is_quarantined(fingerprint(index)):
            results[index] = RunFailure(
                scenario=scenario,
                error=(
                    f"quarantined after "
                    f"{quarantine.failures(fingerprint(index))} recorded "
                    f"failure(s); last: {quarantine.last_error(fingerprint(index))}"
                ),
                traceback="",
                attempts=0,
                fingerprint=fingerprint(index),
                quarantined=True,
            )
            if progress is not None:
                progress(index, total, scenario)
            continue
        pending.append(index)

    def record_success(index: int, result: ExperimentResult) -> None:
        scenario = scenarios[index]
        results[index] = result
        if cache is not None:
            cache.put(scenario, result)
        if progress is not None:
            progress(index, total, scenario)

    def record_failure(index: int, error: str, trace: str, attempts: int) -> None:
        scenario = scenarios[index]
        quarantined = False
        if quarantine is not None:
            quarantine.record_failure(fingerprint(index), error, seed=scenario.seed)
            quarantined = quarantine.is_quarantined(fingerprint(index))
        failure = RunFailure(
            scenario=scenario,
            error=error,
            traceback=trace,
            attempts=attempts,
            fingerprint=fingerprint(index),
            quarantined=quarantined,
        )
        results[index] = failure
        if quarantine is None:
            raising_failures.append(failure)
        if progress is not None:
            progress(index, total, scenario)

    def telemetry_for(index: int) -> Optional[TelemetryConfig]:
        if telemetry is None:
            return None
        return telemetry.for_scenario(index, scenarios[index].seed)

    def job_for(index: int) -> Tuple[Scenario, Optional[TelemetryConfig]]:
        return scenarios[index], telemetry_for(index)

    def encoded_job_for(
        index: int,
    ) -> Tuple[Dict[str, Any], Optional[TelemetryConfig]]:
        return _encode_scenario(scenarios[index]), telemetry_for(index)

    info: Dict[str, Any] = {
        "mode": "cache",
        "workers": 0,
        "reason": None,
        "pending": len(pending),
        "total": total,
    }
    if pending:
        requested = _requested_workers(workers)
        cpus = _cpu_count()
        effective = min(requested or cpus, cpus, len(pending))
        context = _fork_context()
        # A pool cannot beat the serial loop when there is no parallelism
        # to buy (one worker, one CPU) or nothing to spread (one pending
        # scenario); fall back automatically and record why.  A
        # per-attempt timeout still forces the pool: abandoning a hung
        # attempt needs a worker process to abandon.
        serial_reason: Optional[str] = None
        if retry is None or retry.timeout_s is None:
            if requested is not None and requested <= 1:
                serial_reason = "workers<=1"
            elif cpus <= 1:
                serial_reason = "cpu_count==1"
            elif len(pending) == 1:
                serial_reason = "single_scenario"
        if serial_reason is None and context is None:
            serial_reason = "no_fork"
        if serial_reason is not None:
            info.update(mode="serial", workers=1, reason=serial_reason)
            if metrics is not None:
                metrics.counter(
                    f"runner.auto_serial.{_REASON_SLUGS[serial_reason]}"
                ).inc()
            max_attempts = retry.max_attempts if retry is not None else 1
            for index in pending:
                for attempt in range(1, max_attempts + 1):
                    ok, payload = _run_one(job_for(index))
                    if ok:
                        record_success(index, payload)
                        break
                    if attempt < max_attempts:
                        sleep(retry.delay_s(fingerprint(index), attempt))
                    else:
                        error, trace = payload
                        record_failure(index, error, trace, attempts=attempt)
        elif retry is None:
            info.update(mode="pool", workers=effective)
            with _forked_pool(context, effective) as pool:
                outcomes = pool.imap(
                    _run_encoded,
                    [encoded_job_for(index) for index in pending],
                    chunksize=1,
                )
                for index, (ok, payload) in zip(pending, outcomes):
                    if ok:
                        record_success(index, payload)
                    else:
                        error, trace = payload
                        record_failure(index, error, trace, attempts=1)
        else:
            info.update(mode="pool", workers=effective)
            with _forked_pool(context, effective) as pool:
                _drain_pool_with_retry(
                    pool,
                    pending,
                    job_for,
                    fingerprint,
                    retry,
                    record_success,
                    record_failure,
                    sleep,
                )

    if execution_info is not None:
        execution_info.update(info)
    if raising_failures and on_error == "raise":
        raise ExperimentFailed(raising_failures)
    return results  # type: ignore[return-value]  # every slot is filled


@contextmanager
def _forked_pool(context: Any, workers: int) -> Iterator[Any]:
    """A pool forked for one :func:`run_many` call, reaped on exit.

    Terminating also abandons an attempt still running past its timeout;
    joining reaps every worker, so no child process outlives the call.
    """
    pool = context.Pool(processes=workers)
    try:
        yield pool
    finally:
        pool.terminate()
        pool.join()


def _drain_pool_with_retry(
    pool: Any,
    pending: Sequence[int],
    job_for: Callable[[int], Tuple[Scenario, Optional[TelemetryConfig]]],
    fingerprint: Callable[[int], str],
    retry: RetryPolicy,
    record_success: Callable[[int, ExperimentResult], None],
    record_failure: Callable[[int, str, str, int], None],
    sleep: Callable[[float], None],
) -> None:
    """Pool execution with per-attempt timeouts and bounded retry.

    Jobs are dispatched singly via ``apply_async`` so each attempt has its
    own result handle and wall-clock deadline; a timed-out attempt is
    abandoned (its worker is reaped when the pool exits) and the scenario
    is resubmitted until its budget runs out.  Settlement follows input
    order, so slots, failure order and the backoff schedule are all
    deterministic regardless of which worker finishes first.
    """
    active: Dict[int, Tuple[Any, int]] = {
        index: (pool.apply_async(_run_one, (job_for(index),)), 1)
        for index in pending
    }
    order = deque(pending)
    while order:
        index = order.popleft()
        task, attempt = active.pop(index)
        try:
            ok, payload = task.get(timeout=retry.timeout_s)
        except multiprocessing.TimeoutError:
            ok = False
            payload = (
                f"TimeoutError('attempt {attempt} exceeded "
                f"{retry.timeout_s} s wall clock')",
                "(attempt abandoned after wall-clock timeout)",
            )
        except Exception as exc:  # noqa: BLE001 - pool/IPC layer failure
            ok = False
            payload = (repr(exc), traceback.format_exc())
        if ok:
            record_success(index, payload)
            continue
        if attempt < retry.max_attempts:
            sleep(retry.delay_s(fingerprint(index), attempt))
            active[index] = (
                pool.apply_async(_run_one, (job_for(index),)),
                attempt + 1,
            )
            order.append(index)
        else:
            error, trace = payload
            record_failure(index, error, trace, attempt)
