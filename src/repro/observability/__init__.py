"""Run observability: structured traces, run manifests and invariant checks.

The reliability numbers this reproduction reports are counting arguments
over message-state transitions; this subsystem makes each run auditable
instead of a black box that prints one ``(P_l, P_d)`` pair:

* :mod:`repro.observability.trace` — typed, digestable event records with
  ring-buffer and JSONL-file sinks (zero overhead when disabled).
* :mod:`repro.observability.telemetry` — the picklable
  :class:`TelemetryConfig` that travels into worker processes and the
  live :class:`RunTelemetry` an experiment builds from it, including the
  run manifest (scenario fingerprint, seed, code-version salt, wall
  time, trace/metric digests, delivery accounting).  The manifest's
  metrics are counters and gauges read once, as the run finishes, from
  the counts the components keep anyway.
* :mod:`repro.observability.invariants` — conservation laws, which
  every experiment checks as it finishes, and the trace replay that
  ``repro inspect`` and traced runs build on (:func:`verify_trace`).

Quick start::

    from repro.observability import TelemetryConfig
    from repro.testbed import Scenario, run_experiment

    result = run_experiment(Scenario(loss_rate=0.1), telemetry=TelemetryConfig())
    print(result.manifest["case_counts"], result.manifest["trace_digest"])
"""

from .invariants import (
    InvariantViolation,
    conservation_violations,
    replay_census,
    trace_violations,
    validate_metrics_document,
    verify_manifest,
    verify_trace,
)
from .telemetry import MANIFEST_VERSION, RunTelemetry, TelemetryConfig
from .trace import (
    EventKind,
    JsonlFileSink,
    RingBufferSink,
    Tracer,
    encode_record,
    load_trace_file,
    trace_digest,
)

__all__ = [
    "EventKind",
    "Tracer",
    "RingBufferSink",
    "JsonlFileSink",
    "encode_record",
    "trace_digest",
    "load_trace_file",
    "TelemetryConfig",
    "RunTelemetry",
    "MANIFEST_VERSION",
    "InvariantViolation",
    "conservation_violations",
    "trace_violations",
    "replay_census",
    "verify_manifest",
    "verify_trace",
    "validate_metrics_document",
]
