"""Per-run telemetry: configuration, the tracer and the run manifest.

:class:`TelemetryConfig` is the *picklable description* of what to
capture — it travels into :func:`~repro.testbed.runner.run_many` worker
processes unchanged.  :class:`RunTelemetry` is the *live* object one
experiment builds from it: a tracer, and the manifest assembled when the
run finishes.

The manifest is the auditable identity of a run: the scenario fingerprint
and seed that define it, the code-version salt it was measured under, the
wall time it took, digests of its event trace and metrics, and the full
delivery accounting (Table I case census, consumer reconciliation totals,
kernel heap integrity) that the invariant checker replays a trace
against.  Its metrics are a snapshot of the counts the run's components
keep anyway, taken once as the run finishes.  It is attached to
``ExperimentResult.manifest`` and excluded from result equality, so
bit-identical reruns still compare equal while their wall times differ.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from .trace import JsonlFileSink, RingBufferSink, Tracer, encode_record

__all__ = ["TelemetryConfig", "RunTelemetry", "MANIFEST_VERSION"]

#: Manifest schema version (bump on incompatible manifest changes).
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class TelemetryConfig:
    """What to capture during a run (picklable; safe to ship to workers).

    A run with telemetry traces every event and checks its trace against
    the conservation laws as it finishes.

    Attributes
    ----------
    trace_path:
        Write the trace as JSONL to this path instead of the in-memory
        ring buffer.  May contain ``{index}`` and ``{seed}`` placeholders,
        which :meth:`for_scenario` fills per grid slot under ``run_many``.
    """

    trace_path: Optional[str] = None

    def for_scenario(self, index: int, seed: int) -> "TelemetryConfig":
        """Specialise the trace path for one slot of a scenario grid."""
        if self.trace_path is None:
            return self
        path = self.trace_path.format(index=index, seed=seed)
        if path == self.trace_path and index > 0:
            # No placeholder: suffix the slot index so parallel runs never
            # interleave writes into one file.
            path = f"{self.trace_path}.{index}"
        return replace(self, trace_path=path)


class RunTelemetry:
    """Live telemetry handles for exactly one experiment run."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        trace_path = config.trace_path if config is not None else None
        # Without a trace file the tracer keeps its default ring buffer.
        self.tracer = Tracer(JsonlFileSink(trace_path) if trace_path is not None else None)
        self.manifest: Optional[Dict[str, Any]] = None

    def build_manifest(
        self,
        *,
        scenario_fingerprint: str,
        seed: int,
        salt: str,
        produced: int,
        delivered_unique: int,
        lost: int,
        duplicated: int,
        duplicate_copies: int,
        persisted_but_unacked: int,
        case_counts: Dict[str, int],
        unresolved: int,
        events_processed: int,
        sim_duration_s: float,
        heap: Dict[str, Any],
        wall_time_s: float,
        metrics: Dict[str, Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Assemble (and remember) the manifest for this run.

        ``metrics`` maps each metric name to ``{"type": "counter" or
        "gauge", "value": ...}``; the manifest holds it sorted by name.
        """
        tracer = self.tracer
        sink = tracer.sink
        metrics = {name: metrics[name] for name in sorted(metrics)}
        encoded = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
        self.manifest = {
            "kind": "manifest",
            "version": MANIFEST_VERSION,
            "scenario_fingerprint": scenario_fingerprint,
            "seed": seed,
            "salt": salt,
            "produced": produced,
            "delivered_unique": delivered_unique,
            "lost": lost,
            "duplicated": duplicated,
            "duplicate_copies": duplicate_copies,
            "persisted_but_unacked": persisted_but_unacked,
            "case_counts": dict(case_counts),
            "unresolved": unresolved,
            "events_processed": events_processed,
            "sim_duration_s": sim_duration_s,
            "trace_events": tracer.count,
            "trace_digest": tracer.digest(),
            "trace_complete": not (isinstance(sink, RingBufferSink) and sink.dropped),
            "metrics": metrics,
            "metrics_digest": hashlib.blake2b(
                encoded.encode("utf-8"), digest_size=16
            ).hexdigest(),
            "heap": dict(heap),
            "wall_time_s": wall_time_s,
        }
        return self.manifest

    def finalize(self) -> None:
        """Write the manifest line (file sinks) and release resources."""
        tracer = self.tracer
        if isinstance(tracer.sink, JsonlFileSink) and self.manifest is not None:
            # The manifest rides in the same file as a trailing non-event
            # line; it is excluded from the digest it embeds.
            tracer.sink._handle.write(encode_record(self.manifest) + "\n")
        tracer.close()
