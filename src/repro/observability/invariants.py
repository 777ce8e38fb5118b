"""Machine-checkable conservation laws over runs and their traces.

The paper's argument is a counting argument: every source message walks
the Fig. 2 state machine and lands in exactly one Table I case, and the
producer-view census must reconcile with the consumer-side ground truth.
This module makes those laws executable:

**Manifest-level conservation** (:func:`conservation_violations`) —
pure arithmetic over the run manifest:

* every message is classified: ``sum(case_counts) + unresolved == produced``
* reconciliation partitions the keys: ``delivered_unique + lost == produced``
* duplicates agree: ``case5 == duplicated`` (a message ends *Duplicated*
  iff its key appears more than once in the topic)
* losses agree up to the documented divergence:
  ``case2 + case3 == lost + persisted_but_unacked - unresolved``
  (producer-view losses that the cluster actually holds are counted
  delivered by reconciliation; never-resolved messages are lost keys)
* delivered agree: ``case1 + case4 + case5 + persisted_but_unacked ==
  delivered_unique``
* the kernel's event heap never drifted: ``heap.ok``

**Trace-level replay** (:func:`trace_violations`) — re-walks the recorded
transition events through fresh state machines and checks that

* every per-key transition sequence is legal (no ``IllegalTransition``),
* each recorded edge's source/target states match the machine,
* the replayed census equals the manifest's ``case_counts``, and
* the stream digest and event count match the manifest — which catches
  *any* dropped, duplicated or edited record even when the mutilated
  trace happens to stay state-machine-legal.  Events read from a ring
  buffer or a trace file carry their stored canonical lines
  (:class:`~repro.observability.trace.TraceRecords`), and those are
  hashed; any other event list is re-encoded first.

:func:`verify_trace` / :func:`verify_manifest` raise
:class:`InvariantViolation` carrying the full list of breaches.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..kafka.state import (
    DeliveryCase,
    IllegalTransition,
    MessageState,
    MessageStateMachine,
    Transition,
)
from .trace import EventKind, trace_digest

__all__ = [
    "InvariantViolation",
    "conservation_violations",
    "trace_violations",
    "verify_manifest",
    "verify_trace",
    "replay_census",
    "validate_metrics_document",
]


class InvariantViolation(RuntimeError):
    """One or more run invariants failed; ``violations`` lists them all."""

    def __init__(self, violations: List[str]) -> None:
        self.violations = list(violations)
        summary = "; ".join(self.violations[:3])
        extra = f" (+{len(self.violations) - 3} more)" if len(self.violations) > 3 else ""
        super().__init__(f"{len(self.violations)} invariant(s) violated: {summary}{extra}")


def _case_count(case_counts: Dict[str, int], case: DeliveryCase) -> int:
    return int(case_counts.get(f"case{case.value}", 0))


def conservation_violations(manifest: Dict[str, Any]) -> List[str]:
    """Check the manifest-level conservation laws; returns breach messages."""
    out: List[str] = []
    produced = int(manifest["produced"])
    delivered = int(manifest["delivered_unique"])
    lost = int(manifest["lost"])
    duplicated = int(manifest["duplicated"])
    pbu = int(manifest["persisted_but_unacked"])
    unresolved = int(manifest["unresolved"])
    cases = manifest["case_counts"]
    c1, c2, c3, c4, c5 = (_case_count(cases, case) for case in DeliveryCase)

    total_cases = c1 + c2 + c3 + c4 + c5
    if total_cases + unresolved != produced:
        out.append(
            f"census not exhaustive: {total_cases} classified + "
            f"{unresolved} unresolved != {produced} produced"
        )
    if delivered + lost != produced:
        out.append(
            f"reconciliation not a partition: {delivered} delivered + "
            f"{lost} lost != {produced} produced"
        )
    if c5 != duplicated:
        out.append(
            f"duplicate accounting diverged: case5={c5} != "
            f"{duplicated} duplicated keys"
        )
    if c2 + c3 != lost + pbu - unresolved:
        out.append(
            f"loss accounting diverged: case2+case3={c2 + c3} != "
            f"{lost} lost + {pbu} persisted-but-unacked - {unresolved} unresolved"
        )
    if c1 + c4 + c5 + pbu != delivered:
        out.append(
            f"delivery accounting diverged: case1+case4+case5+pbu="
            f"{c1 + c4 + c5 + pbu} != {delivered} delivered"
        )
    heap = manifest.get("heap") or {}
    if not heap.get("ok", False):
        out.append(f"event-heap bookkeeping drifted: {heap}")
    return out


def replay_census(
    events: List[Dict[str, Any]],
) -> Tuple[Dict[str, int], Dict[int, MessageStateMachine], List[str]]:
    """Re-walk the trace's transition records through fresh machines.

    Returns ``(case_counts, machines, problems)`` where ``problems`` lists
    illegal sequences and from/to mismatches found during the replay.
    """
    machines: Dict[int, MessageStateMachine] = {}
    problems: List[str] = []
    for index, record in enumerate(events):
        if record.get("kind") != EventKind.TRANSITION:
            continue
        key = record.get("key")
        if key is None:
            problems.append(f"event {index}: transition record without a key")
            continue
        machine = machines.get(key)
        if machine is None:
            machine = MessageStateMachine()
            machines[key] = machine
        source = machine.state.value
        recorded_source = record.get("from")
        if recorded_source is not None and recorded_source != source:
            problems.append(
                f"event {index}: key {key} recorded from={recorded_source!r} "
                f"but replay is in {source!r}"
            )
        try:
            transition = Transition(record["edge"])
        except (KeyError, ValueError):
            problems.append(f"event {index}: unknown edge {record.get('edge')!r}")
            continue
        try:
            machine.apply(transition)
        except IllegalTransition as exc:
            problems.append(f"event {index}: key {key} illegal replay: {exc}")
            continue
        recorded_target = record.get("to")
        if recorded_target is not None and recorded_target != machine.state.value:
            problems.append(
                f"event {index}: key {key} recorded to={recorded_target!r} "
                f"but replay reached {machine.state.value!r}"
            )
    case_counts: Dict[str, int] = {}
    for machine in machines.values():
        if machine.state is MessageState.READY:
            continue
        case = machine.classify_case()
        name = f"case{case.value}"
        case_counts[name] = case_counts.get(name, 0) + 1
    return case_counts, machines, problems


def trace_violations(
    events: List[Dict[str, Any]], manifest: Dict[str, Any]
) -> List[str]:
    """Replay ``events`` against ``manifest``; returns breach messages.

    Digest and event-count checks only apply when the manifest says the
    trace is complete (a wrapped ring buffer keeps digest/count over the
    *full* stream while only buffering a suffix).
    """
    out: List[str] = []
    if manifest.get("trace_complete", False):
        expected_events = int(manifest.get("trace_events", 0))
        if len(events) != expected_events:
            out.append(
                f"trace has {len(events)} events, manifest says {expected_events}"
            )
        expected_digest = manifest.get("trace_digest")
        if expected_digest is not None:
            actual = trace_digest(events)
            if actual != expected_digest:
                out.append(
                    f"trace digest mismatch: stream hashes to {actual}, "
                    f"manifest says {expected_digest}"
                )
        replayed, _, problems = replay_census(events)
        out.extend(problems)
        recorded = {
            name: count for name, count in manifest["case_counts"].items() if count
        }
        if replayed != recorded:
            out.append(
                f"replayed census {replayed} != recorded census {recorded}"
            )
    times = [record["t"] for record in events if "t" in record]
    if any(later < earlier for earlier, later in zip(times, times[1:])):
        out.append("trace times are not monotonically non-decreasing")
    return out


def verify_manifest(manifest: Dict[str, Any]) -> None:
    """Raise :class:`InvariantViolation` on any conservation breach."""
    violations = conservation_violations(manifest)
    if violations:
        raise InvariantViolation(violations)


def verify_trace(
    events: List[Dict[str, Any]], manifest: Optional[Dict[str, Any]]
) -> None:
    """Full check: conservation laws plus trace replay.  Raises on breach."""
    if manifest is None:
        raise InvariantViolation(["no manifest attached to the trace"])
    violations = conservation_violations(manifest) + trace_violations(events, manifest)
    if violations:
        raise InvariantViolation(violations)


# --------------------------------------------------------------- schemas

_MANIFEST_REQUIRED = {
    "version": int,
    "scenario_fingerprint": str,
    "seed": int,
    "salt": str,
    "produced": int,
    "delivered_unique": int,
    "lost": int,
    "duplicated": int,
    "duplicate_copies": int,
    "persisted_but_unacked": int,
    "case_counts": dict,
    "unresolved": int,
    "events_processed": int,
    "sim_duration_s": (int, float),
    "trace_events": int,
    "metrics_digest": str,
    "heap": dict,
    "wall_time_s": (int, float),
}

_METRIC_TYPES = {"counter", "gauge"}


def validate_metrics_document(doc: Any) -> List[str]:
    """Schema-check a ``repro experiment --metrics`` JSON document.

    The document is ``{"manifest": {...}, "metrics": {...}}``.  Returns a
    list of problems (empty means schema-valid).
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        problems.append("missing 'manifest' object")
    else:
        for name, expected in _MANIFEST_REQUIRED.items():
            if name not in manifest:
                problems.append(f"manifest missing field {name!r}")
            elif not isinstance(manifest[name], expected):
                problems.append(
                    f"manifest field {name!r} has type "
                    f"{type(manifest[name]).__name__}"
                )
        cases = manifest.get("case_counts")
        if isinstance(cases, dict):
            for case_name, count in cases.items():
                if case_name not in {f"case{c.value}" for c in DeliveryCase}:
                    problems.append(f"unknown delivery case {case_name!r}")
                elif not isinstance(count, int) or count < 0:
                    problems.append(f"case count {case_name!r} is not a non-negative int")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("missing 'metrics' object")
    else:
        for name, body in metrics.items():
            if not isinstance(body, dict) or body.get("type") not in _METRIC_TYPES:
                problems.append(f"metric {name!r} has no valid type")
            elif "value" not in body:
                problems.append(f"metric {name!r} has no value")
    return problems
