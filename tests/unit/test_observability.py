"""Unit tests for the observability primitives: traces and telemetry."""

import json

import pytest

from repro.observability.telemetry import (
    MANIFEST_VERSION,
    RunTelemetry,
    TelemetryConfig,
)
from repro.observability.trace import (
    EventKind,
    JsonlFileSink,
    RingBufferSink,
    TraceRecords,
    Tracer,
    encode_record,
    load_trace_file,
    trace_digest,
)


class TestTracer:
    def test_digest_matches_streaming_and_batch(self):
        tracer = Tracer(RingBufferSink(10))
        tracer.emit(EventKind.SEND, 0.5, key=1, attempt=0)
        tracer.emit(EventKind.ACK, 0.9, key=1, rtt_s=0.4)
        assert tracer.count == 2
        assert tracer.digest() == trace_digest(tracer.records())

    def test_digest_is_order_sensitive(self):
        records = [
            {"kind": EventKind.SEND, "t": 0.0, "key": 1},
            {"kind": EventKind.ACK, "t": 1.0, "key": 1},
        ]
        assert trace_digest(records) != trace_digest(list(reversed(records)))

    def test_encode_record_is_canonical(self):
        record = {"t": 1.0, "kind": "send", "key": 3}
        line = encode_record(record)
        assert line == '{"key":3,"kind":"send","t":1.0}'
        assert json.loads(line) == record

    def test_ring_buffer_wraps_and_reports_dropped(self):
        sink = RingBufferSink(3)
        tracer = Tracer(sink)
        for index in range(3):
            tracer.emit(EventKind.SEND, float(index), key=index)
        assert not sink.dropped  # exactly at capacity is not a wrap
        tracer.emit(EventKind.SEND, 3.0, key=3)
        assert sink.dropped
        assert [r["key"] for r in sink.records] == [1, 2, 3]
        assert tracer.count == 4  # count covers evicted records too

    def test_file_sink_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "trace.jsonl"  # parent dir is created
        tracer = Tracer(JsonlFileSink(path))
        tracer.emit(EventKind.TRANSITION, 0.1, key=7, edge="I")
        tracer.emit(EventKind.FAULT, 0.2, action="clear")
        digest = tracer.digest()
        tracer.close()
        events, manifest = load_trace_file(path)
        assert manifest is None
        assert [e["kind"] for e in events] == ["transition", "fault"]
        assert trace_digest(events) == digest

    def test_ring_records_keep_the_lines_the_tracer_digested(self):
        sink = RingBufferSink(3)
        tracer = Tracer(sink)
        for index in range(3):
            tracer.emit(EventKind.SEND, index / 3, key=index, attempt=0)
        records = sink.records
        assert isinstance(records, TraceRecords)
        assert records.lines == [encode_record(r) for r in records]
        assert trace_digest(records) == tracer.digest()
        # A plain copy is digested by re-encoding, to the same value.
        assert trace_digest(list(records)) == tracer.digest()

    def test_file_events_keep_the_file_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlFileSink(path))
        tracer.emit(EventKind.RETRY, 0.25, key=4, attempt=2)
        tracer.emit(EventKind.ACK, 0.5, key=4, rtt_s=0.1)
        tracer.close()
        events, _ = load_trace_file(path)
        assert events.lines == path.read_text().splitlines()
        assert trace_digest(events) == tracer.digest()

    def test_stored_lines_are_hashed_not_the_records(self):
        records = [{"kind": EventKind.SEND, "t": 0.0, "key": 1}]
        stored = TraceRecords(records, [encode_record(records[0])])
        tampered = TraceRecords(records, ['{"kind":"send","key":2,"t":0.0}'])
        assert trace_digest(stored) == trace_digest(records)
        assert trace_digest(tampered) != trace_digest(records)
        # Lines that no longer pair up with the records are not trusted.
        grown = TraceRecords(records, [])
        assert trace_digest(grown) == trace_digest(records)

    def test_load_trace_file_rejects_junk(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"send","t":0}\nnot json\n')
        with pytest.raises(ValueError):
            load_trace_file(path)
        path.write_text('{"no_kind":1}\n')
        with pytest.raises(ValueError):
            load_trace_file(path)


class TestTelemetryConfig:
    def test_for_scenario_fills_placeholders(self):
        config = TelemetryConfig(trace_path="runs/{seed}-{index}.jsonl")
        specialised = config.for_scenario(3, 42)
        assert specialised.trace_path == "runs/42-3.jsonl"

    def test_for_scenario_suffixes_when_no_placeholder(self):
        config = TelemetryConfig(trace_path="trace.jsonl")
        assert config.for_scenario(0, 1).trace_path == "trace.jsonl"
        assert config.for_scenario(2, 1).trace_path == "trace.jsonl.2"

    def test_for_scenario_without_path_is_identity(self):
        config = TelemetryConfig()
        assert config.for_scenario(5, 9) is config


class TestRunTelemetry:
    def _manifest_kwargs(self, **overrides):
        base = dict(
            scenario_fingerprint="f" * 16,
            seed=1,
            salt="s",
            produced=2,
            delivered_unique=2,
            lost=0,
            duplicated=0,
            duplicate_copies=0,
            persisted_but_unacked=0,
            case_counts={"case1": 2},
            unresolved=0,
            events_processed=10,
            sim_duration_s=1.0,
            heap={"ok": True},
            wall_time_s=0.01,
            metrics={
                "sim.duration_s": {"type": "gauge", "value": 1.0},
                "producer.ingested": {"type": "counter", "value": 2},
            },
        )
        base.update(overrides)
        return base

    def test_manifest_embeds_metrics_and_trace_identity(self):
        telemetry = RunTelemetry(TelemetryConfig())
        telemetry.tracer.emit(EventKind.SEND, 0.0, key=1)
        manifest = telemetry.build_manifest(**self._manifest_kwargs())
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["trace_events"] == 1
        assert manifest["trace_digest"] == telemetry.tracer.digest()
        assert manifest["trace_complete"] is True
        assert manifest["metrics"]["producer.ingested"]["value"] == 2
        assert list(manifest["metrics"]) == ["producer.ingested", "sim.duration_s"]
        # Content-addressed: the digest reads the values, not their order.
        metrics = self._manifest_kwargs()["metrics"]
        reordered = telemetry.build_manifest(
            **self._manifest_kwargs(metrics=dict(reversed(list(metrics.items()))))
        )
        assert reordered["metrics_digest"] == manifest["metrics_digest"]
        changed = telemetry.build_manifest(**self._manifest_kwargs(
            metrics={"producer.ingested": {"type": "counter", "value": 3}}
        ))
        assert changed["metrics_digest"] != manifest["metrics_digest"]

    def test_manifest_marks_wrapped_ring_incomplete(self):
        telemetry = RunTelemetry(TelemetryConfig())
        telemetry.tracer = Tracer(RingBufferSink(1))
        telemetry.tracer.emit(EventKind.SEND, 0.0, key=1)
        telemetry.tracer.emit(EventKind.SEND, 0.1, key=2)
        manifest = telemetry.build_manifest(**self._manifest_kwargs())
        assert manifest["trace_complete"] is False
        assert manifest["trace_events"] == 2

    def test_finalize_appends_manifest_line_to_file_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = RunTelemetry(TelemetryConfig(trace_path=str(path)))
        telemetry.tracer.emit(EventKind.SEND, 0.0, key=1)
        telemetry.build_manifest(**self._manifest_kwargs())
        telemetry.finalize()
        events, manifest = load_trace_file(path)
        assert len(events) == 1
        assert manifest is not None
        assert manifest["kind"] == "manifest"
        # The manifest line is excluded from the digest it embeds.
        assert manifest["trace_digest"] == trace_digest(events)
