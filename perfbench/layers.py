"""Run-time instrumentation of the program's public entry points.

Two things live here:

* :class:`Patcher` swaps a method on a class, or a module-level function
  in every ``repro`` module that bound it by name, for a wrapper, and puts
  the originals back on :meth:`Patcher.restore`.  Nothing in ``src/`` is
  edited: the wrappers exist only while a benchmark phase runs.
* :class:`LayerTracer` wraps each layer's public entry points.  Per-message
  calls keep a call count and accumulated inclusive and self time; coarse
  calls (experiment, ``run_many``, decision, campaign, campaign phase) also
  record a span ``(name, start, end, parent)``.  A layer's self time is its
  wrapped time minus the time of its wrapped children, so private callbacks
  fired by the event loop land in ``simulation``.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Wrapper = Callable[[Callable[..., Any]], Callable[..., Any]]


class Patcher:
    """Install wrappers around methods and functions; undo them in reverse."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, Any]] = []

    def method(self, cls: type, name: str, make: Wrapper) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make(original))

    def function(self, module_name: str, name: str, make: Wrapper) -> None:
        """Wrap ``module.name`` everywhere a ``repro`` module bound it."""
        current = getattr(sys.modules[module_name], name)
        wrapped = make(current)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is current:
                    self._undo.append((module, attr, current))
                    namespace[attr] = wrapped

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class LayerTracer:
    """Counts, inclusive/self times and coarse spans per wrapped entry point."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {}
        self.counters: Dict[str, float] = {}
        self.spans: List[Tuple[str, float, float, int]] = []
        # One frame per active wrapped call: accumulated child time.
        self._stack: List[List[float]] = []
        # Indices into ``spans`` of the open coarse spans.
        self._open_spans: List[int] = []
        self._patcher = Patcher()

    # ------------------------------------------------------------ wrapping

    def _wrap(
        self,
        key: str,
        span: Optional[str] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Wrapper:
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        clock = time.perf_counter

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            if span is None and after is None:

                def counted(*args: Any, **kwargs: Any) -> Any:
                    frame = [0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        elapsed = clock() - start
                        stack.pop()
                        stat.calls += 1
                        stat.total += elapsed
                        stat.self_time += elapsed - frame[0]
                        if stack:
                            stack[-1][0] += elapsed

                return counted

            def spanned(*args: Any, **kwargs: Any) -> Any:
                index = -1
                if span is not None:
                    index = self._open_span(span)
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    elapsed = end - start
                    stack.pop()
                    stat.calls += 1
                    stat.total += elapsed
                    stat.self_time += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                    if index >= 0:
                        self._close_span(index, start, end)
                if after is not None:
                    after(args, result)
                return result

            return spanned

        return make

    def _open_span(self, name: str) -> int:
        parent = self._open_spans[-1] if self._open_spans else -1
        if name == "experiment" and parent >= 0 and self.spans[parent][0] == "campaign":
            name = "campaign.phase"
        self.spans.append((name, 0.0, 0.0, parent))
        self._open_spans.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close_span(self, index: int, start: float, end: float) -> None:
        name, _, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)
        self._open_spans.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every layer's public entry points (see module docstring)."""
        from repro.kafka.cluster import KafkaCluster
        from repro.kafka.log import PartitionLog
        from repro.kafka.producer import KafkaProducer
        from repro.models.predictor import ReliabilityPredictor
        from repro.network.link import Link
        from repro.network.packet import PacketKind
        from repro.network.transport import ReliableChannel
        from repro.performance.queueing import ProducerPerformanceModel
        from repro.simulation.simulator import Simulator
        from repro.testbed.experiment import Experiment
        from repro.testbed.tracker import DeliveryTracker

        import repro.chaos.campaign  # noqa: F401  (bind names before patching)
        import repro.kpi.online  # noqa: F401
        import repro.testbed.collection  # noqa: F401

        patch = self._patcher
        wrap = self._wrap
        count = self.count

        def fired(args: tuple, processed: int) -> None:
            count("simulation.events", processed)

        patch.method(Simulator, "run", wrap("simulation.run", after=fired))
        patch.method(Simulator, "schedule", wrap("simulation.schedule"))
        patch.method(Simulator, "schedule_at", wrap("simulation.schedule_at"))
        patch.method(Simulator, "cancel", wrap("simulation.cancel"))

        data = PacketKind.DATA

        def link_send(fn: Callable[..., Any]) -> Callable[..., Any]:
            timed = wrap("network.link")(fn)

            def send(link: Any, packet: Any, direction: str, on_arrival: Any) -> Any:
                if packet.kind == data:
                    deliver = on_arrival

                    def on_arrival(pkt: Any) -> None:
                        count("network.data_arrivals")
                        deliver(pkt)

                return timed(link, packet, direction, on_arrival)

            return send

        patch.method(Link, "send", link_send)
        patch.method(ReliableChannel, "send", wrap("network.transport"))
        patch.method(KafkaProducer, "offer", wrap("kafka.producer"))
        patch.method(KafkaCluster, "handle_produce", wrap("kafka.broker"))
        patch.method(PartitionLog, "append", wrap("kafka.log"))
        for name in sorted(DeliveryTracker.__dict__):
            if name.startswith("on_"):
                patch.method(DeliveryTracker, name, wrap("testbed.tracker"))
        patch.function("repro.kafka.consumer", "reconcile", wrap("testbed.reconcile"))
        patch.method(Experiment, "__init__", wrap("testbed.build"))
        patch.method(
            Experiment,
            "run",
            wrap("testbed.experiment", span="experiment", after=self._after_experiment),
        )
        patch.function(
            "repro.testbed.runner", "run_many", wrap("testbed.runner", span="run_many")
        )

        def rows(args: tuple, result: list) -> None:
            count("models.rows", len(result))
            count(
                "models.nn_answers",
                sum(1 for item in result if getattr(item, "source", "") == "neighbour"),
            )

        for name in ("predict_vectors", "predict_with_fallback_batch"):
            patch.method(ReliabilityPredictor, name, wrap("models.predict", after=rows))
        patch.method(ReliabilityPredictor, "fit", wrap("models.fit"))
        patch.method(ProducerPerformanceModel, "predict", wrap("performance.predict"))

        def steps(args: tuple, selection: Any) -> None:
            count("kpi.steps", selection.steps_taken)

        patch.function(
            "repro.kpi.selection",
            "select_configuration",
            wrap("kpi.select", span="decision", after=steps),
        )
        patch.function(
            "repro.observability.invariants", "verify_trace", wrap("observability.verify")
        )

        def phases(args: tuple, report: Any) -> None:
            count("chaos.phases", len(report.phases))

        patch.function(
            "repro.chaos.campaign",
            "run_campaign",
            wrap("chaos.campaign", span="campaign", after=phases),
        )

    def uninstall(self) -> None:
        self._patcher.restore()

    def _after_experiment(self, args: tuple, result: Any) -> None:
        # Segment counts come from the experiment log (``loads.py``).
        experiment = args[0]
        count = self.count
        producer = experiment.producer.stats
        count("kafka.requests", producer.requests_sent)
        count("kafka.retries", producer.request_retries)
        count("kafka.acknowledged", producer.acknowledged)
        # Fire-and-forget records never ask for an acknowledgement.
        count("kafka.ack_expected", producer.ingested - producer.fire_and_forget)
        telemetry = experiment.telemetry
        if telemetry is not None and telemetry.tracer is not None:
            count("observability.trace_records", len(telemetry.tracer.records()))

    # ------------------------------------------------------------- results

    def reset(self) -> None:
        """Forget everything recorded so far (keeps the wrappers installed)."""
        for stat in self.stats.values():
            stat.calls = 0
            stat.total = 0.0
            stat.self_time = 0.0
        self.counters.clear()
        self.spans.clear()

    def _calls(self, *keys: str) -> int:
        return sum(self.stats[key].calls for key in keys if key in self.stats)

    def _self(self, *keys: str) -> float:
        return sum(self.stats[key].self_time for key in keys if key in self.stats)

    def total(self, *keys: str) -> float:
        return sum(self.stats[key].total for key in keys if key in self.stats)

    def counts(self) -> Dict[str, int]:
        """The deterministic part: calls and counters, no timings."""
        out = {f"calls.{key}": stat.calls for key, stat in sorted(self.stats.items())}
        out.update(
            {f"count.{key}": int(value) for key, value in sorted(self.counters.items())}
        )
        return out

    def layer_metrics(
        self, units: int, experiments: Dict[str, int]
    ) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics per traced unit, as ``name -> (value, unit)``.

        ``experiments`` holds the experiment-log totals over the traced units
        (segments, retransmissions, duplicate segments).
        """
        n = max(1, units)
        c = self.counters.get

        def per(value: float) -> float:
            return value / n

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        events = c("simulation.events", 0)
        scheduled = self._calls("simulation.schedule", "simulation.schedule_at")
        segments = experiments.get("segments", 0)
        first_time = c("network.data_arrivals", 0) - experiments.get("duplicate_segments", 0)
        sim_keys = (
            "simulation.run",
            "simulation.schedule",
            "simulation.schedule_at",
            "simulation.cancel",
        )
        tracker_calls = self._calls("testbed.tracker")
        return {
            "simulation.events": (per(events), "count"),
            "simulation.scheduled": (per(scheduled), "count"),
            "simulation.cancelled": (per(self._calls("simulation.cancel")), "count"),
            "simulation.live_ratio": (ratio(events, scheduled), "ratio"),
            "simulation.self_s": (per(self._self(*sim_keys)), "s"),
            "simulation.us_per_event": (
                ratio(self.total("simulation.run"), events) * 1e6,
                "us",
            ),
            "network.link.sends": (per(self._calls("network.link")), "count"),
            "network.link.self_s": (per(self._self("network.link")), "s"),
            "network.transport.sends": (per(self._calls("network.transport")), "count"),
            "network.transport.segments": (per(segments), "count"),
            "network.transport.retransmissions": (
                per(experiments.get("retransmissions", 0)),
                "count",
            ),
            "network.transport.useful_ratio": (ratio(first_time, segments), "ratio"),
            "network.self_s": (per(self._self("network.link", "network.transport")), "s"),
            "kafka.producer.offers": (per(self._calls("kafka.producer")), "count"),
            "kafka.producer.requests": (per(c("kafka.requests", 0)), "count"),
            "kafka.producer.retries": (per(c("kafka.retries", 0)), "count"),
            "kafka.producer.ack_ratio": (
                ratio(c("kafka.acknowledged", 0), c("kafka.ack_expected", 0)),
                "ratio",
            ),
            "kafka.producer.self_s": (per(self._self("kafka.producer")), "s"),
            "kafka.broker.requests": (per(self._calls("kafka.broker")), "count"),
            "kafka.broker.self_s": (per(self._self("kafka.broker")), "s"),
            "kafka.log.appends": (per(self._calls("kafka.log")), "count"),
            "kafka.log.self_s": (per(self._self("kafka.log")), "s"),
            "testbed.experiments": (per(self._calls("testbed.experiment")), "count"),
            "testbed.build_s": (per(self.total("testbed.build")), "s"),
            "testbed.tracker.calls": (per(tracker_calls), "count"),
            "testbed.tracker.self_s": (per(self._self("testbed.tracker")), "s"),
            "testbed.reconcile_s": (per(self.total("testbed.reconcile")), "s"),
            "testbed.runner.self_s": (per(self._self("testbed.runner")), "s"),
            "models.predict.calls": (per(self._calls("models.predict")), "count"),
            "models.predict.rows": (per(c("models.rows", 0)), "count"),
            "models.predict.self_s": (per(self._self("models.predict")), "s"),
            "models.fallback.nn_calls": (per(c("models.nn_answers", 0)), "count"),
            "performance.predict.calls": (
                per(self._calls("performance.predict")),
                "count",
            ),
            "performance.predict.self_s": (per(self._self("performance.predict")), "s"),
            "kpi.select.calls": (per(self._calls("kpi.select")), "count"),
            "kpi.select.steps": (per(c("kpi.steps", 0)), "count"),
            "kpi.select.self_s": (per(self._self("kpi.select")), "s"),
            "observability.trace_records": (
                per(c("observability.trace_records", 0)),
                "count",
            ),
            "observability.verify_s": (per(self.total("observability.verify")), "s"),
            "chaos.phases": (per(c("chaos.phases", 0)), "count"),
            "chaos.campaign.self_s": (per(self._self("chaos.campaign")), "s"),
        }

    def span_document(self) -> Dict[str, Any]:
        """Spans as plain data, times relative to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans
            ],
        }
