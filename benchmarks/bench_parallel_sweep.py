"""Parallel experiment engine: serial vs pooled wall-clock + kernel gain.

Measures the two perf claims of the parallel-engine PR and records them
in ``BENCH_parallel.json`` at the repository root:

1. **Sweep speedup** — a 16-point grid run serially (``workers=1``) and
   with the default worker count, as alternating pairs in the same run
   (the order flips every pair);
   the medians give the speedup and every pooled result must be
   bit-identical to the serial one.  With ≥ 2 usable CPUs the pool must
   engage and win by ≥ 1.2×.  The same pairs are then measured with the
   process pinned to one CPU (``os.sched_setaffinity``), where the engine
   must fall back to the serial loop (``reason=cpu_count==1``) and so
   never lose to serial beyond timing noise.
2. **Kernel gain** — the tuple-heap event queue and tightened run loop
   against a faithful replica of the legacy object-heap kernel (per-Event
   ``__lt__`` comparisons, peek-then-pop run loop), on the same
   schedule-and-fire chain as ``test_kernel_event_throughput`` plus a
   cancel-heavy timer workload.

A cache-warm re-run of the same grid is timed as well, since repeated
sweeps are the dominant workflow the cache accelerates.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import json
import os
import statistics
import time
from pathlib import Path

from repro.simulation import Simulator
from repro.testbed import ResultCache, Scenario, run_many
from repro.testbed.sweep import grid_scenarios

from conftest import write_report

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_parallel.json"

#: 16-point grid: 4 message sizes × 4 loss rates, the Fig. 4/7 axes.
GRID_AXES = {
    "message_bytes": [100, 200, 400, 800],
    "loss_rate": [0.0, 0.05, 0.10, 0.15],
}
GRID_MESSAGES = 900
#: Alternating serial / default-worker pairs per measurement.
PAIRS = 3


# --------------------------------------------------------------------------
# Legacy kernel replica (pre-tuple-heap), for the before/after measurement.
# --------------------------------------------------------------------------


class _LegacyEvent:
    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(self, time, priority, seq, callback, args):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __lt__(self, other):
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )


class _LegacyQueue:
    """Verbatim logic of the seed EventQueue (Event objects in the heap,
    lazy skip of cancelled entries on pop and peek)."""

    def __init__(self):
        self._heap = []
        self._counter = itertools.count()
        self._live = 0

    def push(self, time, callback, *args, priority=10):
        event = _LegacyEvent(time, priority, next(self._counter), callback, args)
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def pop(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self):
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time

    def cancel(self, event):
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1


class _LegacySimulator:
    """Verbatim logic of the seed Simulator hot path: schedule with the
    negative-delay guard, run() as peek-then-step, step() popping the
    queue again, checking monotonicity and firing via Event.fire()."""

    def __init__(self):
        self._now = 0.0
        self._queue = _LegacyQueue()
        self._stopped = False
        self._running = False

    @property
    def now(self):
        return self._now

    def schedule(self, delay, callback, *args, priority=10):
        if delay < 0:
            raise RuntimeError(f"cannot schedule {delay}s in the past")
        return self._queue.push(self._now + delay, callback, *args, priority=priority)

    def cancel(self, event):
        self._queue.cancel(event)

    def step(self):
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:
            raise RuntimeError("event queue returned an event in the past")
        self._now = event.time
        event.callback(*event.args)
        return True

    def run(self, until=None, max_events=None):
        self._stopped = False
        self._running = True
        processed = 0
        try:
            while not self._stopped:
                if max_events is not None and processed >= max_events:
                    break
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self.step()
                processed += 1
        finally:
            self._running = False
        return processed


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def _chain_workload(sim, count=100_000):
    """The test_kernel_event_throughput shape: schedule-and-fire chain."""

    def chain(remaining):
        if remaining:
            sim.schedule(0.001, chain, remaining - 1)

    chain(count)
    sim.run()
    return sim.now


def _timer_workload(sim, count=60_000):
    """Cancel-heavy shape: every event schedules a timeout timer and the
    next event cancels it — the producer's per-message expiry pattern."""
    state = {"pending": None}

    def fire(remaining):
        if state["pending"] is not None:
            sim.cancel(state["pending"])
        if remaining:
            state["pending"] = sim.schedule(5.0, lambda: None)
            sim.schedule(0.001, fire, remaining - 1)

    fire(count)
    sim.run()
    return sim.now


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _timed_run(scenarios, workers, execution=None):
    gc.collect()
    start = time.perf_counter()
    results = run_many(scenarios, workers=workers, execution_info=execution)
    return time.perf_counter() - start, results


def _serial_vs_default(scenarios, pairs=PAIRS):
    """Alternating serial / default-worker runs: medians, spread, identity.

    The order flips every pair, so neither side always runs second.
    """
    serial_times, default_times = [], []
    execution: dict = {}
    reference = None
    for pair in range(pairs):
        if pair % 2 == 0:
            serial_s, serial = _timed_run(scenarios, 1)
            default_s, pooled = _timed_run(scenarios, None, execution)
        else:
            default_s, pooled = _timed_run(scenarios, None, execution)
            serial_s, serial = _timed_run(scenarios, 1)
        serial_times.append(serial_s)
        default_times.append(default_s)
        assert pooled == serial, "default-worker results diverged from serial"
        assert reference is None or serial == reference, "serial runs diverged"
        reference = serial
    serial_s = statistics.median(serial_times)
    default_s = statistics.median(default_times)
    return reference, {
        "serial_s": round(serial_s, 3),
        "serial_range_s": [round(min(serial_times), 3), round(max(serial_times), 3)],
        "default_s": round(default_s, 3),
        "default_range_s": [
            round(min(default_times), 3),
            round(max(default_times), 3),
        ],
        "speedup": round(serial_s / default_s, 3),
        "execution_mode": execution.get("mode"),
        "execution_reason": execution.get("reason"),
        "execution_workers": execution.get("workers"),
    }


def _pinned_to_one_cpu(measure):
    """Run ``measure()`` with this process pinned to a single CPU."""
    original = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(original)})
    try:
        return measure()
    finally:
        os.sched_setaffinity(0, original)


def _describe(label, row):
    reason = f" reason={row['execution_reason']}" if row["execution_reason"] else ""
    return (
        f"  {label}: serial {row['serial_s']:.2f} s, default "
        f"{row['default_s']:.2f} s (mode={row['execution_mode']} "
        f"workers={row['execution_workers']}{reason}), "
        f"speedup {row['speedup']:.2f}x"
    )


def test_parallel_sweep_speedup_and_kernel_gain():
    scenarios = grid_scenarios(Scenario(message_count=GRID_MESSAGES, seed=7), GRID_AXES)
    assert len(scenarios) == 16

    cpus = _usable_cpus()
    serial, usable = _serial_vs_default(scenarios)
    pinned = None
    if hasattr(os, "sched_setaffinity"):
        pinned_serial, pinned = _pinned_to_one_cpu(
            lambda: _serial_vs_default(scenarios)
        )
        assert pinned_serial == serial, "pinned results diverged"

    # Cache-warm re-run of the same grid.
    cache_dir = Path(__file__).parent / "_artifacts" / "parallel_cache"
    cache = ResultCache(cache_dir, salt="bench")
    cache.clear()
    run_many(scenarios, workers=1, cache=cache)  # warm
    start = time.perf_counter()
    cached = run_many(scenarios, workers=1, cache=cache)
    cached_s = time.perf_counter() - start
    assert cached == serial
    cache_speedup = usable["serial_s"] / cached_s if cached_s > 0 else float("inf")

    # Kernel: legacy replica vs current, chain + cancel-heavy workloads.
    legacy_chain_s = _best_of(lambda: _chain_workload(_LegacySimulator()))
    kernel_chain_s = _best_of(lambda: _chain_workload(Simulator()))
    legacy_timer_s = _best_of(lambda: _timer_workload(_LegacySimulator()))
    kernel_timer_s = _best_of(lambda: _timer_workload(Simulator()))
    chain_gain = legacy_chain_s / kernel_chain_s
    timer_gain = legacy_timer_s / kernel_timer_s

    payload = {
        "grid_points": len(scenarios),
        "messages_per_point": GRID_MESSAGES,
        "pairs": PAIRS,
        "usable_cpus": cpus,
        "usable_cpus_run": usable,
        "pinned_one_cpu_run": pinned,
        "bit_identical": True,
        "cached_rerun_s": round(cached_s, 4),
        "cache_speedup": round(cache_speedup, 1),
        "kernel_chain_legacy_s": round(legacy_chain_s, 4),
        "kernel_chain_s": round(kernel_chain_s, 4),
        "kernel_chain_gain": round(chain_gain, 3),
        "kernel_timer_legacy_s": round(legacy_timer_s, 4),
        "kernel_timer_s": round(kernel_timer_s, 4),
        "kernel_timer_gain": round(timer_gain, 3),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    lines = [
        "Parallel experiment engine",
        f"  16-point grid, {GRID_MESSAGES} msgs/point, {cpus} usable CPU(s), "
        f"medians of {PAIRS} alternating serial/default pairs, bit-identical",
        _describe(f"{cpus} CPU(s)", usable),
    ]
    if pinned is not None:
        lines.append(_describe("pinned to 1 CPU", pinned))
    lines += [
        f"  cached   {cached_s:8.4f} s  (speedup {cache_speedup:.0f}x)",
        "DES kernel (legacy object heap -> tuple heap)",
        f"  chain  {legacy_chain_s:.4f} s -> {kernel_chain_s:.4f} s "
        f"({chain_gain:.2f}x)",
        f"  timers {legacy_timer_s:.4f} s -> {kernel_timer_s:.4f} s "
        f"({timer_gain:.2f}x)",
        f"[recorded to {BENCH_JSON.name}]",
    ]
    write_report("parallel_sweep", "\n".join(lines))

    assert chain_gain >= 1.2, f"kernel chain gain {chain_gain:.2f}x < 1.2x"
    assert cache_speedup > 10, "cache-warm re-run should be >10x faster"
    if cpus >= 2:
        assert usable["execution_mode"] == "pool", usable
        assert usable["speedup"] >= 1.2, (
            f"pool on {cpus} CPUs only {usable['speedup']:.2f}x serial"
        )
    if pinned is not None:
        # One usable CPU: the engine runs the same in-process loop as the
        # serial side, so it must be at worst timing noise away from 1x.
        assert pinned["execution_mode"] == "serial", pinned
        assert pinned["execution_reason"] == "cpu_count==1", pinned
        assert pinned["speedup"] >= 0.85, (
            f"auto-serial run lost to serial: {pinned['speedup']:.2f}x"
        )
