"""The reproduction's benchmark: one command, three workloads, traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload collect --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up the workload several times (``setup_s`` is the
import time of the program plus the median set-up), then repeats units of
work for ``--seconds`` and prints the end-to-end metrics.  Their times are
in reference seconds, calibrated against the host's current speed (see
``hostclock.py``); raw wall times are printed alongside.  ``--trace 1``
alternates untraced and traced units (see ``layers.py``) and prints the
per-layer metrics plus ``trace_overhead``; it also writes its spans to
``perfbench/out/``.  Both modes check every output, compare the output
digest and the deterministic counts across units (and between traced and
untraced units), and end with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="store this run's output digest as the golden one",
    )
    return parser.parse_args(argv)


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def digest(records: Any) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def percentile_ms(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_units(workload: Any, state: Any, seconds: float, traced_too: bool,
              tracer: Any) -> Tuple[List[Any], List[Any], List[Dict[str, int]]]:
    """Repeat units until ``seconds`` pass (at least one of each kind).

    Returns the untraced units, the traced units, and the tracer's count
    delta over each traced unit.
    """
    plain: List[Any] = []
    traced: List[Any] = []
    tracer_deltas: List[Dict[str, int]] = []
    start = time.perf_counter()
    while (
        not plain
        or (traced_too and not traced)
        or time.perf_counter() - start < seconds
    ):
        gc.collect()
        plain.append(workload.run_unit(state, traced=False))
        if traced_too:
            before = tracer.counts()
            gc.collect()
            tracer.install()
            try:
                traced.append(workload.run_unit(state, traced=True))
            finally:
                tracer.uninstall()
            after = tracer.counts()
            tracer_deltas.append(
                {key: value - before.get(key, 0) for key, value in after.items()}
            )
    return plain, traced, tracer_deltas


def compare_counts(units: List[Any]) -> List[str]:
    """Deterministic counts must repeat exactly; report the keys that differ."""
    problems: List[str] = []
    first = units[0].counts
    for index, unit in enumerate(units[1:], start=1):
        for key in sorted(set(first) | set(unit.counts)):
            if first.get(key) != unit.counts.get(key):
                problems.append(
                    f"count {key} unit0={first.get(key)} unit{index}={unit.counts.get(key)}"
                )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hostclock import HostClock

    clock = HostClock()
    clock.start()
    import numpy

    import loads
    from layers import LayerTracer

    import_s = clock.stop()
    if args.workload not in loads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(loads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = loads.WORKLOADS[args.workload](args.seed, args.size)
    traced_mode = args.trace == 1
    tracer = LayerTracer()

    setup_times: List[float] = []
    if traced_mode:
        # One traced set-up: it yields models.fit_s; set-up time itself is
        # an end-to-end metric and comes from untraced runs only.
        tracer.install()
        try:
            state = workload.setup()
        finally:
            tracer.uninstall()
        fit_s = tracer.total("models.fit")
        tracer.reset()
    else:
        repeats = SETUP_REPEATS if args.size == "full" else 1
        for _ in range(repeats):
            gc.collect()
            clock.start()
            state = workload.setup()
            setup_times.append(clock.stop())

    plain, traced, tracer_deltas = run_units(
        workload, state, args.seconds, traced_mode, tracer
    )
    # A pooled run_many runs its experiments in the workers, out of sight of
    # the experiment log; one serial, untimed unit then supplies the counts
    # (and checks that the pool's outputs equal the serial ones).
    checked = [unit for unit in plain if unit.in_process]
    extra = [] if checked else [workload.run_unit(state, traced=False, serial=True)]
    units = plain + traced + extra
    seen = (checked or extra) + traced
    reference = seen[0]

    problems: List[str] = []
    digests = {digest(unit.records) for unit in units}
    if len(digests) != 1:
        problems.append(f"output digests differ across units: {sorted(digests)}")
    log_digests = {digest(unit.info["experiments"]) for unit in seen}
    if len(log_digests) != 1:
        problems.append(f"experiment logs differ across units: {sorted(log_digests)}")
    if not reference.counts.get("experiments"):
        problems.append("no experiment was seen in-process")
    problems += compare_counts(seen)
    if traced:
        # The wrapped Simulator.run must have seen every event the
        # experiments fired.
        events = tracer_deltas[0].get("count.simulation.events")
        if reference.counts.get("events") != events:
            problems.append(
                f"traced count.simulation.events={events} "
                f"!= untraced events={reference.counts.get('events')}"
            )
        for index, delta in enumerate(tracer_deltas[1:], start=1):
            if delta != tracer_deltas[0]:
                changed = sorted(k for k in delta if delta[k] != tracer_deltas[0].get(k))
                problems.append(f"traced counts differ in unit {index}: {changed[:5]}")
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    errors = sorted({unit.info["error"] for unit in units if "error" in unit.info})
    # Outputs plus the per-experiment log (event and segment counts).
    run_digest = digest([sorted(digests)[0], sorted(log_digests)[0]])

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden_key = f"{args.workload}/{args.size}/{args.seed}"
    if args.record_golden and not problems and failed == 0:
        golden[golden_key] = run_digest
        GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=2) + "\n")
    expected = golden.get(golden_key)
    if expected is None:
        golden_state = "none (no golden digest for this workload/size/seed)"
    elif expected == run_digest:
        golden_state = "match"
    else:
        golden_state = f"CHANGED OUTPUTS (golden {expected})"
        problems.append(f"changed outputs: digest {run_digest} != golden {expected}")

    execution = plain[-1].info.get("execution_info")
    kernels = clock.kernel_s + [k for unit in units for k in unit.info["kernel_s"]]
    provenance = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "kernel_ms_median": statistics.median(kernels) * 1e3,
        "units": {
            "untraced": len(plain),
            "traced": len(traced),
            "serial_check": len(extra),
        },
    }
    if execution is not None:
        provenance["execution_info"] = execution
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("counts: " + json.dumps(reference.counts, sort_keys=True))
    if traced:
        print("traced counts: " + json.dumps(tracer_deltas[0], sort_keys=True))
    print(f"digest: {run_digest}  golden: {golden_state}")
    print(
        "host: calibration kernel median {:.2f} ms (min {:.2f}, max {:.2f}); "
        "untraced unit raw wall median {:.4f} s".format(
            statistics.median(kernels) * 1e3,
            min(kernels) * 1e3,
            max(kernels) * 1e3,
            statistics.median(u.raw_wall_s for u in plain),
        )
    )
    for problem in problems + errors:
        print(f"problem: {problem}")

    metrics: Dict[str, Tuple[float, str]] = {}
    if traced_mode:
        traced_totals = {
            key: sum(unit.counts.get(key, 0) for unit in traced)
            for key in ("segments", "retransmissions", "duplicate_segments")
        }
        metrics.update(tracer.layer_metrics(len(traced), traced_totals))
        metrics["models.fit_s"] = (fit_s, "s")
        hits, misses = traced[0].info.get("memo", (0, 0))
        metrics["models.memo_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0,
            "ratio",
        )
        info = execution or {}
        metrics["testbed.runner.workers"] = (info.get("workers", 0), "count")
        metrics["testbed.runner.pool"] = (1 if info.get("mode") == "pool" else 0, "bool")
        metrics["trace_overhead"] = (
            statistics.median(u.wall_s for u in traced)
            / statistics.median(u.wall_s for u in plain),
            "ratio",
        )
        OUT.mkdir(exist_ok=True)
        document = {
            "provenance": provenance,
            "metrics": {name: value for name, (value, _) in sorted(metrics.items())},
            **tracer.span_document(),
        }
        (OUT / f"spans-{args.workload}-{args.size}-{args.seed}.json").write_text(
            json.dumps(document, sort_keys=True) + "\n"
        )
    else:
        # Units repeat the same operations, so each operation's latency is
        # its median over the units; p50/p90 are then taken over operations.
        ops = len(plain[0].op_latencies_s)
        latencies = [
            statistics.median(
                u.op_latencies_s[i] for u in plain if len(u.op_latencies_s) == ops
            )
            for i in range(ops)
        ]
        metrics["setup_s"] = (import_s + statistics.median(setup_times), "s")
        metrics["wall_s"] = (statistics.median(u.wall_s for u in plain), "s")
        metrics["sim_msgs_per_s"] = (
            statistics.median(u.produced / u.wall_s for u in plain),
            "1/s",
        )
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        metrics["op_ms_p50"] = (percentile_ms(latencies, 50), "ms")
        metrics["op_ms_p90"] = (percentile_ms(latencies, 90), "ms")
        sample = f"n={len(latencies)} {workload.op_name}s x {len(plain)} units"
        print(f"op: {workload.op_name}  samples: {sample}")
        if workload.op_name == "decision":
            for q in ("p50", "p90"):
                print(f"decision_ms_{q} = {metrics['op_ms_' + q][0]:.4f} ms ({sample})")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted})")

    result = {
        "correct": not problems and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
