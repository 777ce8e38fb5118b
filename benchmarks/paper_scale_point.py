"""Run the reference feature vector at paper scale and report its cost.

The paper measures every feature vector on 10^6 uniquely keyed messages;
the figure benches use fewer and rely on Wilson intervals instead.  This
script runs the reference vector (M=200 B, D=100 ms, L=10 %,
at-least-once, B=2) once in a fresh process and prints one JSON line:
messages, seed, wall time, peak RSS, and P_l/P_d with their 95 % Wilson
intervals.  ``--max-rss-mb`` turns it into a memory gate (exit status 1
when the process peaked above the bound).

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/paper_scale_point.py --messages 1000000
    PYTHONPATH=src python benchmarks/paper_scale_point.py --messages 100000 --max-rss-mb 65
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import List, Optional

from repro.kafka import DeliverySemantics, ProducerConfig
from repro.testbed import Scenario, run_experiment, wilson_interval


def reference_scenario(messages: int, seed: int) -> Scenario:
    """The reference vector: M=200 B, D=100 ms, L=10 %, ALO, B=2."""
    return Scenario(
        message_bytes=200,
        network_delay_s=0.1,
        loss_rate=0.1,
        config=ProducerConfig(semantics=DeliverySemantics.AT_LEAST_ONCE, batch_size=2),
        message_count=messages,
        seed=seed,
    )


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--messages", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-rss-mb", type=float, default=None)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    result = run_experiment(reference_scenario(args.messages, args.seed))
    wall_s = time.perf_counter() - start
    produced = result.produced
    lost = round(result.p_loss * produced)
    duplicated = round(result.p_duplicate * produced)
    record = {
        "messages": produced,
        "seed": args.seed,
        "wall_s": round(wall_s, 2),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "p_loss": result.p_loss,
        "p_loss_ci95": list(wilson_interval(lost, produced)),
        "p_duplicate": result.p_duplicate,
        "p_duplicate_ci95": list(wilson_interval(duplicated, produced)),
    }
    print(json.dumps(record, sort_keys=True))
    if args.max_rss_mb is not None and record["peak_rss_mb"] > args.max_rss_mb:
        print(
            f"peak RSS {record['peak_rss_mb']} MB exceeds {args.max_rss_mb} MB",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
