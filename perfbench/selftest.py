"""Toy-size self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` once untraced and once traced at
toy size (one unit each) and checks that:

* the last line is the result object, with ``correct`` true and no failures;
* every ``end_to_end`` metric (untraced) or ``per_layer`` metric (traced) is
  printed, both as a ``metric <name> = <value> <unit>`` line and in the
  result object, with the unit ``BENCHMARK.json`` declares;
* the traced and untraced output digests are equal, and equal to the
  stored toy golden digest when one exists.

Run from the repository root::

    python3 perfbench/selftest.py [--seed N]

Exit status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def run_once(workload: str, seed: int, trace: int) -> str:
    buffer = io.StringIO()
    argv = [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "0",
        "--trace", str(trace),
        "--size", "toy",
    ]
    with contextlib.redirect_stdout(buffer):
        status = run.main(argv)
    if status != 0:
        raise SystemExit(f"{workload} trace={trace}: exit status {status}")
    return buffer.getvalue()


def check_output(text: str, wanted: List[Dict[str, str]], label: str) -> List[str]:
    problems: List[str] = []
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    printed = {
        match.group(1): match.group(2)
        for match in (re.match(r"metric (\S+) = \S+ (\S+)$", line) for line in lines)
        if match
    }
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if printed.get(name) != unit:
            problems.append(f"{label}: metric line for {name} [{unit}] missing")
        reported = result["metrics"].get(name)
        if reported is None or reported["unit"] != unit:
            problems.append(f"{label}: result lacks {name} [{unit}]")
    return problems


def digest_of(text: str) -> str:
    for line in text.splitlines():
        if line.startswith("digest: "):
            return line.split()[1]
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description="toy-size benchmark self-test")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    definition = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    golden_path = HERE / "golden.json"
    golden = json.loads(golden_path.read_text()) if golden_path.is_file() else {}
    problems: List[str] = []
    for workload in (w["name"] for w in definition["workloads"]):
        plain = run_once(workload, args.seed, 0)
        traced = run_once(workload, args.seed, 1)
        problems += check_output(plain, definition["end_to_end"], f"{workload} untraced")
        problems += check_output(traced, definition["per_layer"], f"{workload} traced")
        digests = {digest_of(plain), digest_of(traced)}
        expected = golden.get(f"{workload}/toy/{args.seed}")
        if len(digests) != 1:
            problems.append(f"{workload}: traced/untraced digests differ {sorted(digests)}")
        elif expected is not None and digests != {expected}:
            problems.append(f"{workload}: digest {digests.pop()} != golden {expected}")
        print(f"{workload}: digest {digest_of(plain)}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
