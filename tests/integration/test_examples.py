"""The quick examples run end to end (each takes about a second)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "name", ["quickstart", "stream_pipeline", "failure_injection", "capacity_planning"]
)
def test_example_runs(name):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
