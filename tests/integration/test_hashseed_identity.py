"""Campaign reports must be byte-identical across PYTHONHASHSEED values.

Python randomises ``str``/``bytes`` hashing per process unless
``PYTHONHASHSEED`` is pinned, so any set/dict-order leak into a
serialized artifact shows up as run-to-run byte drift.  This test
renders the same capped chaos campaign in two subprocesses with
*different* hash seeds and compares the report bytes, so an unsorted
set iteration or ``hash()`` of a string on the campaign's path fails
here (DESIGN.md §9).  CI additionally pins ``PYTHONHASHSEED`` in the tier-1 and
chaos-smoke jobs so a regression cannot hide behind a lucky seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parents[2]


def render_campaign(tmp_path: Path, hash_seed: str) -> bytes:
    out = tmp_path / f"campaign-{hash_seed}.json"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "chaos",
            "--schedule", "flap-burst", "--policy", "static",
            "--seed", "7", "--cap", "40", "--out", str(out),
        ],
        check=True,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return out.read_bytes()


def test_campaign_report_is_byte_identical_across_hash_seeds(tmp_path):
    first = render_campaign(tmp_path, "0")
    second = render_campaign(tmp_path, "431")
    assert first == second

    # Sanity: the artifact is a real report, not an empty file.
    payload = json.loads(first)
    assert payload["kind"] == "chaos_campaign_report"
    assert payload["phases"]
