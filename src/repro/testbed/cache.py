"""On-disk cache of measured experiment results.

Every reproduction artefact is a grid of fully deterministic seeded
experiments: the :class:`~repro.testbed.scenario.Scenario` (including its
producer configuration, hardware profile, broker configuration and seed)
is the *complete* input of a run.  That makes results safely cacheable —
re-running a sweep, re-collecting training data or re-building a figure
bench can reuse every row that was already measured.

Keys are a SHA-256 over a canonical JSON encoding of the scenario plus a
*code-version salt*.  The salt defaults to the package version plus a
``CACHE_EPOCH`` counter; bump :data:`CACHE_EPOCH` whenever a change to the
simulator, producer, network or testbed alters measured outputs, and every
previously cached row is invalidated at once (stale entries are simply
never looked up again — ``clear()`` reclaims the disk space).

Usage::

    cache = ResultCache("~/.cache/repro-results")
    results = run_many(scenarios, workers=4, cache=cache)
    print(cache.hits, cache.misses)
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Any, Optional

from .results import ExperimentResult
from .scenario import Scenario

__all__ = [
    "ResultCache",
    "scenario_fingerprint",
    "CACHE_EPOCH",
    "default_salt",
]

#: Bump when simulator/producer/network/testbed changes alter measured
#: outputs for the same scenario; this invalidates every cached row.
CACHE_EPOCH = 1


def default_salt() -> str:
    """The default code-version salt: package version + cache epoch."""
    from .. import __version__

    return f"{__version__}+e{CACHE_EPOCH}"


def _canonical(value: Any) -> Any:
    """Recursively convert a value into canonical JSON-encodable form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, float):
        # repr round-trips exactly; 1.0 and 1 must not collide.
        return f"f:{value!r}"
    return value


def scenario_fingerprint(scenario: Scenario, salt: str) -> str:
    """Stable hex digest identifying ``(scenario, salt)``.

    Covers every Scenario field — producer configuration, hardware
    profile, broker configuration, seed, message count — so two scenarios
    collide only if they define bit-identical experiments under the same
    code version.
    """
    payload = {"salt": salt, "scenario": _canonical(scenario)}
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of measured :class:`ExperimentResult` rows.

    Parameters
    ----------
    root:
        Cache directory (created on first write).
    salt:
        Code-version salt mixed into every key; defaults to
        :func:`default_salt`.  Changing the salt makes every existing
        entry a miss without touching the files.

    Attributes
    ----------
    hits / misses / corruptions:
        Lookup counters for this cache instance (reset with
        :meth:`reset_stats`).
    """

    #: Subdirectory corrupt entries are moved into for post-mortem.
    CORRUPT_DIR = "corrupt"

    def __init__(self, root: "str | Path", salt: Optional[str] = None) -> None:
        self.root = Path(root).expanduser()
        self.salt = salt if salt is not None else default_salt()
        self.hits = 0
        self.misses = 0
        self.corruptions = 0

    def key(self, scenario: Scenario) -> str:
        """The cache key of a scenario under this cache's salt."""
        return scenario_fingerprint(scenario, self.salt)

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directories small on big sweeps.
        return self.root / key[:2] / f"{key}.json"

    def get(self, scenario: Scenario) -> Optional[ExperimentResult]:
        """Return the cached result for ``scenario`` or None on a miss.

        A corrupt entry (present on disk but unreadable or undecodable) is
        *quarantined*: the bad file is moved into ``root/corrupt/`` so it
        is never re-parsed on the next sweep, the ``corruptions`` counter
        is incremented, and the lookup counts as a miss — the next
        :meth:`put` writes a fresh entry in its place.
        """
        path = self._path(self.key(scenario))
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            data = json.loads(text)
            result = _result_from_payload(data["result"])
        except (ValueError, KeyError, TypeError) as error:
            self._quarantine_corrupt(path, error)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine_corrupt(self, path: Path, error: Exception) -> None:
        """Move a corrupt entry out of the lookup path and count it."""
        self.corruptions += 1
        target = self.root / self.CORRUPT_DIR / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            path.replace(target)
        except OSError:
            # Quarantining is best-effort; deleting still stops re-parsing.
            try:
                path.unlink()
            except OSError:
                pass

    def put(self, scenario: Scenario, result: ExperimentResult) -> Path:
        """Store a measured result; returns the entry's path."""
        path = self._path(self.key(scenario))
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "salt": self.salt,
            "seed": scenario.seed,
            "result": _result_to_payload(result),
        }
        # Write-then-rename so a crashed run never leaves a torn entry.
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(path)
        return path

    def clear(self) -> int:
        """Delete every entry under ``root``; returns the count removed."""
        removed = 0
        if not self.root.exists():
            return removed
        # Deletion is order-invariant: every entry goes regardless.
        for entry in self.root.glob("*/*.json"):  # repro: allow[REPRO106]
            entry.unlink(missing_ok=True)
            removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(
            1
            # Counting is order-invariant.
            for entry in self.root.glob("*/*.json")  # repro: allow[REPRO106]
            if entry.parent.name != self.CORRUPT_DIR
        )

    def reset_stats(self) -> None:
        """Zero the hit/miss/corruption counters."""
        self.hits = 0
        self.misses = 0
        self.corruptions = 0


def _result_to_payload(result: ExperimentResult) -> dict:
    return dataclasses.asdict(result)


def _result_from_payload(payload: dict) -> ExperimentResult:
    fields = {field.name for field in dataclasses.fields(ExperimentResult)}
    if not fields.issuperset(payload):
        raise ValueError("cache entry has unknown result fields")
    return ExperimentResult(**payload)
