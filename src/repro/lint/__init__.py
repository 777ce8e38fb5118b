"""Determinism & correctness lint framework (``repro lint``).

The repo's headline guarantees — byte-identical campaign reports,
bitwise-identical batched vs. scalar prediction, reproducible
per-(point, replication) seeding — are asserted by runtime tests; this
package enforces the *coding patterns* those guarantees depend on
statically, before a change ever reaches the test suite:

* no unseeded randomness or wall-clock reads inside the deterministic
  core (``simulation``, ``kafka``, ``chaos``, ``network``,
  ``workloads``),
* no iteration over hash-ordered containers or ``PYTHONHASHSEED``-
  dependent ``hash()`` on paths that feed seeds, traces or serialized
  reports,
* no unsorted JSON serialization, float ``==``, or unpicklable
  closures handed to a process pool (ruff's bugbear rule B006 covers
  mutable default arguments).

Each rule in the fixed tuple ``RULES`` runs on every scanned file in
its scope.  Inline ``# repro: allow[REPRO105]`` is the only way to
silence a finding; any other finding fails the run.  See DESIGN.md §9
for the rule set and how to add a rule.
"""

from .engine import LintResult, lint_paths, lint_source
from .finding import Finding
from .report import json_report, render_human
from .rules import DETERMINISTIC_PACKAGES, RULES, Rule

__all__ = [
    "DETERMINISTIC_PACKAGES",
    "Finding",
    "LintResult",
    "RULES",
    "Rule",
    "json_report",
    "lint_paths",
    "lint_source",
    "render_human",
]
