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
* no unsorted JSON serialization, float ``==``, mutable default
  arguments, or unpicklable closures handed to a process pool.

Findings can be silenced inline (``# repro: allow[REPRO105]``) or
parked wholesale in a committed baseline file so legacy findings never
block CI while new ones always do.  See DESIGN.md §9 for the rule set
and how to add a rule.
"""

from .baseline import Baseline, finding_fingerprint
from .engine import LintResult, lint_paths, lint_source
from .finding import Finding, Severity
from .report import json_report, render_human
from .rules import DETERMINISTIC_PACKAGES, Rule, default_rules, rule_classes

__all__ = [
    "Baseline",
    "DETERMINISTIC_PACKAGES",
    "Finding",
    "LintResult",
    "Rule",
    "Severity",
    "default_rules",
    "finding_fingerprint",
    "json_report",
    "lint_paths",
    "lint_source",
    "render_human",
    "rule_classes",
]
