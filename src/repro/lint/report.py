"""Human and JSON reporters for lint results.

The JSON report is itself a determinism-sensitive artifact (CI uploads
it), so it is fully sorted: findings by (path, line, col, rule), keys
alphabetically.  Schema (version 2)::

    {
      "version": 2,
      "tool": "repro-lint",
      "paths": [...],              # scanned roots, as given
      "files_scanned": int,
      "counts": {"new": n, "suppressed": n},
      "rules": [{"id", "name", "description"}...],
      "findings": [Finding.to_dict()...],        # unsuppressed findings
      "suppressed": [...],
      "ok": bool                   # no unsuppressed finding
    }
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from .engine import LintResult
from .rules import RULES

__all__ = ["REPORT_VERSION", "json_report", "render_human"]

REPORT_VERSION = 2


def json_report(result: LintResult, paths: Sequence[str]) -> Dict[str, Any]:
    """Build the schema-stable JSON document for one run."""
    return {
        "version": REPORT_VERSION,
        "tool": "repro-lint",
        "paths": list(paths),
        "files_scanned": result.files_scanned,
        "counts": {
            "new": len(result.findings),
            "suppressed": len(result.suppressed),
        },
        "rules": [
            {"id": rule.id, "name": rule.name, "description": rule.description}
            for rule in RULES
        ],
        "findings": [f.to_dict() for f in result.findings],
        "suppressed": [f.to_dict() for f in result.suppressed],
        "ok": not result.findings,
    }


def render_json(document: Dict[str, Any]) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def render_human(result: LintResult) -> str:
    """Compiler-style listing plus a one-line summary."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule} [{finding.name}] {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    lines.append(
        f"{result.files_scanned} file(s) scanned: "
        f"{len(result.findings)} new finding(s), "
        f"{len(result.suppressed)} suppressed"
    )
    if result.findings:
        lines.append(
            "fix the finding, or add '# repro: allow[RULE]' with a "
            "justification"
        )
    return "\n".join(lines) + "\n"
