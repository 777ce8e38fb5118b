"""The lint engine: file discovery, AST dispatch, suppressions.

One parse and one AST walk per file; every node is dispatched to the
rules subscribed to its type.  Findings are then filtered through
inline suppressions (``# repro: allow[REPRO105]`` on the flagged line
or alone on the line above), the only escape hatch.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Type

from .finding import Finding
from .rules import RULES, LintContext, Rule

__all__ = [
    "EXCLUDED_DIRS",
    "LintResult",
    "PARSE_ERROR_RULE",
    "discover_files",
    "lint_paths",
    "lint_source",
    "module_name_for",
]

#: Rule id attached to findings for files that fail to parse.
PARSE_ERROR_RULE = "REPRO000"

#: Directories never scanned: deliberate-violation fixtures and caches.
EXCLUDED_DIRS = ("lint_fixtures", "__pycache__", ".git")

_ALLOW_DIRECTIVE = re.compile(
    r"#\s*repro:\s*allow\[(?P<ids>[A-Za-z0-9_*,\s]+)\]"
)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    def extend(self, other: "LintResult") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files_scanned += other.files_scanned

    def sort(self) -> None:
        self.findings.sort(key=lambda f: f.sort_key)
        self.suppressed.sort(key=lambda f: f.sort_key)


def _allowed_ids(line: str) -> Optional[Set[str]]:
    """Rule ids allowed by a ``# repro: allow[...]`` directive, if any."""
    match = _ALLOW_DIRECTIVE.search(line)
    if match is None:
        return None
    return {part.strip() for part in match.group("ids").split(",") if part.strip()}


def _is_suppressed(finding: Finding, source_lines: Sequence[str]) -> bool:
    """Inline suppression on the flagged line, or comment-only line above."""
    candidates = []
    if 1 <= finding.line <= len(source_lines):
        candidates.append(source_lines[finding.line - 1])
    if finding.line >= 2:
        above = source_lines[finding.line - 2]
        if above.strip().startswith("#"):
            candidates.append(above)
    for line in candidates:
        ids = _allowed_ids(line)
        if ids is not None and ("*" in ids or finding.rule in ids):
            return True
    return False


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path`` (``src`` layout aware).

    ``src/repro/kafka/producer.py`` → ``repro.kafka.producer``; files
    outside a ``src`` root fall back to their bare stem, which keeps
    scoped rules quiet on scripts and test files.
    """
    parts = list(path.parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


def _display_path(path: Path) -> str:
    """Repo-relative POSIX path when possible, else the given path."""
    try:
        relative = path.resolve().relative_to(Path.cwd().resolve())
        return relative.as_posix()
    except ValueError:
        return path.as_posix()


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
) -> LintResult:
    """Lint one module given as text (the unit-test entry point)."""
    if module is None:
        module = module_name_for(Path(path))
    source_lines = source.splitlines()
    result = LintResult(files_scanned=1)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                rule=PARSE_ERROR_RULE,
                name="parse-error",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1),
                message=f"file does not parse: {exc.msg}",
                snippet=(exc.text or "").strip(),
            )
        )
        return result

    ctx = LintContext(path, module, source_lines, tree)
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in RULES:
        if not rule.applies_to(module):
            continue
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    if not dispatch:
        return result

    raw: List[Finding] = []
    for node in ast.walk(tree):
        for rule in dispatch.get(type(node), ()):
            raw.extend(rule.check(node, ctx))
    for finding in raw:
        if _is_suppressed(finding, source_lines):
            result.suppressed.append(replace(finding, suppressed=True))
        else:
            result.findings.append(finding)
    result.sort()
    return result


def discover_files(paths: Iterable[Path]) -> List[Path]:
    """Python files under ``paths``, deterministically ordered."""
    found: Set[Path] = set()
    for root in paths:
        root = Path(root)
        if root.is_file():
            if root.suffix == ".py":
                found.add(root)
            continue
        if not root.is_dir():
            raise FileNotFoundError(f"lint path does not exist: {root}")
        for candidate in sorted(root.rglob("*.py")):
            if any(part in EXCLUDED_DIRS for part in candidate.parts):
                continue
            found.add(candidate)
    return sorted(found)


def lint_paths(paths: Sequence["str | Path"]) -> LintResult:
    """Lint every Python file under ``paths``."""
    result = LintResult()
    for file_path in discover_files([Path(p) for p in paths]):
        file_result = lint_source(
            file_path.read_text(encoding="utf-8"),
            path=_display_path(file_path),
            module=module_name_for(file_path),
        )
        result.extend(file_result)
    result.sort()
    return result
