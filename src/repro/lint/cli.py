"""``repro lint`` subcommand: argument wiring and the run entry point.

Kept inside the lint package so ``repro/cli.py`` stays a thin
dispatcher; :func:`configure_parser` attaches the arguments to the
subparser the top-level CLI creates, and :func:`run` executes a lint
invocation and returns the process exit code (0 = clean, 1 = any
unsuppressed finding, 2 = usage error such as a missing path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from .engine import lint_paths
from .report import json_report, render_human, render_json
from .rules import RULES

__all__ = ["DEFAULT_PATHS", "configure_parser", "run"]

#: Default scan roots, relative to the invocation directory.
DEFAULT_PATHS = ("src/repro",)


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro lint`` arguments to ``parser``."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=f"files or directories to scan (default: {', '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the JSON report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )


def _list_rules() -> int:
    for rule in RULES:
        scope = ", ".join(rule.scope) if rule.scope else "all files"
        print(f"{rule.id}  {rule.name:<18} {scope}")
        print(f"         {rule.description}")
    return 0


def run(args: argparse.Namespace) -> int:
    """Execute one ``repro lint`` invocation."""
    if args.list_rules:
        return _list_rules()

    paths: List[str] = list(args.paths) if args.paths else list(DEFAULT_PATHS)
    try:
        result = lint_paths(paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        Path(args.out).write_text(
            render_json(json_report(result, paths)), encoding="utf-8"
        )
    sys.stdout.write(render_human(result))
    return 1 if result.findings else 0
