"""Rule base class and the per-file lint context.

A rule is a small AST checker: it declares which node types it wants
(``node_types``), which dotted package prefixes it applies to
(``scope``; ``None`` = every scanned file) and yields
:class:`~repro.lint.finding.Finding` objects from :meth:`check`.  The
engine walks each module's AST exactly once and dispatches every node
to the rules subscribed to its type.

Adding a rule (see DESIGN.md §9):

1. subclass :class:`Rule` in one of the modules under
   ``repro/lint/rules/`` and add an instance to ``RULES`` in
   ``repro/lint/rules/__init__.py``, in id order,
2. add a violating + clean fixture pair under
   ``tests/unit/lint_fixtures/`` and a row in the rule table of
   ``tests/unit/test_lint_rules.py``,
3. document it in DESIGN.md §9.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Tuple, Type

from ..finding import Finding

__all__ = ["DETERMINISTIC_PACKAGES", "LintContext", "Rule"]

#: Packages whose code runs inside the simulated clock: everything here
#: must draw randomness from seeded streams and never read the host
#: wall clock, or seed/trace reproducibility silently breaks.
DETERMINISTIC_PACKAGES: Tuple[str, ...] = (
    "repro.simulation",
    "repro.kafka",
    "repro.chaos",
    "repro.network",
    "repro.workloads",
)


class LintContext:
    """Per-file state handed to every rule check.

    Parameters
    ----------
    path:
        Repo-relative POSIX path of the file (used verbatim in findings).
    module:
        Dotted module name (``repro.kafka.producer``); rules use it for
        scope tests.  Files outside a package lint as their bare stem.
    source_lines:
        The file's source split into lines (1-based access via
        :meth:`line`).
    tree:
        The parsed module, already annotated with parent links.
    """

    def __init__(
        self,
        path: str,
        module: str,
        source_lines: Sequence[str],
        tree: ast.Module,
    ) -> None:
        self.path = path
        self.module = module
        self.source_lines = source_lines
        self.tree = tree
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1]
        return ""

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def inside_sorted_call(self, node: ast.AST) -> bool:
        """True when ``node`` sits inside a ``sorted(...)`` argument.

        The walk stops at statement boundaries, so a ``sorted`` call
        elsewhere in the function never launders an unrelated iteration.
        """
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.stmt):
                return False
            if isinstance(ancestor, ast.Call):
                func = ancestor.func
                if isinstance(func, ast.Name) and func.id == "sorted":
                    return True
        return False


class Rule:
    """Base class for lint rules."""

    #: Stable identifier, e.g. ``"REPRO105"`` (used in suppressions and
    #: reports).
    id: str = ""
    #: Short kebab-case name shown next to the id.
    name: str = ""
    #: One-line description for ``repro lint --list-rules``.
    description: str = ""
    #: Dotted package prefixes this rule applies to; ``None`` = all.
    scope: Optional[Tuple[str, ...]] = None
    #: AST node classes the engine dispatches to :meth:`check`.
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies_to(self, module: str) -> bool:
        if self.scope is None:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, node: ast.AST, ctx: LintContext, message: str
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            rule=self.id,
            name=self.name,
            path=ctx.path,
            line=lineno,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            snippet=ctx.line(lineno).strip(),
        )
