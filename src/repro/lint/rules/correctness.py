"""Correctness rules: float equality and pool closures."""

from __future__ import annotations

import ast
from typing import Iterator, Union

from ..finding import Finding
from .base import LintContext, Rule

__all__ = [
    "FloatEqualityRule",
    "SpawnClosureRule",
]


class FloatEqualityRule(Rule):
    """REPRO201: exact equality against a non-trivial float literal.

    ``x == 0.37`` is almost never what a numeric pipeline means — one
    rounding difference and the branch flips.  Compare through a
    tolerance helper (``math.isclose``, ``numpy.isclose``) instead.
    Exact comparison against ``0.0`` / ``1.0`` / ``inf`` sentinels is
    allowed: those are bit-exact states the code legitimately tests
    (e.g. "no jitter configured", "constant column").  Scoped to the
    ``repro`` source packages: in *tests*, exact float asserts are the
    repo's bit-identity contract and stay untouched.
    """

    id = "REPRO201"
    name = "float-equality"
    description = (
        "== / != against a non-sentinel float literal; use a tolerance "
        "helper"
    )
    scope = ("repro",)
    node_types = (ast.Compare,)

    _SENTINELS = (0.0, 1.0, -1.0, float("inf"), float("-inf"))

    def _is_hazard(self, node: ast.expr) -> bool:
        value = None
        if isinstance(node, ast.Constant):
            value = node.value
        elif (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
        ):
            operand = node.operand.value
            if isinstance(operand, float):
                value = -operand
        if not isinstance(value, float):
            return False
        return not any(value == sentinel for sentinel in self._SENTINELS)

    def check(self, node: ast.Compare, ctx: LintContext) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if self._is_hazard(side):
                    yield self.finding(
                        node, ctx,
                        "exact ==/!= against a float literal is one "
                        "rounding error away from flipping; use "
                        "math.isclose or an explicit tolerance",
                    )
                    return


class SpawnClosureRule(Rule):
    """REPRO203: closures handed to a process pool.

    A pool pickles the callable of every task it dispatches, even when
    its workers are forked, so every callable crossing into a worker must
    pickle — lambdas and functions defined inside another function do
    not.  Keep pool entry points at module top level.
    """

    id = "REPRO203"
    name = "spawn-closure"
    description = (
        "lambda or nested function submitted to a multiprocessing pool "
        "(unpicklable as a pool task)"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    _SUBMIT_METHODS = {
        "apply", "apply_async", "map", "map_async", "imap",
        "imap_unordered", "starmap", "starmap_async", "submit",
    }

    def check(
        self,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        ctx: LintContext,
    ) -> Iterator[Finding]:
        # Names bound to functions defined *inside* this function (one
        # level is enough: any nested def is closure-scoped).
        nested = {
            child.name
            for child in ast.walk(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not node
        }
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            # Only report calls whose nearest enclosing function is this
            # one — nested functions get their own dispatch, so a call
            # inside one would otherwise be flagged twice.
            enclosing = next(
                (
                    ancestor
                    for ancestor in ctx.ancestors(call)
                    if isinstance(
                        ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                ),
                None,
            )
            if enclosing is not node:
                continue
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in self._SUBMIT_METHODS
            ):
                continue
            candidates = list(call.args[:1]) + [
                keyword.value
                for keyword in call.keywords
                if keyword.arg in ("func", "fn")
            ]
            for candidate in candidates:
                if isinstance(candidate, ast.Lambda):
                    yield self.finding(
                        candidate, ctx,
                        f"lambda passed to pool.{func.attr}() cannot "
                        f"pickle as a pool task; use a module-level "
                        f"function",
                    )
                elif (
                    isinstance(candidate, ast.Name)
                    and candidate.id in nested
                ):
                    yield self.finding(
                        candidate, ctx,
                        f"'{candidate.id}' is defined inside "
                        f"'{node.name}' and cannot pickle into a pool "
                        f"worker; move it to module level",
                    )
