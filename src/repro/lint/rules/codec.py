"""Codec rule: scenario/config dataclass fields must round-trip.

The parallel engine ships scenarios to pool workers as *field-diff*
payloads (:func:`repro.testbed.runner._encode_scenario`): only fields
differing from the defaults cross the process boundary, nested configs
are diffed recursively, and enums travel as their ``.value``.  That
codec can only rehydrate fields whose types it understands — scalars,
``Optional`` scalars, known enums and the known nested config
dataclasses.  A field of any other type (dict, list, callable, ...)
would silently pickle on the serial path and corrupt or crash on the
pool path, so this rule rejects it at lint time.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..finding import Finding
from .base import LintContext, Rule, register

__all__ = ["CodecFieldRule"]


@register
class CodecFieldRule(Rule):
    """REPRO301: codec-unsafe field on a wire-crossing config dataclass."""

    id = "REPRO301"
    name = "codec-field"
    description = (
        "config dataclass field whose type the field-diff scenario "
        "codec cannot round-trip"
    )
    #: Modules whose dataclasses cross the worker boundary via the
    #: field-diff codec.
    default_scope: Optional[Tuple[str, ...]] = (
        "repro.testbed.scenario",
        "repro.kafka.config",
    )
    node_types = (ast.ClassDef,)

    #: Scalar annotation names the codec ships verbatim.
    SCALARS = {"int", "float", "str", "bool", "bytes", "None"}
    #: Enum / nested-dataclass names the codec knows how to diff and
    #: rehydrate (see ``runner._NESTED_FIELDS`` and enum handling).
    CODEC_CLASSES = {
        "DeliverySemantics",
        "ProducerConfig",
        "HardwareProfile",
        "BrokerConfig",
    }
    _WRAPPERS = {"Optional", "Tuple", "tuple", "Union"}

    def _annotation_ok(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            if node.value is None:
                return True
            if isinstance(node.value, str):
                # Quoted annotation: parse and recurse.
                try:
                    parsed = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return False
                return self._annotation_ok(parsed)
            return False
        if isinstance(node, ast.Name):
            return node.id in self.SCALARS or node.id in self.CODEC_CLASSES
        if isinstance(node, ast.Attribute):
            return node.attr in self.CODEC_CLASSES
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return self._annotation_ok(node.left) and self._annotation_ok(
                node.right
            )
        if isinstance(node, ast.Subscript):
            base = node.value
            base_name = (
                base.id if isinstance(base, ast.Name)
                else base.attr if isinstance(base, ast.Attribute)
                else None
            )
            if base_name not in self._WRAPPERS:
                return False
            inner = node.slice
            elements = (
                inner.elts if isinstance(inner, ast.Tuple) else [inner]
            )
            return all(
                self._annotation_ok(element)
                or (isinstance(element, ast.Constant) and element.value is Ellipsis)
                for element in elements
            )
        return False

    def _is_dataclass(self, node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = (
                target.id if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute)
                else None
            )
            if name == "dataclass":
                return True
        return False

    def check(self, node: ast.ClassDef, ctx: LintContext) -> Iterator[Finding]:
        if not self._is_dataclass(node):
            return
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign):
                continue
            annotation = statement.annotation
            # ClassVar fields never cross the wire.
            if (
                isinstance(annotation, ast.Subscript)
                and isinstance(annotation.value, ast.Name)
                and annotation.value.id == "ClassVar"
            ):
                continue
            if not self._annotation_ok(annotation):
                target = statement.target
                field_name = (
                    target.id if isinstance(target, ast.Name) else "<field>"
                )
                rendered = ast.unparse(annotation)
                yield self.finding(
                    statement, ctx,
                    f"field '{field_name}: {rendered}' of dataclass "
                    f"'{node.name}' cannot round-trip through the "
                    f"field-diff scenario codec; use scalars, Optional "
                    f"scalars, tuples, or a registered config class",
                )
