"""Rule registry: importing this package registers every shipped rule."""

from .base import (
    DETERMINISTIC_PACKAGES,
    LintContext,
    Rule,
    default_rules,
    register,
    rule_classes,
)
from . import correctness, determinism  # noqa: F401  (registration)

__all__ = [
    "DETERMINISTIC_PACKAGES",
    "LintContext",
    "Rule",
    "default_rules",
    "register",
    "rule_classes",
]
