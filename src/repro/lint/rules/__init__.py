"""The shipped lint rules: one fixed tuple, in rule-id order."""

from typing import Tuple

from .base import DETERMINISTIC_PACKAGES, LintContext, Rule
from .correctness import FloatEqualityRule, SpawnClosureRule
from .determinism import (
    BuiltinHashRule,
    FsOrderRule,
    RawGeneratorRule,
    SetIterationRule,
    UnseededRandomRule,
    UnsortedJsonRule,
    WallClockRule,
)

#: Every rule the engine runs.  Rules are stateless, so one instance each
#: serves every file.
RULES: Tuple[Rule, ...] = (
    UnseededRandomRule(),
    WallClockRule(),
    SetIterationRule(),
    BuiltinHashRule(),
    UnsortedJsonRule(),
    FsOrderRule(),
    RawGeneratorRule(),
    FloatEqualityRule(),
    SpawnClosureRule(),
)

__all__ = ["DETERMINISTIC_PACKAGES", "LintContext", "RULES", "Rule"]
