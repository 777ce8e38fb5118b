"""The finding type shared by the lint engine and reporters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is repo-relative with POSIX separators so reports are
    byte-identical across operating systems and checkout locations.
    ``snippet`` is the stripped source line, shown under the finding.
    """

    rule: str
    name: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    suppressed: bool = field(default=False, compare=False)

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
        }
