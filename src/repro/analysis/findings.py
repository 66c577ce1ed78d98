"""Findings and per-line suppressions.

A :class:`Finding` is one rule violation at one source location.  The
one way to waive it is the *suppression* — an inline
``# reprolint: ignore[REP00x] reason`` comment on the offending line,
for the rare site where a rule's invariant is deliberately waived.
Suppressions must name the code they waive; a blanket ``ignore`` is not
honoured.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Set

#: matches ``# reprolint: ignore[REP001]`` and
#: ``# reprolint: ignore[REP001,REP003] reason text``
_SUPPRESSION_RE = re.compile(
    r"#\s*reprolint:\s*ignore\[([A-Z0-9,\s]+)\]\s*(.*)$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is the path as given to the engine (normally relative to
    the repository root), ``line``/``col`` are 1- and 0-based as in
    :mod:`ast`, and ``line_text`` is the stripped source line.
    """

    code: str
    path: str
    line: int
    col: int
    message: str
    hint: str
    line_text: str = ""

    def render(self) -> str:
        """One-line text format: ``path:line:col: CODE message``."""
        text = f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly mapping for ``--format json`` output."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class Suppression:
    """An inline waiver for one or more rule codes on one line."""

    line: int
    codes: Set[str] = field(default_factory=set)
    reason: str = ""


def scan_suppressions(source: str) -> Dict[int, Suppression]:
    """Find every ``# reprolint: ignore[...]`` comment in ``source``.

    Returns a mapping of 1-based line number to :class:`Suppression`.
    The scan is line-based: a suppression waives findings reported on
    its own line only.
    """
    suppressions: Dict[int, Suppression] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(line)
        if match is None:
            continue
        codes = {
            code.strip()
            for code in match.group(1).split(",")
            if code.strip()
        }
        if not codes:
            continue
        suppressions[number] = Suppression(
            line=number, codes=codes, reason=match.group(2).strip()
        )
    return suppressions
