"""Source text handling and source locations for Baker programs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class SourceLocation:
    """A position (1-based line and column) within a named source file."""

    filename: str
    line: int
    column: int

    def __str__(self) -> str:
        return "%s:%d:%d" % (self.filename, self.line, self.column)


class SourceFile:
    """A Baker source file: text plus efficient line/column queries."""

    def __init__(self, text: str, filename: str = "<baker>"):
        self.text = text
        self.filename = filename
        self._line_starts = self._compute_line_starts(text)

    @staticmethod
    def _compute_line_starts(text: str) -> List[int]:
        starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                starts.append(i + 1)
        return starts

    def location(self, offset: int) -> SourceLocation:
        """Map a character offset to a :class:`SourceLocation`."""
        offset = max(0, min(offset, len(self.text)))
        lo, hi = 0, len(self._line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return SourceLocation(self.filename, lo + 1, offset - self._line_starts[lo] + 1)
