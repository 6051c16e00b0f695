"""Source text handling and source locations for Baker programs."""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import List, NamedTuple


class SourceLocation(NamedTuple):
    """A position (1-based line and column) within a named source file.
    Immutable and hashable; a tuple so that the lexer, which makes one
    per token, pays no per-field ``__setattr__``."""

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
        self._line_starts: List[int] = [0] + [
            m.end() for m in re.finditer("\n", text)]

    def location(self, offset: int) -> SourceLocation:
        """Map a character offset to a :class:`SourceLocation`."""
        offset = max(0, min(offset, len(self.text)))
        line = bisect_right(self._line_starts, offset) - 1
        return SourceLocation(self.filename, line + 1,
                              offset - self._line_starts[line] + 1)
