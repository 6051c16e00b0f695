"""The Baker language front-end: lexer, parser, semantic analysis.

Typical use::

    from repro.baker import parse_and_check
    checked = parse_and_check(source_text)
"""

from functools import lru_cache

from repro.baker.errors import BakerError, LexError, ParseError, SemanticError
from repro.baker.lexer import tokenize
from repro.baker.parser import parse
from repro.baker.semantic import CheckedProgram, analyze


def parse_and_check(text: str, filename: str = "<baker>") -> CheckedProgram:
    """Parse and semantically check Baker source text.

    The last few programs are kept, keyed by ``(text, filename)``: every
    optimization level of one source starts from the same checked
    program, so a process that compiles it at several levels checks it
    once. The returned program is shared by every caller that passes the
    same text and filename, so it is read-only: lowering builds a fresh
    module from it and no pass writes back into it. A ``BakerError`` is
    raised again on every call; a failed check is never kept."""
    return _checked(text, filename)


#: How many checked programs a process keeps (a constant, not a knob).
_CHECKED_KEPT = 8


@lru_cache(maxsize=_CHECKED_KEPT)
def _checked(text: str, filename: str) -> CheckedProgram:
    return analyze(parse(text, filename))


__all__ = [
    "BakerError",
    "LexError",
    "ParseError",
    "SemanticError",
    "CheckedProgram",
    "tokenize",
    "parse",
    "analyze",
    "parse_and_check",
]
