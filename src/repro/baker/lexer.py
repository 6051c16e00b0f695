"""Lexer for the Baker language.

Produces a list of :class:`~repro.baker.tokens.Token`, terminated by an
``EOF`` token. Supports ``//`` line comments, ``/* */`` block comments,
decimal / hex / octal / binary integer literals and character literals.
Baker has no string literals: no parser rule takes one, so a ``"`` is an
unexpected character, located at the quote.

Trivia, identifiers, keywords and operators come from one compiled
pattern, matched once per token; literals keep hand-written scanners.
"""

from __future__ import annotations

import re
from typing import List

from repro.baker.errors import LexError
from repro.baker.source import SourceFile
from repro.baker.tokens import KEYWORDS, OPERATORS, Token, TokenKind

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = set("0123456789")

#: Tried in order at the current offset: a run of trivia (whitespace,
#: line and block comments), a block comment that never closes (before
#: the operators, which would take its ``/``), and a word -- an
#: identifier or keyword, or an operator in ``OPERATORS`` order, longest
#: first, so the first alternative that matches is the greedy one. Text
#: no alternative matches starts a literal or is an error.
_TOKEN_RE = re.compile(
    r"(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<unclosed>/\*)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*|%s)"
    % "|".join(re.escape(kind.value) for kind in OPERATORS),
    re.DOTALL)
#: A word's kind; any other word is an identifier.
_WORD_KINDS = {**KEYWORDS, **{kind.value: kind for kind in OPERATORS}}
#: An integer literal from its first digit: the digits (and ``_``
#: separators) of its base, named by base. A leading ``0`` followed by a
#: digit is octal.
_INT_RE = re.compile(r"0[xX](?P<hex>[0-9a-fA-F_]*)|0[bB](?P<bin>[01_]*)"
                     r"|0(?=[0-9])(?P<oct>[0-7_]*)|(?P<dec>[0-9][0-9_]*)")

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
}


class Lexer:
    """Tokenizes one :class:`SourceFile`."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.text = source.text
        self.pos = 0

    def tokenize(self) -> List[Token]:
        text, n = self.text, len(self.text)
        match = _TOKEN_RE.match
        loc = self.source.location
        tokens: List[Token] = []
        pos = self.pos
        while pos < n:
            m = match(text, pos)
            if m is None:
                ch = text[pos]
                if ch in _DIGITS:
                    tokens.append(self._lex_number(pos))
                elif ch == "'":
                    tokens.append(self._lex_char(pos))
                else:
                    raise self._error("unexpected character %r" % ch, pos)
                pos = self.pos
                continue
            group = m.lastgroup
            if group == "word":
                word = m.group()
                tokens.append(Token(_WORD_KINDS.get(word, TokenKind.IDENT),
                                    word, loc(pos)))
            elif group == "unclosed":
                raise self._error("unterminated block comment", pos)
            pos = m.end()
        self.pos = pos
        tokens.append(Token(TokenKind.EOF, "", loc(pos)))
        return tokens

    # -- internals ---------------------------------------------------------

    def _error(self, message: str, offset: int) -> LexError:
        return LexError(message, self.source.location(offset))

    def _lex_number(self, start: int) -> Token:
        text = self.text
        m = _INT_RE.match(text, start)
        pos = m.end()
        if m.lastgroup != "dec" and not m.group(m.lastgroup):
            raise self._error("invalid integer literal", start)
        if pos < len(text) and text[pos] in _IDENT_START:
            raise self._error("invalid suffix on integer literal", pos)
        self.pos = pos
        literal = text[start:pos]
        try:
            # Separators only: "0_7" (a leading zero) and "0x_" (no
            # digit) are not literals Python's int() accepts either.
            value = int(literal.replace("_", ""),
                        8 if m.lastgroup == "oct" else 0)
        except ValueError:
            raise self._error("invalid integer literal", start) from None
        return Token(TokenKind.INT, literal, self.source.location(start),
                     value=value)

    def _lex_char(self, start: int) -> Token:
        text, n = self.text, len(self.text)
        pos = start + 1
        if pos >= n:
            raise self._error("unterminated character literal", start)
        if text[pos] == "\\":
            if pos + 1 >= n or text[pos + 1] not in _ESCAPES:
                raise self._error("invalid escape sequence", pos)
            value = ord(_ESCAPES[text[pos + 1]])
            pos += 2
        else:
            value = ord(text[pos])
            pos += 1
        if pos >= n or text[pos] != "'":
            raise self._error("unterminated character literal", start)
        self.pos = pos + 1
        return Token(TokenKind.CHAR, text[start : pos + 1],
                     self.source.location(start), value=value)


def tokenize(text: str, filename: str = "<baker>") -> List[Token]:
    """Convenience wrapper: lex ``text`` into a token list (EOF-terminated)."""
    return Lexer(SourceFile(text, filename)).tokenize()
