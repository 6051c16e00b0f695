"""Token kinds and the Token record produced by the Baker lexer."""

from __future__ import annotations

import enum
from typing import Dict, NamedTuple, Optional, Union

from repro.baker.source import SourceLocation


class TokenKind(enum.Enum):
    # Literals and identifiers.
    IDENT = "identifier"
    INT = "integer literal"
    CHAR = "char literal"

    # Keywords.
    KW_PROTOCOL = "protocol"
    KW_DEMUX = "demux"
    KW_MODULE = "module"
    KW_PPF = "ppf"
    KW_CHANNEL = "channel"
    KW_FROM = "from"
    KW_WIRE = "wire"
    KW_METADATA = "metadata"
    KW_STRUCT = "struct"
    KW_CONST = "const"
    KW_SHARED = "shared"
    KW_INIT = "init"
    KW_CRITICAL = "critical"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_DO = "do"
    KW_RETURN = "return"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_VOID = "void"
    KW_INT = "int"
    KW_UINT = "uint"
    KW_BOOL = "bool"
    KW_U8 = "u8"
    KW_U16 = "u16"
    KW_U32 = "u32"
    KW_U64 = "u64"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_SIZEOF = "sizeof"

    # Punctuation / operators: every kind whose value is not a word.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    COLON = ":"
    QUESTION = "?"
    DOT = "."
    ARROW = "->"
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    BANG = "!"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    SHL = "<<"
    SHR = ">>"
    ANDAND = "&&"
    OROR = "||"
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    AMP_ASSIGN = "&="
    PIPE_ASSIGN = "|="
    CARET_ASSIGN = "^="
    SHL_ASSIGN = "<<="
    SHR_ASSIGN = ">>="
    PLUSPLUS = "++"
    MINUSMINUS = "--"

    EOF = "end of input"


#: Each keyword's spelling is its ``KW_*`` member's value.
KEYWORDS = {k.value: k for k in TokenKind if k.name.startswith("KW_")}

#: The punctuation members (every value that is not a word), longest
#: first so the lexer's first matching alternative is the greedy one.
OPERATORS = sorted((k for k in TokenKind if not k.value[0].isalpha()),
                   key=lambda k: -len(k.value))

#: Each assignment operator's arithmetic: ``X_ASSIGN`` applies ``X``,
#: and plain ``=`` none.
ASSIGN_OPS: Dict[TokenKind, Optional[TokenKind]] = {TokenKind.ASSIGN: None}
ASSIGN_OPS.update((k, TokenKind[k.name[:-len("_ASSIGN")]])
                  for k in TokenKind if k.name.endswith("_ASSIGN"))


class Token(NamedTuple):
    """A single lexed token (immutable; a tuple for the same reason as
    :class:`~repro.baker.source.SourceLocation`)."""

    kind: TokenKind
    text: str
    loc: SourceLocation
    value: Optional[Union[int, str]] = None  # decoded value for literals

    def __repr__(self) -> str:
        if self.value is not None:
            return "Token(%s, %r, %r)" % (self.kind.name, self.text, self.value)
        return "Token(%s, %r)" % (self.kind.name, self.text)
