"""Token kinds and the Token record produced by the Baker lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Union

from repro.baker.source import SourceLocation


class TokenKind(enum.Enum):
    # Literals and identifiers.
    IDENT = "identifier"
    INT = "integer literal"
    STRING = "string literal"
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

    # Punctuation / operators.
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
    WIRE_ARROW = "=>"  # unused placeholder; wirings use ARROW
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


KEYWORDS = {
    "protocol": TokenKind.KW_PROTOCOL,
    "demux": TokenKind.KW_DEMUX,
    "module": TokenKind.KW_MODULE,
    "ppf": TokenKind.KW_PPF,
    "channel": TokenKind.KW_CHANNEL,
    "from": TokenKind.KW_FROM,
    "wire": TokenKind.KW_WIRE,
    "metadata": TokenKind.KW_METADATA,
    "struct": TokenKind.KW_STRUCT,
    "const": TokenKind.KW_CONST,
    "shared": TokenKind.KW_SHARED,
    "init": TokenKind.KW_INIT,
    "critical": TokenKind.KW_CRITICAL,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "for": TokenKind.KW_FOR,
    "do": TokenKind.KW_DO,
    "return": TokenKind.KW_RETURN,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "void": TokenKind.KW_VOID,
    "int": TokenKind.KW_INT,
    "uint": TokenKind.KW_UINT,
    "bool": TokenKind.KW_BOOL,
    "u8": TokenKind.KW_U8,
    "u16": TokenKind.KW_U16,
    "u32": TokenKind.KW_U32,
    "u64": TokenKind.KW_U64,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "sizeof": TokenKind.KW_SIZEOF,
}

# Multi-character operators, longest first so the lexer can do greedy match.
OPERATORS = [
    ("<<=", TokenKind.SHL_ASSIGN),
    (">>=", TokenKind.SHR_ASSIGN),
    ("->", TokenKind.ARROW),
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("&&", TokenKind.ANDAND),
    ("||", TokenKind.OROR),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("&=", TokenKind.AMP_ASSIGN),
    ("|=", TokenKind.PIPE_ASSIGN),
    ("^=", TokenKind.CARET_ASSIGN),
    ("++", TokenKind.PLUSPLUS),
    ("--", TokenKind.MINUSMINUS),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    (";", TokenKind.SEMI),
    (",", TokenKind.COMMA),
    (":", TokenKind.COLON),
    ("?", TokenKind.QUESTION),
    (".", TokenKind.DOT),
    ("=", TokenKind.ASSIGN),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("&", TokenKind.AMP),
    ("|", TokenKind.PIPE),
    ("^", TokenKind.CARET),
    ("~", TokenKind.TILDE),
    ("!", TokenKind.BANG),
    ("<", TokenKind.LT),
    (">", TokenKind.GT),
]

ASSIGN_OPS = {
    TokenKind.ASSIGN: None,
    TokenKind.PLUS_ASSIGN: TokenKind.PLUS,
    TokenKind.MINUS_ASSIGN: TokenKind.MINUS,
    TokenKind.STAR_ASSIGN: TokenKind.STAR,
    TokenKind.SLASH_ASSIGN: TokenKind.SLASH,
    TokenKind.PERCENT_ASSIGN: TokenKind.PERCENT,
    TokenKind.AMP_ASSIGN: TokenKind.AMP,
    TokenKind.PIPE_ASSIGN: TokenKind.PIPE,
    TokenKind.CARET_ASSIGN: TokenKind.CARET,
    TokenKind.SHL_ASSIGN: TokenKind.SHL,
    TokenKind.SHR_ASSIGN: TokenKind.SHR,
}


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
