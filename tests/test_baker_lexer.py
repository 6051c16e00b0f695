"""Unit tests for the Baker lexer."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import get_app
from repro.baker.errors import LexError
from repro.baker.lexer import tokenize
from repro.baker.tokens import TokenKind


def kinds(text):
    return [t.kind for t in tokenize(text)]


def test_empty_input_yields_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind is TokenKind.EOF


def test_identifiers_and_keywords():
    toks = tokenize("protocol foo ppf bar_baz _x")
    assert [t.kind for t in toks[:-1]] == [
        TokenKind.KW_PROTOCOL,
        TokenKind.IDENT,
        TokenKind.KW_PPF,
        TokenKind.IDENT,
        TokenKind.IDENT,
    ]
    assert toks[1].text == "foo"
    assert toks[3].text == "bar_baz"


def test_decimal_literal():
    tok = tokenize("12345")[0]
    assert tok.kind is TokenKind.INT
    assert tok.value == 12345


def test_hex_literal():
    tok = tokenize("0xDEADbeef")[0]
    assert tok.value == 0xDEADBEEF


def test_binary_literal():
    tok = tokenize("0b1010")[0]
    assert tok.value == 10


def test_octal_literal():
    tok = tokenize("0777")[0]
    assert tok.value == 0o777


def test_zero_literal():
    tok = tokenize("0")[0]
    assert tok.value == 0


def test_underscore_separator_in_literal():
    tok = tokenize("1_000_000")[0]
    assert tok.value == 1000000


def test_invalid_suffix_rejected():
    with pytest.raises(LexError):
        tokenize("123abc")


def test_line_comment_skipped():
    toks = tokenize("a // comment here\nb")
    assert [t.text for t in toks[:-1]] == ["a", "b"]


def test_block_comment_skipped():
    toks = tokenize("a /* multi\nline */ b")
    assert [t.text for t in toks[:-1]] == ["a", "b"]


def test_unterminated_block_comment():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_multichar_operators_greedy():
    assert kinds("<<= >>= << >> <= >= == != && || ->")[:-1] == [
        TokenKind.SHL_ASSIGN,
        TokenKind.SHR_ASSIGN,
        TokenKind.SHL,
        TokenKind.SHR,
        TokenKind.LE,
        TokenKind.GE,
        TokenKind.EQ,
        TokenKind.NE,
        TokenKind.ANDAND,
        TokenKind.OROR,
        TokenKind.ARROW,
    ]


def test_arrow_vs_minus():
    assert kinds("a->b - c")[:-1] == [
        TokenKind.IDENT,
        TokenKind.ARROW,
        TokenKind.IDENT,
        TokenKind.MINUS,
        TokenKind.IDENT,
    ]


def test_increment_and_compound_assign():
    assert kinds("i++ x += 1")[:-1] == [
        TokenKind.IDENT,
        TokenKind.PLUSPLUS,
        TokenKind.IDENT,
        TokenKind.PLUS_ASSIGN,
        TokenKind.INT,
    ]


def test_a_string_literal_is_a_located_lex_error():
    # No parser rule takes a string, so the lexer has no string token.
    with pytest.raises(LexError, match="unexpected character") as exc:
        tokenize('x = "hello";')
    assert exc.value.loc.column == 5


def test_char_literal():
    tok = tokenize("'A'")[0]
    assert tok.kind is TokenKind.CHAR
    assert tok.value == 65


def test_char_escape():
    tok = tokenize("'\\n'")[0]
    assert tok.value == 10


def test_unexpected_character():
    with pytest.raises(LexError) as exc:
        tokenize("a $ b")
    assert "unexpected character" in str(exc.value)


def test_locations_track_lines():
    toks = tokenize("a\n  b\n    c")
    assert toks[0].loc.line == 1 and toks[0].loc.column == 1
    assert toks[1].loc.line == 2 and toks[1].loc.column == 3
    assert toks[2].loc.line == 3 and toks[2].loc.column == 5


def test_all_single_char_operators():
    text = "( ) { } [ ] ; , : ? . = + - * / % & | ^ ~ ! < >"
    toks = tokenize(text)
    assert toks[-1].kind is TokenKind.EOF
    assert len(toks) == len(text.split()) + 1


# -- block comments, one edge per case ----------------------------------------------

_BLOCK_COMMENTS = [
    ("a/**/b", ["a", "b"]),
    ("/***/z", ["z"]),
    ("x/*/ still open */y", ["x", "y"]),
    ("a /* x * y / z ** */ b", ["a", "b"]),
    ("/* a */ /* b */c", ["c"]),
    ("a /* // inside */ b // /* not a block\nc", ["a", "b", "c"]),
    ("a/=b//c\n/*d*/e", ["a", "/=", "b", "e"]),
    ("x /*\n\n*/ y", ["x", "y"]),
    ("a/ *b* /c", ["a", "/", "*", "b", "*", "/", "c"]),
    ("a //c", ["a"]),
]


@pytest.mark.parametrize("text,want", _BLOCK_COMMENTS)
def test_block_comment_edges(text, want):
    assert [t.text for t in tokenize(text)[:-1]] == want


def test_block_comment_keeps_line_numbers():
    toks = tokenize("a /* one\ntwo\n*/ b")
    assert (toks[1].loc.line, toks[1].loc.column) == (3, 4)


@pytest.mark.parametrize("text,column", [("a /* never", 3), ("/*/", 1),
                                         ("x /* a */ /* b", 11)])
def test_unterminated_block_comment_located(text, column):
    with pytest.raises(LexError, match="unterminated block comment") as exc:
        tokenize(text)
    assert exc.value.loc.column == column


# -- malformed literals are diagnostics, not tracebacks -----------------------------


@pytest.mark.parametrize("text", ["0_7", "0b_", "0x_", "0B__", "0_8", "x = 0_1;"])
def test_malformed_integer_literal_is_lex_error(text):
    with pytest.raises(LexError, match="invalid integer literal") as exc:
        tokenize(text)
    assert exc.value.loc is not None


#: Every character a Baker source is made of, and a few it never is.
_BAKER_CHARS = ("abcxyzXZ_0123456789 \t\r\n" "()[]{};,:?.=+-*/%&|^~!<>"
                "\"'\\" "$#@`")
#: Fragments that reach the lexer's multi-character paths more often
#: than single characters drawn at random do.
_FRAGMENTS = ["0", "0x", "0X", "0b", "07", "_", "9", "f", "/*", "*/", "//",
              "\n", " ", '"', "'", "\\", "\\n", "\\q", "a", "<<", ">>=", "->",
              "=", "$"]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(_BAKER_CHARS, max_size=24),
                 st.lists(st.sampled_from(_FRAGMENTS), max_size=12)
                 .map("".join),
                 st.tuples(st.sampled_from(["0", "1", "0x", "0X", "0b", "0B"]),
                           st.text("0179afAF_", max_size=3)).map("".join)))
def test_any_text_tokenizes_or_raises_lex_error(text):
    try:
        toks = tokenize(text)
    except LexError as exc:
        assert exc.loc is not None
        return
    assert toks[-1].kind is TokenKind.EOF


# -- the token stream is pinned ------------------------------------------------------

#: Sources the stream digest covers besides the three apps: every text
#: the tests above tokenize, the block-comment edges, and diagnostics.
_CORPUS = [
    "", "protocol foo ppf bar_baz _x", "12345", "0xDEADbeef", "0b1010",
    "0777", "0", "1_000_000", "a // comment here\nb", "a /* multi\nline */ b",
    "<<= >>= << >> <= >= == != && || ->", "a->b - c", "i++ x += 1",
    'x = "hello";', "'A'", "'\\n'", "a\n  b\n    c",
    "( ) { } [ ] ; , : ? . = + - * / % & | ^ ~ ! < >",
    "0X1f 0B11 00 0_0 1__0 9_ '\\\\' '\\'' '\\0'",
] + [text for text, _ in _BLOCK_COMMENTS] + [
    # Diagnostics: the digest takes the message and its location.
    "123abc", "0x", "0b2", "08", "a /* never closed", '"oops', '"a\nb"',
    "'", "'ab'", "'\\q'", '"\\q"', "a $ b", "\n\n  #", "0xg", "1.5",
]

#: sha256 of the token stream of the three apps plus ``_CORPUS``, as the
#: character-at-a-time lexer produced it (kind, text, location, value),
#: except the texts with a ``"``: each is a LexError at its first quote.
_STREAM_DIGEST = "454d4ec55a3c37b88306e08a283742dabae7daf5fd103e49fc5e2672879c7006"


def _stream_digest() -> str:
    h = hashlib.sha256()
    sources = [(name, get_app(name).source)
               for name in ("l3switch", "firewall", "mpls")]
    sources += [("corpus%d" % i, text) for i, text in enumerate(_CORPUS)]
    for name, text in sources:
        try:
            rows = [(t.kind.name, t.text, str(t.loc), t.value)
                    for t in tokenize(text, name)]
        except LexError as exc:
            rows = [("error", exc.message, str(exc.loc))]
        h.update(repr(rows).encode())
    return h.hexdigest()


def test_token_stream_matches_pinned_digest():
    assert _stream_digest() == _STREAM_DIGEST


_LITERAL_KINDS = {TokenKind.IDENT, TokenKind.INT, TokenKind.CHAR,
                  TokenKind.EOF}


@pytest.mark.parametrize("kind", [k for k in TokenKind if k not in _LITERAL_KINDS],
                         ids=lambda k: k.name)
def test_every_spelling_lexes_to_its_kind(kind):
    # A keyword's or operator's spelling is its kind's value, and nothing
    # else: no member names a spelling the lexer splits differently.
    assert kinds(kind.value) == [kind, TokenKind.EOF]
