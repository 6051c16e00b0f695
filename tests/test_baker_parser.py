"""Unit tests for the Baker parser."""

import pytest

from repro.baker import ast
from repro.baker.errors import ParseError
from repro.baker.parser import parse
from tests.samples import MINI_FORWARDER, PASSTHROUGH


def test_parse_passthrough_program():
    prog = parse(PASSTHROUGH)
    assert len(prog.protocols) == 2
    assert len(prog.modules) == 1
    mod = prog.modules[0]
    assert mod.name == "fwd"
    assert len(mod.ppfs) == 1
    assert mod.ppfs[0].from_channels == ["rx"]


def test_parse_protocol_fields_and_demux():
    prog = parse(PASSTHROUGH)
    ether = prog.protocols[0]
    assert ether.name == "ether"
    assert [(f.name, f.width_bits) for f in ether.fields] == [
        ("dst", 48),
        ("src", 48),
        ("type", 16),
    ]
    assert isinstance(ether.demux, ast.IntLit)
    ipv4 = prog.protocols[1]
    assert isinstance(ipv4.demux, ast.Binary)
    assert ipv4.demux.op == "<<"


def test_protocol_missing_demux_parses():
    # demux absence is a *semantic* error; the parser accepts it.
    prog = parse("protocol p { a : 8; }")
    assert prog.protocols[0].demux is None


def test_duplicate_demux_rejected():
    with pytest.raises(ParseError):
        parse("protocol p { a : 8; demux { 1 }; demux { 2 }; }")


def test_parse_full_forwarder():
    prog = parse(MINI_FORWARDER)
    mod = prog.modules[0]
    assert [p.name for p in mod.ppfs] == ["l2_clsfr", "l3_fwdr", "l2_bridge", "arp_handler"]
    names = [n for decl in mod.channels for n in decl.names]
    assert names == ["l3_forward_cc", "l2_bridge_cc", "arp_cc"]
    assert len(mod.inits) == 1
    assert prog.metadata is not None
    assert prog.metadata.fields[0].name == "nexthop_id"


def test_parse_global_array_with_init():
    prog = parse("u32 tbl[4] = { 1, 2, 3, 4 };")
    g = prog.globals[0]
    assert g.array_len == 4
    assert len(g.init) == 4


def test_parse_shared_global():
    prog = parse("shared u32 counter = 0;")
    assert prog.globals[0].shared is True


def test_parse_function_with_params():
    prog = parse("u32 f(u32 a, u32 b) { return a + b; }")
    f = prog.funcs[0]
    assert f.name == "f"
    assert [p.name for p in f.params] == ["a", "b"]
    assert isinstance(f.body.stmts[0], ast.Return)


def test_precedence_mul_over_add():
    prog = parse("u32 f() { return 1 + 2 * 3; }")
    expr = prog.funcs[0].body.stmts[0].value
    assert expr.op == "+"
    assert expr.right.op == "*"


def test_precedence_shift_vs_compare():
    prog = parse("u32 f(u32 x) { return x << 2 > 8; }")
    expr = prog.funcs[0].body.stmts[0].value
    assert expr.op == ">"
    assert expr.left.op == "<<"


def test_precedence_bitand_below_equality():
    # C-style: == binds tighter than &
    prog = parse("u32 f(u32 x) { return x & 3 == 3; }")
    expr = prog.funcs[0].body.stmts[0].value
    assert expr.op == "&"
    assert expr.right.op == "=="


def test_ternary_parses_right_associative():
    prog = parse("u32 f(u32 x) { return x ? 1 : x ? 2 : 3; }")
    expr = prog.funcs[0].body.stmts[0].value
    assert isinstance(expr, ast.Ternary)
    assert isinstance(expr.otherwise, ast.Ternary)


def test_unary_operators():
    prog = parse("u32 f(u32 x) { return -x + ~x + !x; }")
    assert prog.funcs[0] is not None


def test_cast_expression():
    prog = parse("u32 f(u64 x) { return (u32) x; }")
    expr = prog.funcs[0].body.stmts[0].value
    assert isinstance(expr, ast.Cast)
    assert expr.target.name == "u32"


def test_parenthesized_not_cast():
    prog = parse("u32 f(u32 x) { return (x) + 1; }")
    expr = prog.funcs[0].body.stmts[0].value
    assert expr.op == "+"


def test_sizeof():
    prog = parse("u32 f() { return sizeof(ether); }")
    expr = prog.funcs[0].body.stmts[0].value
    assert isinstance(expr, ast.SizeofExpr)
    assert expr.name == "ether"


def test_member_and_index_chain():
    prog = parse("u32 f() { return tbl[2].field; }")
    expr = prog.funcs[0].body.stmts[0].value
    assert isinstance(expr, ast.Member)
    assert isinstance(expr.base, ast.Index)


def test_arrow_member():
    prog = parse(PASSTHROUGH)
    # find a '->' use inside the ppf by reparsing a fragment
    frag = parse(
        "protocol e { a : 8; demux { 1 }; } module m { ppf p(e_pkt *ph) from rx "
        "{ u32 x = ph->a; channel_put(tx, ph); } }"
    )
    decl = frag.modules[0].ppfs[0].body.stmts[0]
    assert isinstance(decl.init, ast.Member)
    assert decl.init.arrow is True


def test_compound_assignment():
    prog = parse("u32 f(u32 x) { x += 2; x <<= 1; return x; }")
    stmts = prog.funcs[0].body.stmts
    assert isinstance(stmts[0], ast.Assign) and stmts[0].op == "+"
    assert isinstance(stmts[1], ast.Assign) and stmts[1].op == "<<"


def test_increment_statement():
    prog = parse("u32 f(u32 x) { x++; x--; return x; }")
    stmts = prog.funcs[0].body.stmts
    assert stmts[0].op == "+" and stmts[0].value.value == 1
    assert stmts[1].op == "-"


def test_for_loop():
    prog = parse("u32 f() { u32 s = 0; for (u32 i = 0; i < 8; i++) { s += i; } return s; }")
    loop = prog.funcs[0].body.stmts[1]
    assert isinstance(loop, ast.For)
    assert isinstance(loop.init, ast.LocalDecl)
    assert loop.cond.op == "<"


def test_while_and_do_while():
    prog = parse("u32 f(u32 x) { while (x > 0) { x -= 1; } do { x += 1; } while (x < 4); return x; }")
    assert isinstance(prog.funcs[0].body.stmts[0], ast.While)
    assert isinstance(prog.funcs[0].body.stmts[1], ast.DoWhile)


def test_if_else_chain():
    prog = parse("u32 f(u32 x) { if (x == 1) return 1; else if (x == 2) return 2; else return 3; }")
    node = prog.funcs[0].body.stmts[0]
    assert isinstance(node, ast.If)
    assert isinstance(node.otherwise, ast.If)


def test_critical_section():
    prog = parse(MINI_FORWARDER)
    arp = prog.modules[0].ppfs[3]
    assert isinstance(arp.body.stmts[0], ast.Critical)
    assert arp.body.stmts[0].lock_name == "arp_lock"


def test_break_continue():
    prog = parse("void f() { while (true) { if (false) break; continue; } }")
    assert prog.funcs[0] is not None


def test_qualified_call():
    prog = parse("module a { u32 g() { return 1; } } module b { u32 h() { return a.g(); } }")
    call = prog.modules[1].funcs[0].body.stmts[0].value
    assert isinstance(call, ast.Call)
    assert call.qualifier == "a"
    assert call.callee == "g"


def test_ppf_param_must_be_packet():
    with pytest.raises(ParseError):
        parse("module m { ppf p(u32 x) from rx { } }")


def test_pointer_only_for_packets():
    with pytest.raises(ParseError):
        parse("module m { void f(foo * x) { } }")


def test_error_reports_location():
    with pytest.raises(ParseError) as exc:
        parse("module m {\n  ppf p(\n}")
    assert exc.value.loc is not None
    assert exc.value.loc.line >= 2


@pytest.mark.parametrize("src, line, message", [
    ("u32 x;\n42;", 2, "expected a top-level declaration, found '42'"),
    ("module m {\n  42\n}", 2, "expected a module item, found '42'"),
    ("u32 f() {\n  return );\n}", 2, "expected an expression, found ')'"),
], ids=["top_level", "module_item", "expression"])
def test_unexpected_token_is_reported_where_it_stands(src, line, message):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert message in str(exc.value)
    assert exc.value.loc.line == line


def test_missing_semicolon():
    with pytest.raises(ParseError):
        parse("u32 f() { return 1 }")


def test_trailing_comma_in_initializer():
    prog = parse("u32 t[2] = { 1, 2, };")
    assert len(prog.globals[0].init) == 2


def test_empty_module():
    prog = parse("module empty { }")
    assert prog.modules[0].name == "empty"
