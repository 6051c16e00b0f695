"""End-to-end coverage of individual Baker language features: each small
program runs through the complete pipeline (profile, optimize, codegen)
and must match the functional reference on the simulated chip at both
BASE and the full optimization level (some at every level).

Every program is also a member of ``CORPUS``, whose listings at all
seven levels are pinned by one digest (``_SHAPE_LISTING_DIGEST``): the
programs reach code shapes of the packet lowering that the three
applications never do."""

import hashlib

import pytest

from repro.baker import types as T
from repro.cg import pktlower
from repro.cg.isa import Mem
from repro.compiler import compile_baker
from repro.ir import instructions as I
from repro.options import LEVEL_ORDER, options_for
from repro.profiler.trace import (
    Trace, TracePacket, build_ethernet, build_ipv4, build_udp, ipv4_trace,
)
from repro.rts.system import verify_against_reference
from tests.samples import ETHER_IPV4_PROTOCOLS

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]

#: (source, trace or None for the default one) of every program below.
CORPUS = []


def program(src: str, trace=None) -> str:
    CORPUS.append((src, trace))
    return src


def default_trace() -> Trace:
    return ipv4_trace(60, [0xC0A80101, 0xC0A80202], MACS, seed=21)


def check(src: str, trace=None, levels=("BASE", "SWC"), packets=30):
    trace = trace or default_trace()
    for level in levels:
        result = compile_baker(src, options_for(level), trace)
        assert verify_against_reference(result, trace, packets=packets), level
    return result


def ppf(body: str, extra: str = "") -> str:
    return (
        ETHER_IPV4_PROTOCOLS
        + extra
        + "\nmodule m { ppf go(ether_pkt *ph) from rx { %s } }" % body
    )


# -- control flow -----------------------------------------------------------------

FOR_LOOP = program(ppf(
    "u32 acc = 0;"
    "for (u32 i = 0; i < 7; i++) { acc = acc + (u32) (ph->dst >> (i * 4)); }"
    "ph->type = acc & 0xffff; channel_put(tx, ph);"
))


def test_for_loop_checksum_over_header():
    check(FOR_LOOP)


DO_WHILE = program(ppf(
    "u32 n = ph->type & 7; u32 acc = 1;"
    "do { acc = acc * 3; n = n - 1; } while (n != 0 && n < 8);"
    "ph->type = acc & 0xffff; channel_put(tx, ph);"
))


def test_do_while_loop():
    check(DO_WHILE)


IF_LADDER = program(ppf(
    "u32 t = ph->type; u32 c = 0;"
    "if (t == 0x800) { if ((ph->dst & 1) == 1) { c = 1; } else { c = 2; } }"
    "else { if (t < 0x600) { c = 3; } else { c = 4; } }"
    "ph->type = c; channel_put(tx, ph);"
))


def test_nested_if_ladder():
    check(IF_LADDER)


BREAK_CONTINUE = program(ppf(
    "u32 acc = 0;"
    "for (u32 i = 0; i < 16; i++) {"
    "  if ((i & 1) == 1) { continue; }"
    "  if (i > 10) { break; }"
    "  acc = acc + i;"
    "}"
    "ph->type = acc; channel_put(tx, ph);"
))


def test_break_continue_in_loop():
    check(BREAK_CONTINUE)


TERNARY = program(ppf(
    "u32 t = ph->type;"
    "u32 v = t == 0x800 ? (t >> 4) : (t << 2);"
    "ph->type = v & 0xffff; channel_put(tx, ph);"
))


def test_ternary_expression():
    check(TERNARY)


# -- data features ------------------------------------------------------------------

LOCAL_ARRAY = program(ppf(
    "u32 hist[8];"
    "for (u32 i = 0; i < 8; i++) { hist[i] = 0; }"
    "hist[ph->type & 7] = 42;"
    "hist[(ph->type + 1) & 7] += 5;"
    "u32 acc = 0;"
    "for (u32 i = 0; i < 8; i++) { acc = acc + hist[i]; }"
    "ph->type = acc; channel_put(tx, ph);"
))


def test_local_array_on_stack():
    check(LOCAL_ARRAY)


STRUCT_GLOBAL = program(ppf(
    "stats[ph->meta.rx_port].seen = stats[ph->meta.rx_port].seen + 1;"
    "ph->type = stats[0].tag & 0xffff;"
    "channel_put(tx, ph);",
    extra="struct stat { u32 seen; u32 tag; }\nstruct stat stats[4];",
))


def test_struct_global_member_access():
    check(STRUCT_GLOBAL)


BOOL_GLOBAL = program(ppf(
    "if (on) { ph->type = ph->type ^ 1; }"
    "channel_put(tx, ph);",
    extra="bool on = true;",
))


def test_bool_global_loads_and_reads_back():
    """A ``bool`` global is placed like any scalar (one word, as is a
    packet handle) and its initial value reaches the ME: the reference
    flips the type field only because ``on`` reads back true."""
    assert T.BOOL.size_bytes() == 4
    assert T.PacketType("ether").size_bytes() == 4
    check(BOOL_GLOBAL)


U64_BRANCHES = program(ppf(
    "u64 mac = ph->dst;"
    "u64 other = ph->src;"
    "if ((mac & 1) == 1) { mac = mac ^ other; }"
    "ph->dst = mac;"
    "channel_put(tx, ph);"
))


def test_u64_local_across_branches():
    check(U64_BRANCHES)


U64_CALL_FRAME = program(
    ETHER_IPV4_PROTOCOLS
    + """
u32 mixer(u32 x) { return (x * 2654435761) >> 16; }
module m {
  ppf go(ether_pkt *ph) from rx {
    u64 mac = ph->dst;
    u32 h = mixer(ph->type);
    ph->dst = mac + h;
    channel_put(tx, ph);
  }
}
"""
)


def test_u64_value_survives_call_frame():
    # At BASE the helper calls clobber registers: the u64 must be homed.
    check(U64_CALL_FRAME)


SIGNED = program(ppf(
    "int delta = (int) ph->type - 0x900;"
    "if (delta < 0) { delta = -delta; }"
    "ph->type = (u32) delta & 0xffff;"
    "channel_put(tx, ph);"
))


def test_signed_arithmetic_end_to_end():
    check(SIGNED)


# -- 64-bit values, at every level ---------------------------------------------------
#
# The applications compare, shift, pass, return and store u64 values only
# in the few ways their sources spell; each program below reaches one more
# arm of the pair lowering in cg/lower.py.

U64_COMPARE = program(ppf(
    "u64 a = ph->src; u64 b = ph->dst; u32 c = 0;"
    "if (a != b) { c = c | 1; }"
    "if (a != 0x020000000005) { c = c | 2; }"
    "if (a < b) { c = c | 4; }"
    "if (a > 0x020000000010) { c = c | 8; }"
    "if (a <= 0x020000000020) { c = c | 16; }"
    "if (b >= a) { c = c | 32; }"
    "bool low = a < 0x020000000030;"
    "if (low) { c = c | 64; }"
    "ph->type = c; channel_put(tx, ph);"
))


def test_u64_ne_and_ordered_compares():
    # The source MACs share their high word with the constants and differ
    # in the low one, so every arm decides on the second compare too.
    check(U64_COMPARE, levels=LEVEL_ORDER)


U64_DYNAMIC_SHIFT = program(ppf(
    "u64 m = ph->src; u64 acc = 0;"
    "for (u32 i = 0; i < 64; i = i + 9) {"
    "  acc = acc ^ (m << i) ^ (m >> (i + (ph->type & 1)));"
    "}"
    "ph->src = acc; ph->dst = acc >> 7; channel_put(tx, ph);"
))


def test_u64_shift_by_a_dynamic_amount():
    # Amounts 0, below 32 and from 32 up: the three arms of the shift.
    check(U64_DYNAMIC_SHIFT, levels=LEVEL_ORDER)


U64_CALL = program(
    ETHER_IPV4_PROTOCOLS
    + """
u64 mix64(u64 x, u32 k, u64 y) {
  %s
  return (x ^ y) + k;
}
u64 again(u64 x, u64 y) { return mix64(x, 7, y) + 1; }
module m {
  ppf go(ether_pkt *ph) from rx {
    u64 a = mix64(ph->src, ph->type, ph->dst);
    u64 b = again(a, ph->src);
    ph->src = a;
    ph->dst = b;
    channel_put(tx, ph);
  }
}
""" % ("k = (k * 31 + (k >> 3)) ^ 0x5a5a;" * 24)
)


def test_u64_call_arguments_and_result():
    # Too large to inline with two callers: a call at every level, its
    # u64 arguments and result in register pairs.
    result = check(U64_CALL, levels=LEVEL_ORDER)
    calls = [i for i in result.mod.functions["m.go"].all_instrs()
             if isinstance(i, I.Call)]
    assert [c.func for c in calls] == ["mix64", "mix64"]


U64_GLOBALS = program(ppf(
    "u32 port = ph->meta.rx_port;"
    "macs[port] = ph->dst;"
    "if (port == 0) { last = ph->dst; ph->type = (u32) (last >> 8) & 0xffff; }"
    "ph->src = macs[port];"
    "channel_put(tx, ph);",
    extra="u64 macs[4];\nu64 last = 0;",
))


def test_u64_global_stores_read_back():
    # Every packet of a port stores the same value (its router MAC), so
    # what another thread stores in between reads back the same.
    check(U64_GLOBALS, levels=LEVEL_ORDER)


U64_LOCAL_ARRAY = program(ppf(
    "u64 ring[4];"
    "for (u32 i = 0; i < 4; i++) { ring[i] = ph->src + i; }"
    "u32 j = (u32) ph->src & 3;"
    "ring[j] = ring[(j + 1) & 3] ^ ph->dst;"
    "ring[3] = ring[3] + 1;"
    "ph->src = ring[j];"
    "ph->dst = ring[(j + 2) & 3];"
    "channel_put(tx, ph);"
))


def test_u64_local_array_with_dynamic_index():
    check(U64_LOCAL_ARRAY, levels=LEVEL_ORDER)


# -- packet primitives -----------------------------------------------------------------

EXTEND_SHORTEN = program(ppf(
    "packet_shorten(ph, 6);"
    "packet_extend(ph, 6);"
    "channel_put(tx, ph);"
))


def test_extend_shorten_roundtrip():
    check(EXTEND_SHORTEN)


COPY = program(ppf(
    "ether_pkt *dup = packet_copy(ph);"
    "dup->type = 0xbeef;"
    "channel_put(tx, dup);"
    "channel_put(tx, ph);"
))


def test_packet_copy_on_fast_path():
    # Both the copy and the original leave the box: the copy gets a
    # marked ethertype so the outputs differ deterministically.
    check(COPY)


CREATE = program(ppf(
    "ether_pkt *fresh = packet_create(ether, 50);"
    "fresh->dst = ph->src;"
    "fresh->src = ph->dst;"
    "fresh->type = 0x0801;"
    "channel_put(tx, fresh);"
    "packet_drop(ph);"
))


def test_packet_create_on_fast_path():
    check(CREATE)


CROSS_MODULE = program(
    ETHER_IPV4_PROTOCOLS
    + """
module front {
  channel out;
  ppf rx_side(ether_pkt *ph) from rx {
    ph->type = ph->type ^ 1;
    channel_put(out, ph);
  }
}
module back {
  ppf tx_side(ether_pkt *ph) from front.out {
    ph->type = ph->type ^ 2;
    channel_put(tx, ph);
  }
}
"""
)


def test_cross_module_channels():
    check(CROSS_MODULE)


METADATA = program(
    ETHER_IPV4_PROTOCOLS
    + """
metadata { u32 mark; }
module m {
  channel mid;
  ppf first(ether_pkt *ph) from rx {
    ph->meta.mark = ph->type + 7;
    channel_put(mid, ph);
  }
  ppf second(ether_pkt *ph) from mid {
    ph->type = ph->meta.mark & 0xffff;
    channel_put(tx, ph);
  }
}
"""
)


def test_metadata_across_ppfs():
    check(METADATA)


DEMUX_TRACE = Trace([
    TracePacket(build_ethernet(1, 2, 0x1234, bytes([a, b]) + bytes(40)), i % 3)
    for i, (a, b) in enumerate([(9, 0x20), (15, 0x40), (3, 0x10)])
] * 10)

DEMUX = program("""
protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }
protocol weird {
  a : 8;
  b : 8;
  rest : 16;
  demux { (a & 7) + (b >> 4) };
}
module m {
  ppf go(ether_pkt *ph) from rx {
    weird_pkt *wp = packet_decap(ph);
    u32 x = wp->a;
    wp->rest = (x * 3) & 0xffff;
    channel_put(tx, wp);
  }
}
""", DEMUX_TRACE)


def test_demux_with_arithmetic_and_multiple_fields():
    check(DEMUX, trace=DEMUX_TRACE, packets=20)


def decap_ipv4(body: str) -> str:
    return ETHER_IPV4_PROTOCOLS + (
        "module m { ppf go(ether_pkt *ph) from rx {"
        " ipv4_pkt *iph = packet_decap(ph); %s channel_put(tx, iph); } }" % body)


BYTE_FIELD_STORES = program(decap_ipv4(
    "iph->tos = (iph->tos + 1) & 0xff;"
    "iph->flags_frag = 0x4000;"
))


def test_sub_byte_field_stores():
    check(BYTE_FIELD_STORES)


VER_STORE = program(decap_ipv4("iph->ver = 6;"))
IHL_STORE = program(decap_ipv4("iph->ihl = iph->ttl & 0x0f;"))


@pytest.mark.parametrize("src", [VER_STORE, IHL_STORE], ids=["ver", "ihl"])
def test_nibble_store_at_every_level(src):
    # A field of four bits in the byte it shares with its neighbour: from
    # SOAR on, a read-modify-write of the DRAM words at a constant offset.
    check(src, levels=LEVEL_ORDER)


WIDE_UNALIGNED_LOAD = program(
    "protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }\n"
    "protocol w { a : 4; b : 40; c : 4; rest : 16; demux { 8 }; }\n"
    "module m { ppf go(ether_pkt *ph) from rx {"
    " w_pkt *wp = packet_decap(ph); u64 x = wp->b;"
    " wp->rest = (u32) (x ^ (x >> 24)) & 0xffff; channel_put(tx, wp); } }"
)


def test_wide_field_off_a_byte_boundary_loads_at_every_level():
    # Storing such a field is a semantic error (test_baker_semantic);
    # loading it works everywhere.
    check(WIDE_UNALIGNED_LOAD, levels=LEVEL_ORDER)


# -- register-resident packet state (PHR and up) -----------------------------------------
#
# Under PHR the PPF parameter's head/len live in registers and reach SRAM
# only where someone else reads them. Each program below makes a different
# reader depend on that store (or on its absence), on packets whose IPv4
# header length varies so the dynamic decap moves 20..60 bytes. Where the
# store is what is tested, the same compile with it suppressed must FAIL,
# or the test would pass on a compiler that never wrote anything back.

STATE_LEVELS = ("BASE", "PHR", "SWC")

L4 = "protocol l4 { sport : 16; dport : 16; demux { 4 }; }\n"


def options_trace(count=48, rare_every=0):
    """UDP-over-IPv4 frames with ihl cycling over 5, 6, 8, 15; every
    ``rare_every``-th packet carries IP protocol 99."""
    trace = Trace()
    for i in range(count):
        ihl = (5, 6, 8, 15)[i % 4]
        options = bytes((i * 7 + k) & 0xFF for k in range((ihl - 5) * 4))
        proto = 99 if rare_every and i % rare_every == rare_every - 1 else 17
        ip = build_ipv4(0x0A000001 + i, 0xC0A80101, proto=proto, options=options,
                        payload=build_udp(1000 + i, 2000 + 3 * i, bytes(6)))
        trace.packets.append(
            TracePacket(build_ethernet(MACS[i % 3], 0x020000000000 + i, 0x0800, ip),
                        i % 3))
    return trace


OPTIONS = options_trace()
OPTIONS_RARE = options_trace(rare_every=24)


def check_state(src, trace, packets=32, store_matters=True):
    result = check(src, trace=trace, levels=STATE_LEVELS, packets=packets)
    if store_matters:
        assert pktlower._TEST_MUTATION is None
        pktlower._TEST_MUTATION = "skip_writeback"
        try:
            broken = compile_baker(src, options_for("PHR"), trace)
        finally:
            pktlower._TEST_MUTATION = None
        assert not verify_against_reference(broken, trace, packets=packets)
    return result


XSCALE_CONSUMER = program(ETHER_IPV4_PROTOCOLS + L4 + """
module m {
  channel cold;
  ppf go(ether_pkt *ph) from rx {
    ipv4_pkt *iph = packet_decap(ph);
    if (iph->proto == 99) {
      l4_pkt *l4h = packet_decap(iph);
      channel_put(cold, l4h);
    } else {
      channel_put(tx, ph);
    }
  }
  ppf slow(l4_pkt *l4h) from cold {
    l4h->sport = (packet_length(l4h) + l4h->dport) & 0xffff;
    channel_put(tx, l4h);
  }
}
""", OPTIONS_RARE)


def test_moved_head_reaches_xscale_consumer():
    result = check_state(XSCALE_CONSUMER, OPTIONS_RARE, packets=48)
    assert [a.ppfs for a in result.plan.xscale_aggregates] == [["m.slow"]]


COPY_AFTER_MOVE = program(ETHER_IPV4_PROTOCOLS + L4 + """
module m {
  ppf go(ether_pkt *ph) from rx {
    ipv4_pkt *iph = packet_decap(ph);
    l4_pkt *l4h = packet_decap(iph);
    l4_pkt *dup = packet_copy(l4h);
    dup->sport = 0xbeef;
    channel_put(tx, dup);
    channel_put(tx, l4h);
  }
}
""", OPTIONS)


def test_packet_copy_sees_moved_head():
    check_state(COPY_AFTER_MOVE, OPTIONS)


# `probe` is too large to inline with two callers: it gets the handle
# after a head move, reads relative to the head and moves it again.
CALLEE_MOVES_HEAD = program(ETHER_IPV4_PROTOCOLS + """
u32 probe(ipv4_pkt *p, u32 x) {
  x = x + p->ident;
  %s
  packet_shorten(p, 2);
  return x;
}
u32 again(ipv4_pkt *p, u32 x) { return probe(p, x) + 1; }
module m {
  ppf go(ether_pkt *ph) from rx {
    ipv4_pkt *iph = packet_decap(ph);
    packet_extend(iph, 6);
    u32 a = probe(iph, 1);
    u32 b = again(iph, a);
    iph->ident = (a + b) & 0xffff;
    channel_put(tx, iph);
  }
}
""" % ("x = (x * 31 + (x >> 3)) ^ 0x5a5a;" * 24), OPTIONS)


def test_callee_sees_and_moves_the_head():
    result = check_state(CALLEE_MOVES_HEAD, OPTIONS)
    calls = [i for i in result.mod.functions["m.go"].all_instrs()
             if isinstance(i, I.Call)]
    assert [c.func for c in calls] == ["probe", "probe"]


def every_argument(params: str, args: str) -> str:
    # `b` is a copy whose decap PHR elides; `a` is untouched. Whichever
    # position `b` is passed in, its head must be in SRAM before the call.
    return program(ETHER_IPV4_PROTOCOLS + """
u32 big(%(params)s, u32 x) {
  x = x + b->ttl + a->type;
  %(churn)s
  return x;
}
u32 mid(%(params)s) { return big(%(args)s, 3); }
module m {
  ppf go(ether_pkt *a) from rx {
    ether_pkt *cp = packet_copy(a);
    ipv4_pkt *b = packet_decap(cp);
    u32 r = 0;
    if ((a->src & 1) == 0) { r = big(%(args)s, 1); } else { r = mid(%(args)s); }
    b->ident = r & 0xffff;
    channel_put(tx, packet_encap(b, ether));
    packet_drop(a);
  }
}
""" % dict(params=params, args=args,
           churn="x = (x * 31 + (x >> 3)) ^ 0x5a5a;" * 24))


EVERY_ARGUMENT = {
    ("ether_pkt *a, ipv4_pkt *b", "a, b"):
        every_argument("ether_pkt *a, ipv4_pkt *b", "a, b"),
    ("ipv4_pkt *b, ether_pkt *a", "b, a"):
        every_argument("ipv4_pkt *b, ether_pkt *a", "b, a"),
}


@pytest.mark.parametrize("params,args", list(EVERY_ARGUMENT))
def test_call_sees_the_head_of_every_packet_argument(params, args):
    result = check(EVERY_ARGUMENT[params, args], levels=STATE_LEVELS)
    calls = [i for i in result.mod.functions["m.go"].all_instrs()
             if isinstance(i, I.Call)]
    assert [c.func for c in calls] == ["big", "big"]
    assert result.phr_result.syncs_inserted == 2  # one in front of each call


ADD_REMOVE_TAIL = program(ppf(
    "packet_add_tail(ph, 8);"
    "packet_remove_tail(ph, 4);"
    "ph->type = packet_length(ph);"
    "channel_put(tx, ph);"
), OPTIONS)


def test_add_and_remove_tail():
    check_state(ADD_REMOVE_TAIL, OPTIONS)


DROP_AFTER_MOVE = program(ETHER_IPV4_PROTOCOLS + L4 + """
module m {
  ppf go(ether_pkt *ph) from rx {
    ipv4_pkt *iph = packet_decap(ph);
    l4_pkt *l4h = packet_decap(iph);
    if ((l4h->dport & 1) == 1) {
      packet_drop(l4h);
    } else {
      packet_extend(l4h, 2);
      channel_put(tx, l4h);
    }
  }
}
""", OPTIONS)


def test_drop_after_head_move_stores_nothing():
    result = check_state(DROP_AFTER_MOVE, OPTIONS)
    (image,) = result.images.values()
    stores = [i for i in image.insns if isinstance(i, Mem)
              and (i.space, i.rw, i.category) == ("sram", "write", "pkt")]
    assert len(stores) == 1  # the Tx path's; the drop path has none


# `x` is the parameter on one path and its copy on the other: buf and
# head of "the class" would be right for only one of them.
JOINED_HANDLE = program(ppf(
    "ether_pkt *x = ph;"
    "if ((ph->dst & 1) == 1) { x = packet_copy(ph); packet_drop(ph); }"
    "packet_shorten(x, 2);"
    "x->type = 0x1234;"
    "channel_put(tx, x);"
))


def test_handle_joining_packet_and_its_copy_gets_no_shared_state():
    check(JOINED_HANDLE, levels=("BASE", "SOAR", "SWC"))


# -- the corpus's listings ------------------------------------------------------------

#: sha256 (first 16 hex digits) over every image of every ``CORPUS``
#: program at every level, in ``LEVEL_ORDER``, in the format of
#: ``tests/test_codegen.py``'s sweep digest. A change to what the code
#: generator emits for any packet-access shape restates it, and says so.
_SHAPE_LISTING_DIGEST = "42680fb7a48f9382"


def test_corpus_listings_match_pinned_digest():
    h = hashlib.sha256()
    for src, trace in CORPUS:
        trace = trace or default_trace()
        for level in LEVEL_ORDER:
            images = compile_baker(src, options_for(level), trace).images
            for name, image in sorted(images.items()):
                h.update(("%s %d %d\n" % (name, image.entry,
                                          image.code_size)).encode())
                for insn in image.insns:
                    h.update(("%r|%r\n" % (
                        insn, getattr(insn, "resolved", None))).encode())
    assert h.hexdigest()[:16] == _SHAPE_LISTING_DIGEST
