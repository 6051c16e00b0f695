"""End-to-end coverage of individual Baker language features: each small
program runs through the complete pipeline (profile, optimize, codegen)
and must match the functional reference on the simulated chip at both
BASE and the full optimization level (some at every level).

Every program is also a member of ``CORPUS``, whose listings at all
seven levels are pinned by one digest (``_SHAPE_LISTING_DIGEST``): the
programs reach code shapes of the packet lowering, and paper mechanisms
(ME locks, SRAM stack frames), that the three applications never do;
``tests/test_reach.py`` traces them with the applications."""

import hashlib

import pytest

from repro.apps import get_app
from repro.baker import types as T
from repro.cg import isa, pktlower
from repro.cg.isa import Mem
from repro.compiler import compile_baker
from repro.ir import instructions as I
from repro.options import LEVEL_ORDER, options_for
from repro.profiler.trace import (
    Trace, TracePacket, build_ethernet, build_ipv4, build_udp, ipv4_trace,
)
from repro.rts.system import verify_against_reference
from tests.samples import ETHER_IPV4_PROTOCOLS, array_frame

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
    """A ``bool`` global is placed like any scalar (one word) and its
    initial value reaches the ME: the reference flips the type field only
    because ``on`` reads back true."""
    assert T.BOOL.size_bytes() == 4
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


# The length is read between a decap and an encap that PHR elides.
ELIDED_LENGTH = program(ppf(
    "ipv4_pkt *ip = packet_decap(ph);"
    " ip->ident = packet_length(ip) & 0xffff;"
    " ether_pkt *e = packet_encap(ip, ether); channel_put(tx, e);"
))


def test_phr_rebases_packet_length_after_an_elided_decap():
    check(ELIDED_LENGTH, levels=LEVEL_ORDER)
    result = compile_baker(ELIDED_LENGTH, options_for("PHR"), default_trace(),
                           codegen=False)
    assert result.phr_result.elided_encaps == 2
    # The length is read off the synced head, 14 bytes before ip's.
    instrs = list(result.mod.functions["m.go"].all_instrs())
    at = next(n for n, i in enumerate(instrs) if isinstance(i, I.PktLength))
    sub = instrs[at + 1]
    assert isinstance(sub, I.BinOp) and sub.op == "sub"
    assert sub.a is instrs[at].dst and sub.b.value == 14


# -- the paper's ME mechanisms --------------------------------------------------------

# A locked update of shared state (section 4: the IXP's atomic SRAM
# test-and-set). Only the packet is compared, never ``hits``: threads
# finish in any order, and the reference runs them one after another.
LOCKED = program(ppf(
    "critical (hits_lock) { hits = hits + 1; }"
    " ph->type = 0x0800; channel_put(tx, ph);", extra="u32 hits;"))


def test_critical_section_spins_on_test_and_set_at_every_level():
    for level in LEVEL_ORDER:
        (image,) = check(LOCKED, levels=(level,)).images.values()
        assert any(isinstance(i, isa.TestAndSet) for i in image.insns), level


# A 200-word local array: the helper's frame overflows Local Memory into
# the thread's SRAM stack area (section 5.4).
SRAM_FRAME = program(array_frame(200))


def test_frame_past_local_memory_lives_in_sram_at_every_level():
    for level in LEVEL_ORDER:
        (image,) = check(SRAM_FRAME, levels=(level,)).images.values()
        assert image.stack_layout.sram_words_used == 200, level


# Sequential ``if (op == ..)`` arms: from PAC on, jump threading takes
# each arm past the later tests, which it decides and so does not copy,
# and a storing arm on through the escape, whose ``type`` store merges
# with the arm's into one masked store. (``zeros`` is never compared, as
# ``hits`` above.)
THREADED = program(ppf(
    "u32 op = ph->type & 3;"
    " if (op == 0) { zeros = zeros + 1; }"
    " if (op == 1) { ph->dst = 7; }"
    " if (op == 2) { ph->src = 9; }"
    " if (op == 3) { ph->src = ph->dst; }"
    " if (op != 0) { ph->type = 0x0800; channel_put(tx, ph); }"
    " else { packet_drop(ph); }", extra="u32 zeros;"))


def test_each_storing_arm_is_threaded_to_its_escape():
    check(THREADED, levels=LEVEL_ORDER)
    result = compile_baker(THREADED, options_for("PAC"), default_trace(),
                           codegen=False)
    assert result.pac_result.wide_stores == 3  # one per storing arm


def test_a_threaded_path_copies_only_what_it_needs():
    # One cmp per source test: no arm keeps a copy of a test its path
    # decided (copying every instruction of a path left 15).
    result = compile_baker(THREADED, options_for("PAC"), default_trace(),
                           codegen=False)
    assert sum(isinstance(i, I.Cmp) for fn in result.mod.functions.values()
               for i in fn.all_instrs()) == 5
    # Every threaded jump accounts for its whole path, and MPLS's leave
    # the loop-exit tests they decided behind.
    compiles = [(src, trace or default_trace(), "") for src, trace in CORPUS]
    compiles += [(get_app(name).source, get_app(name).make_trace(200, seed=5),
                  name) for name in ("l3switch", "firewall", "mpls")]
    mpls_swc_dropped = 0
    for src, trace, name in compiles:
        for level in LEVEL_ORDER:
            result = compile_baker(src, options_for(level), trace,
                                   codegen=False)
            for d in result.decisions:
                if d.pass_name == "thread" and d.verdict == "threaded":
                    ev = d.evidence
                    assert ev["copied"] + ev["dropped"] == ev["path"], ev
                    if (name, level) == ("mpls", "SWC"):
                        mpls_swc_dropped += ev["dropped"]
    assert mpls_swc_dropped >= 1


# An undecided test between a storing arm and its escape. Jump threading
# takes a branch the known constants leave open as one test only when its
# arms leave every live temp the same known constant (MPLS's loop exit);
# here they leave ``k`` different, so the storing arm is not threaded.
DIAMOND_TRACE = Trace([
    TracePacket(build_ethernet(1, 2, 0x0800 + i % 8, bytes(46)), i % 3)
    for i in range(24)])
DIAMOND = program(ppf(
    "u32 t = ph->type; u32 k = t >> 8;"
    " if ((t & 3) == 1) { ph->dst = 7; }"
    " if ((t & 4) == 4) { k = k + 1; } else { k = k ^ 3; }"
    " ph->type = k; channel_put(tx, ph);"), DIAMOND_TRACE)


def test_a_diamond_whose_arms_disagree_on_a_live_value_is_not_threaded():
    for level in LEVEL_ORDER:
        result = check(DIAMOND, DIAMOND_TRACE, levels=(level,), packets=24)
        verdicts = [(d.verdict, d.reason.split()[3]) for d in result.decisions
                    if d.pass_name == "thread"]
        # Below PAC nothing threads; from PHR on, threading runs twice.
        assert bool(verdicts) == (level not in ("BASE", "O1", "O2"))
        assert all(v == "not_threaded" and temp.endswith("<k>")
                   for v, temp in verdicts)


def shim_stack(depth: int, n: int) -> bytes:
    """``depth`` 12-byte shim headers, the last one marked."""
    return b"".join(
        bytes([0x10 + k, n & 0xff, k, int(k == depth - 1)])
        + ((n * 7919 + k) & 0xffffffff).to_bytes(4, "big")
        + (n * 31 + k).to_bytes(4, "big")
        for k in range(depth))


SHIM_TRACE = Trace([
    TracePacket(shim_stack(1 + n % 3, n) + bytes(40), n % 3)
    for n in range(30)])


# A loop that pops 12-byte shim headers from the start of the packet:
# after the peeled first trip the head is at 12k, which SOAR knows as
# 0 (mod 4). From SOAR on, the loop's combined load and the store after it
# are word aligned, so they take their words as they are, with no funnel.
SHIM_STACK = program("""
protocol shim { tag : 16; flags : 8; last : 8; value : 32; pad : 32;
                demux { 12 }; }
module m {
  ppf go(shim_pkt *sp) from rx {
    u32 guard = 4;
    u32 acc = 0;
    u32 last = 0;
    while (last == 0 && guard > 0) {
      guard -= 1;
      last = sp->last;
      acc = acc ^ sp->value;
      if (last == 0) {
        sp = packet_decap(sp);
      }
    }
    sp->tag = acc >> 16;
    sp->flags = guard;
    sp->last = 1;
    sp->value = acc;
    channel_put(tx, sp);
  }
}
""", SHIM_TRACE)


def test_shim_stack_loop_is_word_aligned_by_its_head_mod_4_at_every_level():
    for level in LEVEL_ORDER:
        check(SHIM_STACK, SHIM_TRACE, levels=(level,))
    result = compile_baker(SHIM_STACK, options_for("SWC"), SHIM_TRACE,
                           codegen=False)
    placed = [i for i in result.mod.functions["m.go"].all_instrs()
              if isinstance(i, I.PktWords) and i.c_offset_bits is None]
    assert [(type(i).__name__, i.c_modulus, i.c_residue) for i in placed] == [
        ("PktLoadWords", 4, 0), ("PktStoreWords", 4, 0)]


# -- the Baker the applications leave idle ---------------------------------------------

# Items declared inside a module and named as ``m.name``, constants that
# fold through every operator kind (a module const naming an earlier one
# unqualified, as a module global's initializer does), ``sizeof`` of a
# protocol, a struct and a base type, char literals, unary ``~``, and a
# decap out of a packet-dependent demux through unary ``-`` and ``~``:
# (kind & 7) + 4 bytes. (``seen`` is never compared, as ``hits`` above.)
MODULE_ITEMS = program(r"""
protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }
protocol opt { kind : 8; len : 8; val : 16; demux { -(~(kind & 7)) + 3 }; }
protocol inner { x : 16; y : 16; demux { 4 }; }
struct pair { u32 a; u16 b; }
const u32 TOP = (1 << 4) | 3;
module m {
  const u32 MASK = ~0xf0 & 0xff;
  const u32 NEG = -(-5);
  const u32 BOTH = MASK + NEG;
  const bool ON = TOP > 16 && !(MASK == 0) || false;
  const u32 PICK = ON ? 'A' : '\n';
  u32 salt = NEG * 3;
  u32 seen;
  u32 mix(u32 x) { return (x ^ m.MASK) + BOTH; }
  ppf go(ether_pkt *ph) from rx {
    u32 k = sizeof(ether) + sizeof(pair) + sizeof(u16);
    m.seen = m.seen + 1;
    opt_pkt *op = packet_decap(ph);
    u32 v = m.mix(op->val + op->len) ^ ~k ^ m.PICK ^ m.salt;
    u32 kind = op->kind;
    inner_pkt *in = packet_decap(op);
    in->x = v & 0xffff;
    in->y = ((kind << 8) | '\t') + ((kind > 3) + (kind > 9));
    channel_put(tx, in);
  }
}
""", DEMUX_TRACE)


def test_module_items_constants_and_sizeof_at_every_level():
    for level in LEVEL_ORDER:
        check(MODULE_ITEMS, DEMUX_TRACE, levels=(level,), packets=20)
    consts = compile_baker(MODULE_ITEMS, options_for("BASE"), DEMUX_TRACE,
                           codegen=False).checked.consts
    assert {name: c.value for name, c in consts.items()} == {
        "TOP": 19, "m.MASK": 0x0F, "m.NEG": 5, "m.BOTH": 20, "m.ON": 1,
        "m.PICK": ord("A")}


# Everyday C the applications never write: a local declared without a
# value, an integer condition, a call whose value is dropped, ``return;``
# from a void function, handles compared and chosen by a ternary, ``for``
# with no condition or with an assignment for its start, a trailing comma
# in an initializer, two channels in one declaration feeding one PPF, a
# struct array (20-byte elements) indexed at run time, down to a field
# array, and a local one whose type is named without ``struct``.
SPLIT_JOIN = program(ETHER_IPV4_PROTOCOLS + """
struct rec { u32 hits; u16 tag; u8 bytes[3]; }
struct rec recs[4];
u32 table[4] = { 1, 2, 3, 4, };
module m {
  channel left, right;
  void note(u32 i) {
    if (i > 2) { return; }
    recs[i].tag = i + 1;
  }
  u32 pick(u32 x) { return x & 3; }
  ppf split(ether_pkt *ph) from rx {
    u32 n;
    n = ph->src & 1;
    if (n) { channel_put(left, ph); } else { channel_put(right, ph); }
  }
  ppf join(ether_pkt *ph) from left, right {
    u32 i = ph->dst & 3;
    u32 acc = 0;
    rec mine[2];
    mine[i & 1].hits = i << 3;
    pick(i);
    note(i);
    ether_pkt *same = i == 0 ? ph : ph;
    for (;;) { acc = acc + 1; if (acc > i) { break; } }
    for (acc = acc; acc < 5; acc++) { }
    if (same == ph) {
      ph->type = table[i] + recs[i].tag + recs[i].bytes[i & 1] + acc
                 + mine[i & 1].hits;
    }
    channel_put(tx, ph);
  }
}
""")


def test_everyday_c_at_every_level():
    for level in LEVEL_ORDER:
        check(SPLIT_JOIN, levels=(level,))


# -- shapes checked outside the corpus --------------------------------------------------
# (``check`` only: a ``program`` would join ``CORPUS`` and its digest.)


L4_WIDE = ("protocol l4 { sport : 16; dport : 16; seq : 32; both : 64;"
           " ack : 32; demux { 20 }; }\n")


def test_generic_field_stores_of_32_and_64_bits_and_a_long_combined_run():
    # Behind ipv4's dynamic ihl every l4 store is generic: a 32- and a
    # 64-bit field store below PAC, one 20-byte masked write from PAC on.
    src = ETHER_IPV4_PROTOCOLS + L4_WIDE + (
        "module m { ppf go(ether_pkt *ph) from rx {"
        " ipv4_pkt *ip = packet_decap(ph); u32 s = ip->src; u32 d = ip->dst;"
        " u32 n = ip->ident; l4_pkt *t = packet_decap(ip);"
        " t->sport = n; t->dport = n ^ 0xffff; t->seq = s;"
        " t->both = ((u64) d << 32) | n; t->ack = s ^ d;"
        " channel_put(tx, t); } }")
    check(src, levels=LEVEL_ORDER)
    result = compile_baker(src, options_for("PAC"), default_trace())
    assert result.pac_result.combined_stores == 5
    wide = [i for fn in result.mod.functions.values()
            for i in fn.all_instrs() if isinstance(i, I.PktStoreWords)]
    assert [(w.nwords, w.byte_masks) for w in wide] == [(5, [0b1111] * 5)]


# -- the corpus's listings ------------------------------------------------------------

#: sha256 (first 16 hex digits) over every image of every ``CORPUS``
#: program at every level, in ``LEVEL_ORDER``, in the format of
#: ``tests/test_codegen.py``'s sweep digest. A change to what the code
#: generator emits for any packet-access shape restates it, and says so.
_SHAPE_LISTING_DIGEST = "3294e3384ffd238f"


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
