"""End-to-end coverage of individual Baker language features: each small
program runs through the complete pipeline (profile, optimize, codegen)
and must match the functional reference on the simulated chip at both
BASE and the full optimization level."""

import pytest

from repro.baker import types as T
from repro.cg import pktlower
from repro.cg.isa import Mem
from repro.compiler import compile_baker
from repro.ir import instructions as I
from repro.options import options_for
from repro.profiler.trace import (
    Trace, TracePacket, build_ethernet, build_ipv4, build_udp, ipv4_trace,
)
from repro.rts.system import verify_against_reference
from tests.samples import ETHER_IPV4_PROTOCOLS

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


def check(src: str, trace=None, levels=("BASE", "SWC"), packets=30):
    trace = trace or ipv4_trace(60, [0xC0A80101, 0xC0A80202], MACS, seed=21)
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


def test_for_loop_checksum_over_header():
    check(ppf(
        "u32 acc = 0;"
        "for (u32 i = 0; i < 7; i++) { acc = acc + (u32) (ph->dst >> (i * 4)); }"
        "ph->type = acc & 0xffff; channel_put(tx, ph);"
    ))


def test_do_while_loop():
    check(ppf(
        "u32 n = ph->type & 7; u32 acc = 1;"
        "do { acc = acc * 3; n = n - 1; } while (n != 0 && n < 8);"
        "ph->type = acc & 0xffff; channel_put(tx, ph);"
    ))


def test_nested_if_ladder():
    check(ppf(
        "u32 t = ph->type; u32 c = 0;"
        "if (t == 0x800) { if ((ph->dst & 1) == 1) { c = 1; } else { c = 2; } }"
        "else { if (t < 0x600) { c = 3; } else { c = 4; } }"
        "ph->type = c; channel_put(tx, ph);"
    ))


def test_break_continue_in_loop():
    check(ppf(
        "u32 acc = 0;"
        "for (u32 i = 0; i < 16; i++) {"
        "  if ((i & 1) == 1) { continue; }"
        "  if (i > 10) { break; }"
        "  acc = acc + i;"
        "}"
        "ph->type = acc; channel_put(tx, ph);"
    ))


def test_ternary_expression():
    check(ppf(
        "u32 t = ph->type;"
        "u32 v = t == 0x800 ? (t >> 4) : (t << 2);"
        "ph->type = v & 0xffff; channel_put(tx, ph);"
    ))


# -- data features ------------------------------------------------------------------


def test_local_array_on_stack():
    check(ppf(
        "u32 hist[8];"
        "for (u32 i = 0; i < 8; i++) { hist[i] = 0; }"
        "hist[ph->type & 7] = 42;"
        "hist[(ph->type + 1) & 7] += 5;"
        "u32 acc = 0;"
        "for (u32 i = 0; i < 8; i++) { acc = acc + hist[i]; }"
        "ph->type = acc; channel_put(tx, ph);"
    ))


def test_struct_global_member_access():
    check(ppf(
        "stats[ph->meta.rx_port].seen = stats[ph->meta.rx_port].seen + 1;"
        "ph->type = stats[0].tag & 0xffff;"
        "channel_put(tx, ph);",
        extra="struct stat { u32 seen; u32 tag; }\nstruct stat stats[4];",
    ))


def test_bool_global_loads_and_reads_back():
    """A ``bool`` global is placed like any scalar (one word, as is a
    packet handle) and its initial value reaches the ME: the reference
    flips the type field only because ``on`` reads back true."""
    assert T.BOOL.size_bytes() == 4
    assert T.PacketType("ether").size_bytes() == 4
    check(ppf(
        "if (on) { ph->type = ph->type ^ 1; }"
        "channel_put(tx, ph);",
        extra="bool on = true;",
    ))


def test_u64_local_across_branches():
    check(ppf(
        "u64 mac = ph->dst;"
        "u64 other = ph->src;"
        "if ((mac & 1) == 1) { mac = mac ^ other; }"
        "ph->dst = mac;"
        "channel_put(tx, ph);"
    ))


def test_u64_value_survives_call_frame():
    # At BASE the helper calls clobber registers: the u64 must be homed.
    check(
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


def test_signed_arithmetic_end_to_end():
    check(ppf(
        "int delta = (int) ph->type - 0x900;"
        "if (delta < 0) { delta = -delta; }"
        "ph->type = (u32) delta & 0xffff;"
        "channel_put(tx, ph);"
    ))


# -- packet primitives -----------------------------------------------------------------


def test_extend_shorten_roundtrip():
    check(ppf(
        "packet_shorten(ph, 6);"
        "packet_extend(ph, 6);"
        "channel_put(tx, ph);"
    ))


def test_packet_copy_on_fast_path():
    # Both the copy and the original leave the box: the copy gets a
    # marked ethertype so the outputs differ deterministically.
    check(ppf(
        "ether_pkt *dup = packet_copy(ph);"
        "dup->type = 0xbeef;"
        "channel_put(tx, dup);"
        "channel_put(tx, ph);"
    ))


def test_packet_create_on_fast_path():
    check(ppf(
        "ether_pkt *fresh = packet_create(ether, 50);"
        "fresh->dst = ph->src;"
        "fresh->src = ph->dst;"
        "fresh->type = 0x0801;"
        "channel_put(tx, fresh);"
        "packet_drop(ph);"
    ))


def test_cross_module_channels():
    src = (
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
    check(src)


def test_metadata_across_ppfs():
    src = (
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
    check(src)


def test_demux_with_arithmetic_and_multiple_fields():
    src = """
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
    inner_pkt_probe(wp, x);
    channel_put(tx, wp);
  }
}
""".replace("inner_pkt_probe(wp, x);", "wp->rest = (x * 3) & 0xffff;")
    frames = [
        TracePacket(build_ethernet(1, 2, 0x1234,
                                   bytes([a, b]) + bytes(40)), i % 3)
        for i, (a, b) in enumerate([(9, 0x20), (15, 0x40), (3, 0x10)])
    ]
    check(src, trace=Trace(frames * 10), packets=20)


def test_sub_byte_field_stores():
    check(
        ETHER_IPV4_PROTOCOLS
        + """
module m {
  ppf go(ether_pkt *ph) from rx {
    ipv4_pkt *iph = packet_decap(ph);
    iph->tos = (iph->tos + 1) & 0xff;
    iph->flags_frag = 0x4000;
    channel_put(tx, iph);
  }
}
"""
    )


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


def test_moved_head_reaches_xscale_consumer():
    src = ETHER_IPV4_PROTOCOLS + L4 + """
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
"""
    result = check_state(src, options_trace(rare_every=24), packets=48)
    assert [a.ppfs for a in result.plan.xscale_aggregates] == [["m.slow"]]


def test_packet_copy_sees_moved_head():
    check_state(ETHER_IPV4_PROTOCOLS + L4 + """
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
""", options_trace())


def test_callee_sees_and_moves_the_head():
    # `probe` is too large to inline with two callers: it gets the handle
    # after a head move, reads relative to the head and moves it again.
    churn = "x = (x * 31 + (x >> 3)) ^ 0x5a5a;" * 24
    src = ETHER_IPV4_PROTOCOLS + """
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
""" % churn
    result = check_state(src, options_trace())
    calls = [i for i in result.mod.functions["m.go"].all_instrs()
             if isinstance(i, I.Call)]
    assert [c.func for c in calls] == ["probe", "probe"]


@pytest.mark.parametrize("params,args", [
    ("ether_pkt *a, ipv4_pkt *b", "a, b"),
    ("ipv4_pkt *b, ether_pkt *a", "b, a"),
])
def test_call_sees_the_head_of_every_packet_argument(params, args):
    # `b` is a copy whose decap PHR elides; `a` is untouched. Whichever
    # position `b` is passed in, its head must be in SRAM before the call.
    src = ETHER_IPV4_PROTOCOLS + """
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
           churn="x = (x * 31 + (x >> 3)) ^ 0x5a5a;" * 24)
    result = check(src, levels=STATE_LEVELS)
    calls = [i for i in result.mod.functions["m.go"].all_instrs()
             if isinstance(i, I.Call)]
    assert [c.func for c in calls] == ["big", "big"]
    assert result.phr_result.syncs_inserted == 2  # one in front of each call


def test_add_and_remove_tail():
    check_state(ppf(
        "packet_add_tail(ph, 8);"
        "packet_remove_tail(ph, 4);"
        "ph->type = packet_length(ph);"
        "channel_put(tx, ph);"
    ), options_trace())


def test_drop_after_head_move_stores_nothing():
    src = ETHER_IPV4_PROTOCOLS + L4 + """
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
"""
    result = check_state(src, options_trace())
    (image,) = result.images.values()
    stores = [i for i in image.insns if isinstance(i, Mem)
              and (i.space, i.rw, i.category) == ("sram", "write", "pkt")]
    assert len(stores) == 1  # the Tx path's; the drop path has none


def test_handle_joining_packet_and_its_copy_gets_no_shared_state():
    # `x` is the parameter on one path and its copy on the other: buf and
    # head of "the class" would be right for only one of them.
    check(ppf(
        "ether_pkt *x = ph;"
        "if ((ph->dst & 1) == 1) { x = packet_copy(ph); packet_drop(ph); }"
        "packet_shorten(x, 2);"
        "x->type = 0x1234;"
        "channel_put(tx, x);"
    ), levels=("BASE", "SOAR", "SWC"))
