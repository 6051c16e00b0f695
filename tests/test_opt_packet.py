"""Tests for the packet-specialized optimizations: SOAR, PAC, PHR, SWC.

Transformation tests assert the expected IR shape; every scenario also
differentially checks semantics against the unoptimized reference
interpretation.
"""


import pytest

from repro.baker import types as T
from repro.baker.symbols import GlobalSymbol, SymbolKind
from repro.ir import instructions as I
from repro.ir.module import IRFunction
from repro.ir.values import Const, Temp
from repro.ir.verifier import verify_module
from repro.obs import ledger as obs_ledger
from repro.opt import pac, phr, soar, swc
from repro.profiler.stats import ProfileData
from repro.opt.pipeline import scalar_optimize_function
from repro.profiler.interpreter import Interpreter, run_reference
from repro.profiler.trace import (
    Trace, TracePacket, build_ethernet, build_mpls_label, ipv4_trace,
)
from tests.ir_helpers import lower
from repro.cg.melayout import SWC_REGION_WORDS
from tests.samples import (
    ETHER_IPV4_PROTOCOLS, MINI_FORWARDER, PASSTHROUGH, mpls_trace,
)

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


def count_ops(fn, cls):
    return sum(1 for i in fn.all_instrs() if isinstance(i, cls))


def reference_and_optimized(src, trace, optimize):
    """Run reference semantics and the optimized module on one trace."""
    ref = run_reference(lower(src), trace)
    mod = lower(src)
    optimize(mod)
    verify_module(mod)
    got = run_reference(mod, trace)
    assert got.tx_signature() == ref.tx_signature()
    return ref, got, mod


# -- SOAR ------------------------------------------------------------------------


def test_soar_rx_packets_fully_resolved():
    mod = lower(PASSTHROUGH)
    result = soar.run(mod)
    assert result.channel_values["rx"] == (0, 8, 0)
    assert result.resolution_rate == 1.0


def test_soar_decap_offsets():
    mod = lower(MINI_FORWARDER)
    result = soar.run(mod)
    # l3_forward_cc carries packets decapped past the 14 B Ethernet header.
    off, modulus, residue = result.channel_values["l3_switch.l3_forward_cc"]
    assert (off, modulus, residue) == (14, 8, 6)
    fwdr = mod.functions["l3_switch.l3_fwdr"]
    loads = [i for i in fwdr.all_instrs() if isinstance(i, I.PktLoadField)]
    assert loads and all(l.c_offset_bits == 14 * 8 for l in loads)
    assert all((l.c_modulus, l.c_residue) == (8, 6) for l in loads)


def test_soar_encap_restores_offset():
    mod = lower(MINI_FORWARDER)
    soar.run(mod)
    fwdr = mod.functions["l3_switch.l3_fwdr"]
    stores = [i for i in fwdr.all_instrs()
              if isinstance(i, I.PktStoreField) and i.proto == "ether"]
    assert stores and all(s.c_offset_bits == 0 for s in stores)
    assert all((s.c_modulus, s.c_residue) == (8, 0) for s in stores)


def test_soar_mpls_loop_unresolved():
    src = r"""
protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }
protocol mpls { label : 20; tc : 3; bos : 1; ttl : 8; demux { 4 }; }
module m {
  ppf p(ether_pkt *ph) from rx {
    mpls_pkt *mph = packet_decap(ph);
    u32 guard = 8;
    while (mph->bos == 0 && guard > 0) {
      mpls_pkt *inner = packet_decap(mph);
      mph = inner;
      guard -= 1;
    }
    u32 l = mph->label;
    channel_put(tx, mph);
  }
}
"""
    mod = lower(src)
    result = soar.run(mod)
    fn = mod.functions["m.p"]
    label_loads = [i for i in fn.all_instrs()
                   if isinstance(i, I.PktLoadField) and i.field == "label"]
    # The load after the loop join cannot have a static offset...
    post_loop = [l for l in label_loads if l.c_offset_bits is None]
    assert post_loop
    # ...but its head is still known mod 4 (every MPLS pop is 4 B):
    # 14, 18, 22, ... are all 2 (mod 4).
    assert all((l.c_modulus, l.c_residue) == (4, 2) for l in post_loop)
    assert result.resolution_rate < 1.0


def test_soar_congruence_meet_and_shift():
    # Offsets that differ keep what both satisfy: 2 and 6 (mod 8) are
    # both 2 (mod 4); 14 and 18 are both 2 (mod 4), and 1 and 2 nothing.
    assert soar._meet_value((None, 8, 2), (None, 8, 6)) == (None, 4, 2)
    assert soar._meet_value(soar._at(14), soar._at(18)) == (None, 4, 2)
    assert soar._meet_value(soar._at(14), soar._at(22)) == (None, 8, 6)
    assert soar._meet_value(soar._at(1), soar._at(2)) == soar.BOTTOM
    assert soar._meet_value(soar._at(14), soar._at(14)) == (14, 8, 6)
    # A constant move shifts the residue; an unknown one forgets it all.
    assert soar._shift_value((None, 4, 2), 4) == (None, 4, 2)
    assert soar._shift_value((None, 4, 2), -14) == (None, 4, 0)
    assert soar._shift_value(soar._at(14), -14) == (0, 8, 0)
    assert soar._shift_value((None, 8, 6), None) == soar.BOTTOM


def test_soar_ledger_records_each_access_congruence():
    from repro.obs.ledger import collecting

    decisions = []
    with collecting(decisions):
        soar.run(lower(MINI_FORWARDER))
    accesses = [d.evidence for d in decisions
                if d.verdict == "resolved" and "offset_bits" in d.evidence]
    assert accesses and all(
        (ev["modulus"], ev["residue"]) == (8, ev["offset_bits"] // 8 % 8)
        for ev in accesses)


def test_soar_dynamic_demux_is_bottom():
    # Decapping ipv4 (demux = ihl << 2) cannot be resolved statically.
    src = (
        ETHER_IPV4_PROTOCOLS
        + """
protocol udp { sport : 16; dport : 16; len : 16; csum : 16; demux { 8 }; }
module m {
  ppf p(ether_pkt *ph) from rx {
    ipv4_pkt *iph = packet_decap(ph);
    udp_pkt *uph = packet_decap(iph);
    u32 d = uph->dport;
    channel_put(tx, uph);
  }
}
"""
    )
    mod = lower(src)
    soar.run(mod)
    fn = mod.functions["m.p"]
    dport_load = next(i for i in fn.all_instrs()
                      if isinstance(i, I.PktLoadField) and i.field == "dport")
    assert dport_load.c_offset_bits is None
    assert dport_load.c_modulus == 1  # not even known mod 4 (ihl << 2)
    # The header size is an operand computed by ordinary IR in front of the
    # decap, and the load feeding it sits at a resolved offset.
    instrs = list(fn.all_instrs())
    decap = next(i for i in instrs
                 if isinstance(i, I.PktDecap) and i.src_proto == "ipv4")
    assert decap.header_bytes is None
    shift = next(i for i in instrs if decap.delta in i.defs())
    assert isinstance(shift, I.BinOp) and shift.op == "shl" and shift.b.value == 2
    ihl_load = next(i for i in instrs if shift.a in i.defs())
    assert (ihl_load.field, ihl_load.c_offset_bits) == ("ihl", 14 * 8)
    assert instrs.index(ihl_load) < instrs.index(shift) < instrs.index(decap)


def test_soar_packet_create_seeded():
    src = (
        ETHER_IPV4_PROTOCOLS
        + """
module m {
  ppf p(ether_pkt *ph) from rx {
    ether_pkt *fresh = packet_create(ether, 50);
    fresh->type = 0x0800;
    packet_drop(ph);
    channel_put(tx, fresh);
  }
}
"""
    )
    mod = lower(src)
    soar.run(mod)
    fn = mod.functions["m.p"]
    store = next(i for i in fn.all_instrs() if isinstance(i, I.PktStoreField))
    assert store.c_offset_bits == 0
    assert (store.c_modulus, store.c_residue) == (8, 0)


# -- PAC -----------------------------------------------------------------------------


def _pac_src(body):
    return (
        ETHER_IPV4_PROTOCOLS
        + "metadata { u32 acc; } module m { ppf p(ether_pkt *ph) from rx { %s } }" % body
    )


def test_pac_combines_adjacent_loads():
    src = _pac_src(
        "u64 d = ph->dst; u32 t = ph->type; "
        "ph->meta.acc = (u32) d + t; channel_put(tx, ph);"
    )
    trace = ipv4_trace(8, [0xC0A80101], MACS)

    def optimize(mod):
        result = pac.run(mod)
        assert result.wide_loads == 1
        assert result.combined_loads == 2

    _, got, mod = reference_and_optimized(src, trace, optimize)
    fn = mod.functions["m.p"]
    assert count_ops(fn, I.PktLoadField) == 0
    wide = next(i for i in fn.all_instrs() if isinstance(i, I.PktLoadWords))
    assert wide.byte_off == 0 and wide.nwords == 4  # bytes 0..13 -> 4 words


def test_pac_respects_overlapping_store():
    src = _pac_src(
        "u32 a = ph->type; ph->type = 7; u32 b = ph->type; "
        "ph->meta.acc = a + b; channel_put(tx, ph);"
    )
    mod = lower(src)
    result = pac.run(mod)
    fn = mod.functions["m.p"]
    # The two type loads must not merge across the store.
    assert all(
        not isinstance(i, I.PktLoadWords) or i.nwords == 1
        for i in fn.all_instrs()
    )
    run_reference(mod, ipv4_trace(4, [1], MACS))  # still executes correctly


def test_pac_does_not_combine_across_decap():
    src = _pac_src(
        "u32 t = ph->type; ipv4_pkt *iph = packet_decap(ph); "
        "u32 v = iph->ttl; iph->meta.acc = t + v; channel_put(tx, iph);"
    )
    mod = lower(src)
    result = pac.run(mod)
    assert result.wide_loads == 0


def test_pac_combines_stores():
    src = _pac_src(
        "ph->dst = 0x0a0000000099; ph->src = 0x0a0000000042; ph->type = 0x0800; "
        "channel_put(tx, ph);"
    )
    trace = ipv4_trace(6, [0xC0A80101], MACS)

    def optimize(mod):
        result = pac.run(mod)
        assert result.wide_stores == 1
        assert result.combined_stores == 3

    _, got, mod = reference_and_optimized(src, trace, optimize)
    fn = mod.functions["m.p"]
    assert count_ops(fn, I.PktStoreField) == 0
    wide = next(i for i in fn.all_instrs() if isinstance(i, I.PktStoreWords))
    assert wide.nwords == 4
    assert wide.byte_masks == [0b1111, 0b1111, 0b1111, 0b1100]


def test_pac_combines_the_stores_of_each_packet_in_one_block():
    # Stores to two packets interleave; each packet's run combines.
    from repro.compiler import compile_baker
    from repro.options import LEVEL_ORDER, options_for
    from repro.rts.system import verify_against_reference

    src = _pac_src(
        "ether_pkt *c = packet_copy(ph); "
        "ph->type = 1; c->type = 2; ph->src = 3; c->src = 4; "
        "channel_put(tx, ph); channel_put(tx, c);"
    )
    trace = ipv4_trace(8, [0xC0A80101], MACS)

    def optimize(mod):
        result = pac.run(mod)
        assert result.wide_stores == 2
        assert result.combined_stores == 4

    _, _, mod = reference_and_optimized(src, trace, optimize)
    assert count_ops(mod.functions["m.p"], I.PktStoreField) == 0
    for level in LEVEL_ORDER:
        result = compile_baker(src, options_for(level), trace)
        if level == "PAC":
            assert result.pac_result.combined_stores == 4
        assert verify_against_reference(result, trace, packets=8), level


def test_pac_store_combine_blocked_by_load():
    src = _pac_src(
        "ph->dst = 0x0a0000000099; u64 d = ph->dst; ph->src = d; "
        "channel_put(tx, ph);"
    )
    trace = ipv4_trace(4, [0xC0A80101], MACS)

    def optimize(mod):
        result = pac.run(mod)
        assert result.wide_stores == 0

    reference_and_optimized(src, trace, optimize)


def test_pac_cross_block_load_combining():
    src = _pac_src(
        "u64 d = ph->dst; "
        "if (d == 0x0a0000000001) { u32 t = ph->type; ph->meta.acc = t; } "
        "channel_put(tx, ph);"
    )
    trace = ipv4_trace(8, [0xC0A80101], MACS)

    def optimize(mod):
        result = pac.run(mod)
        assert result.wide_loads == 1  # type load absorbed into dst load

    reference_and_optimized(src, trace, optimize)


def test_pac_store_between_loads_of_one_block_kills_only_what_it_overlaps():
    # The store bumps the packet's epoch, but inside one block the rule
    # asks only whether it overlaps the follower's bits: it does not.
    src = _pac_src(
        "u32 t = ph->type; ph->src = 0x0a0000000042; u64 d = ph->dst; "
        "ph->meta.acc = (u32) d + t; channel_put(tx, ph);"
    )
    trace = ipv4_trace(8, [0xC0A80101], MACS)

    def optimize(mod):
        result = pac.run(mod)
        assert result.combined_loads == 2
        assert result.wide_loads == 1

    reference_and_optimized(src, trace, optimize)


def test_pac_records_a_dominated_load_left_narrow_behind_a_decap():
    src = _pac_src(
        "u32 t = ph->type;\n"
        "ipv4_pkt *iph = packet_decap(ph);\n"
        "if (t == 0x0800) { u32 v = iph->ttl; iph->meta.acc = v; }\n"
        "channel_put(tx, iph);"
    )
    lines = src.splitlines()

    def line_of(text):
        return "<baker>:%d" % next(n for n, line in enumerate(lines, 1)
                                   if text in line)

    mod = lower(src)
    with obs_ledger.collecting([]) as decisions:
        result = pac.run(mod)
    assert result.wide_loads == 0
    [refused] = [d for d in decisions if d.verdict == "not_combined"]
    assert (refused.pass_name, refused.subject, refused.reason) == ("pac", "m.p", "epoch")
    assert refused.loc == line_of("iph->ttl")
    assert refused.evidence == {"leader": line_of("ph->type")}


def test_pac_store_refuses_only_the_cross_block_loads_it_overlaps():
    # The ttl store lies between the label read and both followers: bos
    # (another byte of the word) still combines, the ttl re-read does not.
    src = _WALK_ONCE % (
        "u32 label = mph->label; mph->ttl = 7;\n"
        "if (label != 0) { u32 b = mph->bos; mph->meta.acc = b; }\n"
        "if (label == 0x111) { u32 t = mph->ttl; mph->meta.acc = t; }\n")
    lines = src.splitlines()
    mod = lower(src)
    with obs_ledger.collecting([]) as decisions:
        result = pac.run(mod)
    verify_module(mod)
    assert (result.wide_loads, result.combined_loads) == (1, 2)
    [refused] = [d for d in decisions if d.verdict == "not_combined"]
    assert refused.reason == "store"
    assert "mph->ttl; mph->meta" in lines[int(refused.loc.split(":")[1]) - 1]
    trace = _walk_trace()
    assert (run_reference(mod, trace).tx_signature()
            == run_reference(lower(src), trace).tx_signature())


def _synced_src_read(mutation=None):
    """The ether type at entry; behind a +6 head sync in a dominated block,
    the source MAC copied over the destination, both addressed from the
    moved head (the same bytes as before), and the sync undone before the
    put. Returns the PAC result and whether the module still behaves as
    it did before PAC."""
    src = _pac_src(
        "u32 t = ph->type; "
        "if (t == 0x0800) { u64 s = ph->src; ph->dst = s; } "
        "channel_put(tx, ph);")
    mod = lower(src)
    fn = mod.functions["m.p"]
    then_bb = next(bb for bb in fn.blocks
                   if any(isinstance(i, I.PktLoadField) and i.field == "src"
                          for i in bb.instrs))
    accesses = [i for i in then_bb.instrs if isinstance(i, I.PktAccess)]
    for access in accesses:
        access.rebase(-6)
    ph = accesses[0].ph
    then_bb.instrs = ([I.PktSyncHead(ph, 6)] + then_bb.instrs
                      + [I.PktSyncHead(ph, -6)])
    trace = ipv4_trace(8, [0xC0A80101], MACS)
    before = run_reference(mod, trace).tx_signature()
    result = _run_pac(mod, mutation)
    verify_module(mod)
    return result, run_reference(mod, trace).tx_signature() == before


def test_pac_combines_across_a_constant_head_sync():
    result, same = _synced_src_read()
    assert same and (result.wide_loads, result.combined_loads) == (1, 2)
    # A follower extracted at its own offset reads the destination MAC.
    broken, broken_same = _synced_src_read("offset_dropped")
    assert broken.combined_loads == 2 and not broken_same


def test_pac_store_never_waits_past_a_read_of_its_bytes():
    # The ttl store, a read of the ttl, then the label word's stores, in
    # one block: the read keeps the ttl store where it is, and the three
    # after it merge into one masked store. The mutant that lets the ttl
    # store wait anyway merges all four, and the tc field reads the old ttl.
    src = _WALK_ONCE % ("mph->ttl = 9; u32 t = mph->ttl;\n"
                        "mph->label = 0x222; mph->tc = t; mph->bos = 1;\n")

    def merged(mutation=None):
        mod = lower(src)
        with obs_ledger.collecting([]) as decisions:
            _run_pac(mod, mutation)
        verify_module(mod)
        trace = _walk_trace()
        same = (run_reference(mod, trace).tx_signature()
                == run_reference(lower(src), trace).tx_signature())
        [record] = [d for d in decisions if d.verdict == "combined_stores"]
        return record.evidence["members"], same

    assert merged() == (3, True)
    assert merged("sink_unforwarded") == (4, False)


def test_mpls_reads_and_writes_the_header_of_a_first_trip_once():
    """MPLS's peeled first trip. Threaded, the swap and push arms no
    longer rejoin the pop's bottom-of-stack test, so that read joins the
    header read; and a finished trip's path to the put is copied into
    its arm, so the label rewrite and the Ethernet rewrite are one
    masked store. The only other packet read is the loop body's label
    word."""
    from repro.apps import get_app
    from repro.compiler import compile_baker
    from repro.options import options_for

    app = get_app("mpls")
    result = compile_baker(app.source, options_for("SWC"),
                           app.make_trace(200, seed=5), codegen=False)
    fn = result.mod.functions["mpls_fwd.clsfr"]
    assert count_ops(fn, I.PktLoadField) == 0
    assert count_ops(fn, I.PktLoadWords) == 2
    lines = app.source.splitlines()

    def line_of(text):
        return str(next(n for n, line in enumerate(lines, 1) if text in line))

    def groups(verdict):
        return [d.evidence["lines"].split(",") for d in result.decisions
                if d.subject == "mpls_fwd.clsfr" and d.verdict == verdict
                and "anchor" not in d.evidence]

    assert any(line_of("if (mph->bos == 1)") in g for g in groups("combined_loads"))
    swap, eth = line_of("mph->ttl = ttl - 1;"), line_of("eph->type =")
    assert any(swap in g and eth in g for g in groups("combined_stores"))


def test_mpls_loop_trip_writes_its_label_and_ethernet_header_at_once():
    """A swap or push on a later trip of MPLS's label loop, where SOAR
    knows the head only as 2 (mod 4): jump threading takes the trip
    through the loop-exit test ``failed || guard == 0 && !done``, whose
    arms agree once ``done`` is known, to the escape; PAC merges the
    label rewrite with the Ethernet rewrite into one masked store; and
    the code generator writes each run of it (the 18 B label and
    Ethernet header; the inner label's TTL byte) in one DRAM write."""
    from repro.apps import get_app
    from repro.cg.isa import Mem
    from repro.compiler import compile_baker
    from repro.options import options_for
    from repro.rts.system import verify_against_reference

    app = get_app("mpls")
    trace = app.make_trace(200, seed=5)
    result = compile_baker(app.source, options_for("SWC"), trace)
    assert verify_against_reference(result, trace)
    fn = result.mod.functions["mpls_fwd.clsfr"]
    in_loop = [i for i in fn.all_instrs()
               if isinstance(i, I.PktStoreWords) and i.c_offset_bits is None]
    covered = [[4 * w + b for w, mask in enumerate(i.byte_masks)
                for b in range(4) if mask & (8 >> b)] for i in in_loop]
    ether, label = list(range(14)), list(range(14, 18))
    # Swap, push (and the inner label's TTL), the final pop, the fall-through.
    assert sorted(covered) == [ether, ether, ether + label,
                               ether + label + [21]]
    assert {(i.c_modulus, i.c_residue) for i in in_loop} == {(4, 0)}
    runs = sum(1 + sum(b - a > 1 for a, b in zip(c, c[1:])) for c in covered)
    (image,) = result.images.values()
    assert runs == sum(isinstance(x, Mem) and x.space == "dram"
                       and x.rw == "write" and x.mask_reg is not None
                       for x in image.insns) == 5


_WALK_ONCE = r"""
protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }
protocol mpls { label : 20; tc : 3; bos : 1; ttl : 8; demux { 4 }; }
metadata { u32 acc; }
module m {
  ppf p(ether_pkt *ph) from rx {
    mpls_pkt *mph = packet_decap(ph);
    %s
    channel_put(tx, mph);
  }
}
"""


# Anchored epochs: a loop that moves the head gives its header an epoch of
# its own, so one iteration's loads combine -- and nothing else does.

_WALK = r"""
protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }
protocol mpls { label : 20; tc : 3; bos : 1; ttl : 8; demux { 4 }; }
module m {
  ppf p(ether_pkt *ph) from rx {
    mpls_pkt *mph = packet_decap(ph);
    u32 acc = 0;
    u32 guard = 4;
    bool more = true;
    while (more && guard > 0) {
      guard -= 1;
      %s
    }
    mph->label = acc & 0xfffff;
    channel_put(tx, mph);
  }
}
"""


def _walk_trace():
    """Label stacks 1, 2 and 3 deep, labels and TTLs all different."""
    trace = Trace()
    for depth in (1, 2, 3):
        for i in range(4):
            stack = b"".join(
                build_mpls_label(0x111 * (k + 1) + i, tc=(k + i) & 7,
                                 bottom=k == depth - 1, ttl=9 + 16 * k + i)
                for k in range(depth))
            trace.packets.append(TracePacket(
                build_ethernet(MACS[0], i, 0x8847, stack + bytes(20)), 0))
    return trace


def _run_pac(mod, mutation=None):
    assert pac._TEST_MUTATION is None
    pac._TEST_MUTATION = mutation
    try:
        return pac.run(mod)
    finally:
        pac._TEST_MUTATION = None


def _walk_pac(body, mutation=None):
    """PAC over the stack walk with ``body`` as the loop body: (PacResult,
    function, does the module still behave like the reference)."""
    src = _WALK % body
    mod = lower(src)
    result = _run_pac(mod, mutation)
    verify_module(mod)
    same = (run_reference(mod, _walk_trace()).tx_signature()
            == run_reference(lower(src), _walk_trace()).tx_signature())
    return result, mod.functions["m.p"], same


def test_pac_combines_the_loads_of_one_loop_iteration():
    result, fn, same = _walk_pac(
        "u32 label = mph->label; u32 ttl = mph->ttl;"
        "if (ttl > 1) { acc = acc + mph->tc + label; }"
        "if (mph->bos == 1) { more = false; } else { mph = packet_decap(mph); }")
    assert same
    # label and ttl share a block; tc and bos sit in blocks it dominates.
    assert (result.wide_loads, result.combined_loads) == (1, 4)
    assert result.anchored_loads == 4
    assert count_ops(fn, I.PktLoadField) == 0


@pytest.mark.parametrize("body", [
    # a store to the word, then a load of it in a dominated block
    "u32 ttl = mph->ttl; acc = acc + mph->label; mph->ttl = ttl - 1;"
    "if (guard > 1) { acc = acc + mph->ttl; }"
    "if (mph->bos == 1) { more = false; } else { mph = packet_decap(mph); }",
    # the decap on one path into a join, then a load at the join
    "acc = acc + mph->label;"
    "if (mph->bos == 1) { more = false; } else { mph = packet_decap(mph); }"
    "acc = acc + mph->ttl;",
    # a nested loop that moves the head, loads in its header
    "acc = acc + mph->label; u32 k = 2;"
    "while (k > 0 && mph->bos == 0) { mph = packet_decap(mph); k -= 1; }"
    "acc = acc + mph->ttl; if (mph->bos == 1) { more = false; }",
], ids=["store", "decap", "nested-loop"])
def test_pac_anchors_do_not_combine_across(body):
    result, fn, same = _walk_pac(body)
    assert same
    # The same walk with epochs that stop counting head moves and stores
    # combines across them and computes something else: the differential
    # above is what tells the two apart.
    broken, _, broken_same = _walk_pac(body, mutation="anchor_ignores_bump")
    assert broken.combined_loads > result.combined_loads
    assert not broken_same


def test_pac_sub_byte_store_not_combined():
    # tos (bits 8..16 of ipv4) plus ver nibble: ver alone covers half a
    # byte, so a group containing only ver+tos leaves byte 0 partial.
    src = (
        ETHER_IPV4_PROTOCOLS
        + """
module m {
  ppf p(ipv4_pkt *ph) from rx {
    ph->ver = 4;
    ph->tos = 7;
    channel_put(tx, ph);
  }
}
"""
    )
    mod = lower(src)
    result = pac.run(mod)
    assert result.wide_stores == 0


def test_pac_64bit_field_extraction_correct():
    # dst (48 bits spanning words 0-1) must extract exactly.
    src = _pac_src(
        "u64 d = ph->dst; u64 s = ph->src; "
        "ph->meta.acc = (u32)(d ^ s); channel_put(tx, ph);"
    )
    trace = ipv4_trace(10, [0xC0A80101], MACS, seed=11)

    def optimize(mod):
        result = pac.run(mod)
        assert result.wide_loads == 1

    ref, got, _ = reference_and_optimized(src, trace, optimize)
    # Signatures already compared; also verify metadata word carried over.
    ref_meta = sorted(p.meta.get(4, 0) for p in ref.tx)
    got_meta = sorted(p.meta.get(4, 0) for p in got.tx)
    assert ref_meta == got_meta


# Application-table loads: the epoch engine's second client. A load of
# ``tbl[(leaf << s) + k]`` absorbs later loads of the same record in its own
# block and in blocks it dominates, while no store, call, lock operation or
# redefinition of the leaf lies between -- and, across blocks, only when the
# record provably lies inside the table.

_TBL = r"""
protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }
u32 tbl[64] = { %s };
u32 odd[60] = { %s };
u32 poke(u32 k) { tbl[k] = tbl[k] + 5; return k; }
module m {
  ppf p(ether_pkt *ph) from rx {
    u32 i = ph->type & 15;
    if (i > 7) { i = i - 8; }
    u32 out = 0;
    %%s
    ph->type = out & 0xffff;
    channel_put(tx, ph);
  }
}
""" % (", ".join(str(3 * k + 2) for k in range(64)),
       ", ".join(str(5 * k + 1) for k in range(60)))


def _tbl_pac(body, mutation=None):
    """Scalar opts (they fold the copies between an index expression and
    its use), then PAC, over a PPF whose body is ``body``: (PacResult,
    function, ledger decisions, does it still behave like the reference).
    ``i`` has two definitions, so copy propagation leaves it the leaf of
    every index; ether types 0..15 give each of its values 0..7 twice, so
    stores to ``tbl`` show."""
    src = _TBL % body
    trace = Trace([TracePacket(build_ethernet(MACS[0], t, t, bytes(46)), 0)
                   for t in range(16)])
    mod = lower(src)
    for fn in mod.functions.values():
        scalar_optimize_function(fn)
    with obs_ledger.collecting([]) as decisions:
        result = _run_pac(mod, mutation)
    verify_module(mod)
    same = (run_reference(mod, trace).tx_signature()
            == run_reference(lower(src), trace).tx_signature())
    return result, mod.functions["m.p"], decisions, same


def _global_groups(decisions):
    return [d.evidence for d in decisions if d.verdict == "combined_global_loads"]


def test_pac_combines_table_loads_of_one_block():
    result, fn, decisions, same = _tbl_pac(
        "out = tbl[i + 1] + tbl[i + 3] + odd[i + 2] + odd[i];")
    assert same
    assert (result.wide_global_loads, result.combined_global_loads) == (2, 4)
    assert count_ops(fn, I.LoadG) == 0
    assert sorted(w.nwords for w in fn.all_instrs()
                  if isinstance(w, I.LoadGWords)) == [3, 3]
    # Same-block members execute whenever the leader does: no record
    # structure, no bounds proof, nothing speculative.
    assert [(e["blocks"], e["speculative"]) for e in _global_groups(decisions)] \
        == [(1, 0), (1, 0)]


def test_pac_table_load_absorbs_a_dominated_follower():
    result, fn, decisions, same = _tbl_pac(
        "u32 a = tbl[(i << 3) + 1]; out = a;"
        "if (a > 20) { out = out + tbl[(i << 3) + 6] + tbl[i << 3]; }")
    assert same
    assert (result.wide_global_loads, result.combined_global_loads) == (1, 3)
    assert count_ops(fn, I.LoadG) == 0
    (wide,) = [w for w in fn.all_instrs() if isinstance(w, I.LoadGWords)]
    assert wide.nwords == 7  # words 0..6 of the 8-word record
    (evidence,) = _global_groups(decisions)
    assert (evidence["blocks"], evidence["speculative"]) == (2, 2)
    # The join below the harness's redefinition of ``i`` restarts the count.
    assert evidence["anchor"].startswith("join")


def test_pac_combines_the_loads_of_one_record_per_scan_iteration():
    result, fn, decisions, same = _tbl_pac(
        "for (u32 r = 0; r < 6; r++) { u32 row = r << 3;"
        "  if (tbl[row + 2] > i * 40) {"
        "    if (tbl[row + 5] != i) { out = out + tbl[row] + r; } } }")
    assert same
    # The step ``r = r + 1`` on the back edge makes the loop header the
    # anchor: one iteration's loads share an epoch, two iterations' do not.
    assert (result.wide_global_loads, result.combined_global_loads) == (1, 3)
    assert count_ops(fn, I.LoadG) == 0
    (evidence,) = _global_groups(decisions)
    assert "for_head" in evidence["anchor"]
    assert (evidence["nwords"], evidence["blocks"]) == (6, 3)


@pytest.mark.parametrize("body,reason", [
    # the index temp was computed before the leaf was redefined
    ("u32 j = (i << 3) + 1; i = i ^ 1; u32 a = tbl[j];"
     "out = a; if (a != 0) { out = out + tbl[(i << 3) + 2]; }", "stale chain"),
    # the leaf redefined on one arm into the join that holds the follower
    ("u32 a = tbl[(i << 3) + 1]; if (a > 40) { i = i ^ 1; }"
     "out = a + tbl[(i << 3) + 2];", "epoch"),
    # a store between the leader and a follower in a dominated block
    ("u32 a = tbl[(i << 3) + 1]; out = a; tbl[(i << 3) + 2] = a + 7;"
     "if (a != 0) { out = out + tbl[(i << 3) + 2]; }", "epoch"),
    # the follower inside a critical section that updates the record
    ("u32 a = tbl[(i << 3) + 1]; out = a;"
     "if (a != 0) { critical (tbl_lock) { tbl[(i << 3) + 3] = out + 9;"
     "  out = out + tbl[(i << 3) + 3]; } }", "epoch"),
    # a call that writes the table between the two
    ("u32 a = tbl[(i << 3) + 1]; out = a; u32 k = poke((i << 3) + 2);"
     "if (a != 0) { out = out + tbl[(i << 3) + 2] + k; }", "epoch"),
], ids=["stale-chain", "leaf-on-one-arm", "store", "critical", "call"])
def test_pac_table_loads_do_not_combine_across(body, reason):
    result, fn, decisions, same = _tbl_pac(body)
    assert same
    assert result.combined_global_loads == 0
    assert [d.reason for d in decisions if d.verdict == "not_combined"] == [reason]
    # Epochs that count nothing combine each pair and read the wrong word
    # or the old value: the differential is what tells the two apart.
    broken, _, _, broken_same = _tbl_pac(body, mutation="anchor_ignores_bump")
    assert broken.combined_global_loads > result.combined_global_loads
    assert not broken_same


def test_pac_lock_alone_separates_table_loads():
    # No sequential oracle can see a load hoisted out of a critical
    # section, so this one is pinned by shape (and by SWC's rejection,
    # test_swc_rejects_critical_section_reads_with_and_without_pac).
    body = ("u32 a = tbl[(i << 3) + 1];"
            "critical (tbl_lock) { out = a + tbl[(i << 3) + 2]; }")
    result, _, _, same = _tbl_pac(body)
    assert same and result.combined_global_loads == 0
    broken, _, _, _ = _tbl_pac(body, mutation="anchor_ignores_bump")
    assert broken.combined_global_loads == 2


def test_pac_speculative_table_window_must_stay_in_bounds():
    # 60 words are not a whole number of 8-word records: for i = 7 the
    # leader reads word 57, the guard keeps the program off word 62, and a
    # widened read of words 57..62 would run off the table all the same.
    guarded = ("u32 a = odd[(i << 3) + 1]; out = a;"
               "if ((i << 3) + 6 < 60) { out = out + odd[(i << 3) + 6]; }")
    result, fn, decisions, same = _tbl_pac(guarded)
    assert same
    assert result.combined_global_loads == 0
    assert [d.reason for d in decisions if d.verdict == "not_combined"] \
        == ["window not provably in bounds"]
    # The same two loads of a table the record divides do combine.
    result, _, _, same = _tbl_pac(guarded.replace("odd", "tbl").replace("60", "64"))
    assert same and result.combined_global_loads == 2


def test_pac_result_adds_every_field():
    import dataclasses

    names = [f.name for f in dataclasses.fields(pac.PacResult)]
    a = pac.PacResult(**{n: k + 1 for k, n in enumerate(names)})
    b = pac.PacResult(**{n: 10 * (k + 1) for k, n in enumerate(names)})
    a += b
    assert dataclasses.asdict(a) == {n: 11 * (k + 1) for k, n in enumerate(names)}


def test_firewall_rule_costs_two_reads_at_pac():
    from repro.apps import get_app
    from repro.compiler import compile_baker
    from repro.options import options_for

    app = get_app("firewall")
    result = compile_baker(app.source, options_for("PAC"),
                           app.make_trace(200, seed=5), codegen=False)
    reads = [i for fn in result.mod.functions.values() for i in fn.all_instrs()
             if getattr(i, "g", None) == "fw_rules"]
    assert all(isinstance(i, I.LoadGWords) for i in reads)
    assert sorted(i.nwords for i in reads) == [3, 8]
    assert (result.pac_result.wide_global_loads,
            result.pac_result.combined_global_loads) == (2, 11)


# -- PHR -----------------------------------------------------------------------------


def test_phr_metadata_localization():
    src = _pac_src(
        "ph->meta.acc = ph->type; u32 v = ph->meta.acc; "
        "ph->dst = v; channel_put(tx, ph);"
    )
    trace = ipv4_trace(6, [0xC0A80101], MACS)

    def optimize(mod):
        soar.run(mod)
        result = phr.run(mod)
        assert "acc" in result.localized_meta_fields

    _, _, mod = reference_and_optimized(src, trace, optimize)
    fn = mod.functions["m.p"]
    assert count_ops(fn, I.MetaLoad) == 0
    assert count_ops(fn, I.MetaStore) == 0


def test_phr_meta_not_localized_across_functions():
    mod = lower(MINI_FORWARDER)
    soar.run(mod)
    result = phr.run(mod)
    # nexthop_id is written in l3_fwdr only (single function) -> localized.
    assert "nexthop_id" in result.localized_meta_fields


def test_phr_elides_paired_encap_decap():
    src = (
        ETHER_IPV4_PROTOCOLS
        + """
module m {
  ppf p(ether_pkt *ph) from rx {
    ipv4_pkt *iph = packet_decap(ph);
    u32 t = iph->ttl;
    iph->ttl = t - 1;
    ether_pkt *eph = packet_encap(iph, ether);
    channel_put(tx, eph);
  }
}
"""
    )
    trace = ipv4_trace(6, [0xC0A80101], MACS)

    def optimize(mod):
        soar.run(mod)
        result = phr.run(mod)
        assert result.elided_encaps == 2
        # Net head movement is zero: no sync needed at the put.
        assert result.syncs_inserted == 0

    _, _, mod = reference_and_optimized(src, trace, optimize)
    fn = mod.functions["m.p"]
    assert count_ops(fn, I.PktDecap) == 0
    assert count_ops(fn, I.PktEncap) == 0
    assert count_ops(fn, I.PktSyncHead) == 0
    # The field accesses were rebased onto the stale (outer) head.
    ttl_load = next(i for i in fn.all_instrs()
                    if isinstance(i, I.PktLoadField) and i.field == "ttl")
    assert ttl_load.bit_off == (14 + 8) * 8


def test_phr_syncs_before_put_with_net_movement():
    mod = lower(MINI_FORWARDER)
    soar.run(mod)
    result = phr.run(mod)
    verify_module(mod)
    clsfr = mod.functions["l3_switch.l2_clsfr"]
    # The decap is elided and a +14 sync precedes the channel_put.
    assert count_ops(clsfr, I.PktDecap) == 0
    syncs = [i for i in clsfr.all_instrs() if isinstance(i, I.PktSyncHead)]
    assert len(syncs) == 1 and syncs[0].delta_bytes == 14
    trace = ipv4_trace(10, [0xC0A80101], MACS, arp_fraction=0.2, seed=3)
    ref = run_reference(lower(MINI_FORWARDER), trace)
    got = run_reference(mod, trace)
    assert got.tx_signature() == ref.tx_signature()


def test_phr_keeps_dynamic_decap():
    src = (
        ETHER_IPV4_PROTOCOLS
        + """
protocol udp { sport : 16; dport : 16; len : 16; csum : 16; demux { 8 }; }
metadata { u32 d; }
module m {
  ppf p(ether_pkt *ph) from rx {
    ipv4_pkt *iph = packet_decap(ph);
    udp_pkt *uph = packet_decap(iph);
    uph->meta.d = uph->dport;
    channel_put(tx, uph);
  }
}
"""
    )
    mod = lower(src)
    soar.run(mod)
    result = phr.run(mod)
    fn = mod.functions["m.p"]
    # The ether decap elides; the dynamic ipv4 decap stays, preceded by a sync.
    assert count_ops(fn, I.PktDecap) == 1
    assert result.elided_encaps == 1
    assert result.syncs_inserted == 1
    # Its size operand comes from an ihl load re-based onto the unmoved head
    # (14 bytes further in), issued before the sync.
    instrs = list(fn.all_instrs())
    decap = next(i for i in instrs if isinstance(i, I.PktDecap))
    ihl_load = next(i for i in instrs
                    if isinstance(i, I.PktLoadField) and i.field == "ihl")
    sync = next(i for i in instrs if isinstance(i, I.PktSyncHead))
    assert isinstance(decap.delta, Temp) and ihl_load.bit_off == 14 * 8 + 4
    assert instrs.index(ihl_load) < instrs.index(sync) < instrs.index(decap)
    from repro.profiler.trace import build_ethernet, build_ipv4, build_udp

    frame = build_ethernet(MACS[0], 5, 0x0800, build_ipv4(1, 2, payload=build_udp(7, 9)))
    ref = run_reference(lower(src), Trace([TracePacket(frame, 0)]))
    got = run_reference(mod, Trace([TracePacket(frame, 0)]))
    assert got.tx_payloads() == ref.tx_payloads()


# -- loop peeling ----------------------------------------------------------------------


def test_peel_takes_the_first_trip_of_profiled_head_moving_loops_only():
    """MPLS's label loop decaps, so from PAC up its first trip is copied
    in front of it (one ledger decision); below PAC, or when the profile
    never ran it, it is not. Firewall's rule scan moves no head."""
    from repro.apps import get_app
    from repro.compiler import compile_baker
    from repro.options import options_for

    def peels(name, level, trace=None):
        app = get_app(name)
        trace = app.make_trace(200, seed=5) if trace is None else trace
        result = compile_baker(app.source, options_for(level), trace,
                               codegen=False)
        return [d for d in result.decisions if d.pass_name == "peel"]

    (decision,) = peels("mpls", "PAC")
    assert (decision.subject, decision.verdict) == ("mpls_fwd.clsfr", "peeled")
    assert decision.evidence["instrs_added"] > 0
    assert 0 < decision.evidence["profile_share"] < 1
    assert len(peels("mpls", "SWC")) == 1
    assert peels("mpls", "O2") == []
    assert peels("mpls", "SWC", Trace([])) == []
    assert peels("firewall", "SWC") == []


def test_peel_leaves_a_loop_whose_only_head_move_is_a_kept_call():
    """A call the inliner kept may move any packet, but it names no head
    that a copied first trip would know, so its loop is not peeled."""
    from repro.compiler import compile_baker
    from repro.options import options_for

    steps = "\n".join("  x = (x ^ (x >> %d)) * %d + %d;" % (k % 13 + 3, 2 * k + 3, k)
                      for k in range(24))
    src = ETHER_IPV4_PROTOCOLS + """
metadata { u32 out; }
u32 scramble(u32 x) {
%s
  return x;
}
u32 again(u32 x) { return scramble(x) + 1; }
module m {
  ppf p(ether_pkt *ph) from rx {
    u32 h = ph->meta.rx_port;
    u32 n = 3;
    while (n > 0) {
      n -= 1;
      h = scramble(h);
    }
    ph->meta.out = again(h);
    channel_put(tx, ph);
  }
}
""" % steps
    trace = ipv4_trace(32, list(range(10)), MACS, seed=6)
    result = compile_baker(src, options_for("SWC"), trace, codegen=False)
    kept = [d for d in result.decisions
            if (d.pass_name, d.subject, d.verdict) == ("inline", "m.p->scramble", "rejected")]
    assert kept  # the loop still holds the call when the peel runs
    assert [d for d in result.decisions if d.pass_name == "peel"] == []


# -- SWC -----------------------------------------------------------------------------

HOT_TABLE_SRC = (
    ETHER_IPV4_PROTOCOLS
    + """
metadata { u32 out; }
u64 macs[4] = { 0x0a0000000001, 0x0a0000000002, 0x0a0000000003, 0x0a0000000004 };
u32 big[4096];
shared u32 counter = 0;

module m {
  ppf p(ether_pkt *ph) from rx {
    u32 port = ph->meta.rx_port;
    u64 mac = macs[port & 3];
    ipv4_pkt *iph = packet_decap(ph);
    u32 noise = big[iph->dst & 4095];
    critical (c) { counter = counter + 1; }
    iph->meta.out = (u32) mac + noise;
    channel_put(tx, iph);
  }
  init { macs[0] = 0x0a0000000001; }
}
"""
)


def _profiled(src, trace):
    mod = lower(src)
    profile = run_reference(mod, trace).profile
    return mod, profile


def test_swc_selects_hot_small_table():
    trace = ipv4_trace(64, list(range(100)), MACS, seed=6)
    mod, profile = _profiled(HOT_TABLE_SRC, trace)
    result = swc.select_candidates(mod, profile, {"m.p"})
    assert "macs" in result.cached_names()


def test_swc_rejects_critical_section_global():
    trace = ipv4_trace(32, list(range(16)), MACS)
    mod, profile = _profiled(HOT_TABLE_SRC, trace)
    result = swc.select_candidates(mod, profile, {"m.p"})
    assert "counter" not in result.cached_names()
    assert "critical" in result.rejected["counter"]


def test_swc_rejects_critical_section_reads_with_and_without_pac():
    """PAC turns the two reads inside the critical section into one
    ``loadg_words``; SWC must still see ``tbl`` read under the lock."""
    from repro.compiler import compile_baker
    from repro.options import options_for

    src = r"""
protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }
u32 tbl[64] = { %s };
module m {
  ppf f(ether_pkt *ph) from rx {
    u32 i = ph->type & 1;
    u32 hot = tbl[i + 8];
    u32 a = 0;
    u32 b = 0;
    critical (tbl_lock) { u32 row = i << 1; a = tbl[row]; b = tbl[row + 1]; }
    ph->type = (a + b + hot) & 0xffff;
    channel_put(tx, ph);
  }
}
""" % ", ".join(str(k + 1) for k in range(64))
    trace = Trace([TracePacket(build_ethernet(MACS[0], t, t, bytes(46)), 0)
                   for t in range(64)])
    with_pac = compile_baker(src, options_for("SWC"), trace, codegen=False)
    assert with_pac.pac_result.combined_global_loads == 2
    mod, profile = _profiled(src, trace)  # PAC never ran on this one
    without = swc.select_candidates(mod, profile, {"m.f"})
    for result in (with_pac.swc_result, without):
        assert result.cached_names() == []
        assert "critical" in result.rejected["tbl"]


def test_swc_rejects_fast_path_writes():
    src = HOT_TABLE_SRC.replace(
        "iph->meta.out = (u32) mac + noise;",
        "iph->meta.out = (u32) mac + noise; big[0] = noise;",
    )
    trace = ipv4_trace(32, list(range(16)), MACS)
    mod, profile = _profiled(src, trace)
    result = swc.select_candidates(mod, profile, {"m.p"})
    assert "big" not in result.cached_names()


def test_swc_equation2():
    assert swc.min_check_rate(r_error=0.01, r_store=0.001, r_load=2.0) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        swc.min_check_rate(0, 1, 1)


def test_swc_transform_preserves_output_and_cuts_sram_loads():
    trace = ipv4_trace(80, list(range(8)), MACS, seed=8)
    ref = run_reference(lower(HOT_TABLE_SRC), trace)

    mod = lower(HOT_TABLE_SRC)
    profile = run_reference(lower(HOT_TABLE_SRC), trace).profile
    result = swc.select_candidates(mod, profile, {"m.p"})
    assert "macs" in result.cached_names()
    swc.apply(mod, result, {"m.p"}, check_period=16)
    verify_module(mod)

    got = run_reference(mod, trace)
    assert got.tx_signature() == ref.tx_signature()
    # The packet path reads the resident table from Local Memory only.
    assert ref.profile.global_stats["macs"].loads == 80
    assert "macs" not in got.profile.global_stats


def test_swc_delayed_update_staleness_and_recovery():
    """A control-plane store becomes visible only after the periodic
    check fires -- the delayed-update semantics of section 5.2."""
    src = (
        ETHER_IPV4_PROTOCOLS
        + """
metadata { u32 out; }
u32 tbl[4] = { 7, 7, 7, 7 };
module m {
  ppf p(ether_pkt *ph) from rx {
    ph->meta.out = tbl[0];
    channel_put(tx, ph);
  }
}
"""
    )
    trace = ipv4_trace(40, [1], MACS)
    mod = lower(src)
    profile = run_reference(lower(src), trace).profile
    result = swc.select_candidates(mod, profile, {"m.p"})
    assert "tbl" in result.cached_names()
    swc.apply(mod, result, {"m.p"}, check_period=8)

    interp = Interpreter(mod)
    interp.run_inits()
    # Warm the cache with a few packets.
    interp.run_trace(ipv4_trace(4, [1], MACS))
    # Control plane updates the table: the data store, then what every
    # writer owes a cached global.
    interp.globals.store("tbl", 0, 99, 4)
    assert swc.publish_store(interp.globals, "tbl")
    assert not swc.publish_store(interp.globals, "no_such_global")
    res = interp.run_trace(ipv4_trace(20, [1], MACS))
    outs = [p.meta.get(4) for p in interp.tx]
    assert 7 in outs  # stale reads happened after the store
    assert outs[-1] == 99  # but the check eventually flushed the cache
    assert outs == sorted(outs, key=lambda v: v == 99)  # 7s then 99s


def test_swc_generation_words_have_one_writer():
    """MEs only read the generation words (an ME that cleared one would
    hide the update from the others); writers bump them after the data
    store; SEEN sits between the counter and the resident tables."""
    trace = ipv4_trace(80, list(range(8)), MACS, seed=8)
    mod, profile = _profiled(HOT_TABLE_SRC, trace)
    result = swc.select_candidates(mod, profile, {"m.p"})
    swc.apply(mod, result, {"m.p"}, check_period=16)

    p = mod.functions["m.p"]
    check = [bb for bb in p.blocks
             if bb.label.startswith(("swc_check", "swc_flush"))]
    assert len(check) == 2
    assert not any(isinstance(i, I.StoreG) for bb in check for i in bb.instrs)
    assert not any(isinstance(i, I.StoreG) and i.g.endswith(swc.FLAG_SUFFIX)
                   for i in p.all_instrs())
    assert [(i.g, i.replica) for bb in check for i in bb.instrs
            if isinstance(i, I.LmFill)] == [("macs", swc.TABLES_BASE)]
    assert swc.COUNTER_INDEX < swc.SEEN_INDEX < swc.TABLES_BASE

    # The init block's store is the one instrumented writer: data, then bump.
    assert result.instrumented_stores == 1
    init = [i for fn in mod.functions.values() if fn.kind == "init"
            for i in fn.all_instrs() if isinstance(i, I.StoreG)]
    assert [i.g for i in init] == ["macs", "macs" + swc.FLAG_SUFFIX]
    interp = Interpreter(mod)
    interp.run_inits()
    assert interp.globals.load("macs" + swc.FLAG_SUFFIX, 0, 4) == 1


def test_swc_rejects_a_cached_global_stored_from_an_me_function():
    """The generation bump is a read-modify-write, safe only with one
    writer (the XScale). Selection rejects such a global; a store that
    gets past selection must not be instrumented silently."""
    src = HOT_TABLE_SRC.replace(
        "iph->meta.out = (u32) mac + noise;",
        "iph->meta.out = (u32) mac + noise; macs[1] = 0x0a0000000002;",
    )
    trace = ipv4_trace(80, list(range(8)), MACS, seed=8)
    mod, profile = _profiled(src, trace)
    result = swc.select_candidates(mod, profile, {"m.p"})
    assert result.rejected["macs"] == "written on the packet path"

    clean, clean_profile = _profiled(HOT_TABLE_SRC, trace)
    forced = swc.select_candidates(clean, clean_profile, {"m.p"})
    assert "macs" in forced.cached_names()
    with pytest.raises(ValueError, match="macs stored from an ME function"):
        swc.apply(mod, forced, {"m.p"}, check_period=16)


def test_swc_rejects_a_global_read_in_a_branch_of_a_critical_section():
    """The lock depth reaches a block from the paths into it: a read in
    an ``if`` inside ``critical`` is a read under the lock."""
    src = r"""
protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }
u32 tbl[16] = { %s };
module m {
  ppf f(ether_pkt *ph) from rx {
    u32 i = ph->type & 3;
    u32 a = 0;
    critical (l) { if (ph->type != 7) { a = tbl[i]; } }
    ph->type = a & 0xffff;
    channel_put(tx, ph);
  }
}
""" % ", ".join(str(k + 1) for k in range(16))
    trace = Trace([TracePacket(build_ethernet(MACS[0], t, t, bytes(46)), 0)
                   for t in range(64)])
    mod, profile = _profiled(src, trace)
    result = swc.select_candidates(mod, profile, {"m.f"})
    assert result.cached_names() == []
    assert "critical" in result.rejected["tbl"]


def test_swc_rewrites_the_reads_pac_would_have_widened():
    """Selection runs before PAC, which keeps a selected global's loads
    narrow: both reads of one record are rewritten, and the only wide
    SRAM read of the table left is the refresh of its copy."""
    from repro.compiler import compile_baker
    from repro.options import options_for

    src = r"""
protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }
u32 tbl[16] = { %s };
module m {
  ppf f(ether_pkt *ph) from rx {
    u32 i = (ph->type & 1) << 1;
    ph->type = (tbl[i] + tbl[i + 1]) & 0xffff;
    channel_put(tx, ph);
  }
}
""" % ", ".join(str(k + 1) for k in range(16))
    trace = Trace([TracePacket(build_ethernet(MACS[0], t, t, bytes(46)), 0)
                   for t in range(64)])
    result = compile_baker(src, options_for("SWC"), trace)
    assert result.swc_result.cached_names() == ["tbl"]
    assert result.swc_result.rewritten_loads == 2
    assert result.pac_result.combined_global_loads == 0
    assert not any(isinstance(i, I.LoadGWords) and i.g == "tbl"
                   for i in result.mod.functions["m.f"].all_instrs())
    (image,) = result.images.values()
    # The refresh: one 8-word read in a loop over the 16 words.
    assert [i.units for i in image.insns
            if i.kind == "mem" and i.units > 1 and i.category == "app"] == [8]


def test_swc_keeps_a_scanned_table_resident():
    """A 64-word table read all over (6.4 loads per packet) is copied
    whole to the first words after the counter and SEEN."""
    with obs_ledger.collecting([]) as decisions:
        result = _select(_profile(scan=(6400, 0)), ["scan"])
    (res,) = result.resident
    assert (res.name, res.replica, res.words) == ("scan", swc.TABLES_BASE, 64)
    assert res.flag_global == "scan" + swc.FLAG_SUFFIX
    assert result.cached_names() == ["scan"] and result.rejected == {}
    ((verdict, evidence),) = [(d.verdict, d.evidence) for d in decisions
                              if d.subject == "scan"]
    assert verdict == "resident"
    assert evidence["words"] == 64
    assert evidence["words_left"] == SWC_REGION_WORDS - swc.TABLES_BASE
    assert swc.enforce_check_period(result, 16) == 16


def test_swc_places_resident_tables_hottest_first():
    """The hotter table takes the first words; the second is placed in,
    and its evidence records, what the first left."""
    with obs_ledger.collecting([]) as decisions:
        result = _select(_profile(warm=(6400, 0), hot=(8000, 0)),
                         ["warm", "hot"])
    assert result.cached_names() == ["hot", "warm"]
    assert [r.replica for r in result.resident] == [swc.TABLES_BASE,
                                                    swc.TABLES_BASE + 64]
    placed = _resident_evidence(decisions)
    left = SWC_REGION_WORDS - swc.TABLES_BASE
    assert (placed["hot"]["words_left"], placed["warm"]["words_left"]) == (
        left, left - 64)


def test_swc_rejects_a_table_that_does_not_fit_local_memory():
    mod = FakeModule({"big": _global("big", 256)}, {"fast": _fast_fn(["big"])})
    with obs_ledger.collecting([]) as decisions:
        result = swc.select_candidates(mod, _profile(big=(2560, 0)),
                                       {"fast"})
    assert result.resident == []
    left = SWC_REGION_WORDS - swc.TABLES_BASE
    assert result.rejected["big"] == (
        "table does not fit Local Memory (256 words, %d left)" % left)
    last = [d for d in decisions if d.subject == "big"][-1]
    assert (last.verdict, last.evidence["words"],
            last.evidence["words_left"]) == ("rejected", 256, left)


def test_swc_never_keeps_a_table_written_on_the_packet_path_resident():
    fn = _fast_fn(["scan"])
    fn.entry.instrs.append(I.StoreG("scan", Const(0), Const(1), 4))
    mod = FakeModule({"scan": _global("scan")}, {"fast": fn})
    result = swc.select_candidates(mod, _profile(scan=(6400, 0)), {"fast"})
    assert result.resident == []
    assert result.rejected["scan"] == "written on the packet path"


def test_swc_resident_read_indexed_by_a_loop_variable():
    """A table summed in a loop is turned down by the CAM (every word is
    hot) and kept resident. The loop variable is redefined on the back
    edge, so its read keeps the byte offset and shifts it to a word
    index; the image still forwards what the reference does."""
    from repro.compiler import compile_baker
    from repro.options import options_for
    from repro.rts.system import verify_against_reference

    src = r"""
protocol ether { dst : 48; src : 48; type : 16; demux { 14 }; }
u32 tbl[16] = { %s };
module m {
  ppf f(ether_pkt *ph) from rx {
    u32 s = 0;
    for (u32 k = 0; k < 16; k++) { s = s + tbl[k]; }
    ph->type = (s + tbl[ph->type & 15]) & 0xffff;
    channel_put(tx, ph);
  }
}
""" % ", ".join(str(k * 7 + 1) for k in range(16))
    trace = Trace([TracePacket(build_ethernet(MACS[0], t, t, bytes(46)), 0)
                   for t in range(64)])
    result = compile_baker(src, options_for("SWC"), trace)
    assert [r.name for r in result.swc_result.resident] == ["tbl"]
    reads = [i for i in result.mod.functions["m.f"].all_instrs()
             if isinstance(i, I.LoadResident)]
    assert len(reads) == result.swc_result.rewritten_loads == 2
    assert any(r.index.hint == "swc_word" for r in reads)
    assert verify_against_reference(result, trace, packets=40, n_mes=1)


def test_swc_resident_reads_are_one_local_memory_read_each():
    """Firewall's rule table: every packet-path read is an indexed
    ``lm_read`` of the copy, the rule row in the base register and the
    word in the offset, with no ALU op of its own; SRAM is read only to
    refresh the copy."""
    from repro.apps import get_app
    from repro.cg import isa
    from repro.cg.melayout import SWC_REGION_BASE
    from repro.compiler import compile_baker
    from repro.options import options_for

    app = get_app("firewall")
    result = compile_baker(app.source, options_for("SWC"),
                           app.make_trace(200, seed=5))
    (res,) = result.swc_result.resident
    assert (res.name, res.replica, res.words) == ("fw_rules", 2, 192)
    reads = [i for fn in result.mod.functions.values()
             for i in fn.all_instrs() if isinstance(i, I.LoadResident)]
    assert len(reads) == result.swc_result.rewritten_loads == 10
    assert all(isinstance(r.index, Temp) and 0 <= r.word < 16 for r in reads)
    (image,) = result.images.values()
    lm_reads = [i for i in image.insns if isinstance(i, isa.LmRead)
                and i.base is not None and not i.thread_rel]
    assert sorted(i.offset for i in lm_reads) == sorted(
        SWC_REGION_BASE + res.replica + r.word for r in reads)
    app_reads = [i for i in image.insns
                 if isinstance(i, isa.Mem) and i.category == "app"
                 and i.rw == "read" and i.space == "sram"]
    assert [i.units for i in app_reads] == [1, 8]  # fw_drop_count, the refresh


# -- SWC selection evidence + Equation-2 enforcement (synthetic profiles) -----------
#
# A configured ``swc_check_period`` whose implied check rate (1/period)
# falls below a cached global's ``min_check_rate(0.01, stores/pkt,
# loads/pkt)`` must be clamped, never compiled in verbatim: the paper's
# 1% tolerable-error bound is a compiler invariant.

PACKETS = 1000


class FakeModule:
    """Just enough module surface for ``select_candidates``."""

    def __init__(self, globals_, functions):
        self.globals = globals_
        self.functions = functions


def _fast_fn(loaded_names):
    fn = IRFunction("fast", "func", T.U32)
    entry = fn.new_block("entry")
    tmp = None
    for name in loaded_names:
        tmp = fn.new_temp(T.U32)
        entry.append(I.LoadG(tmp, name, Const(0), 4))
    entry.terminate(I.Ret(tmp))
    return fn


def _global(name, n_elems=64):
    return GlobalSymbol(SymbolKind.GLOBAL, name,
                        type=T.ArrayType(T.U32, n_elems), qualified=name)


def _profile(**per_global):
    """ProfileData from {name: (loads, stores)}."""
    profile = ProfileData(packets_in=PACKETS)
    for name, (loads, stores) in per_global.items():
        gs = profile.gstat(name)
        gs.loads = loads
        gs.stores = stores
    return profile


def _select(profile, names):
    mod = FakeModule({n: _global(n) for n in names},
                     {"fast": _fast_fn(names)})
    return swc.select_candidates(mod, profile, {"fast"})


def _resident_evidence(decisions):
    return {d.subject: d.evidence for d in decisions
            if d.pass_name == "swc" and d.verdict == "resident"}


def _storing_profile():
    """One hot candidate that *is* written: loads 5/pkt, stores 1 per
    1000 packets -> Equation 2 minimum check rate 0.001 * 5 / 0.01 =
    0.5, so no period above 2 satisfies the bound."""
    return _profile(hot=(5 * PACKETS, 1))


def test_eq2_violating_period_is_clamped_with_ledger_decision():
    result = _select(_storing_profile(), ["hot"])
    assert result.cached_names() == ["hot"]
    assert result.eq2_min_check_rate == pytest.approx(0.5)

    with obs_ledger.collecting([]) as decisions:
        effective = swc.enforce_check_period(result, 16)

    # The old behavior -- compile the requested 16 straight in -- is
    # gone: the period is clamped to floor(1/0.5) = 2.
    assert effective == 2
    assert result.requested_check_period == 16
    assert result.check_period == 2
    clamps = [d for d in decisions if d.subject == "check_period"]
    assert len(clamps) == 1 and clamps[0].verdict == "clamped"
    assert clamps[0].evidence["requested_period"] == 16
    assert clamps[0].evidence["effective_period"] == 2
    assert clamps[0].evidence["eq2_min_check_rate"] == pytest.approx(0.5)


def test_satisfiable_period_passes_through_unclamped():
    result = _select(_storing_profile(), ["hot"])
    assert swc.enforce_check_period(result, 2) == 2
    assert result.check_period == 2
    # Never-written candidates (eq2 == 0) never clamp any period.
    result2 = _select(_profile(hot=(5 * PACKETS, 0)), ["hot"])
    assert result2.eq2_min_check_rate == 0.0
    assert swc.enforce_check_period(result2, 10 ** 9) == 10 ** 9


def test_eq2_unsatisfiable_candidate_rejected_outright():
    """A candidate whose Equation-2 minimum exceeds one check per
    packet cannot be resident at any integer period."""
    # loads 20/pkt, stores 1/pkt-ish: rate = 0.02 * 20 / 0.01 = 40 > 1.
    # Keep the store/load ratio under the screening threshold (0.01).
    profile = _profile(hot=(20 * PACKETS, 20))
    result = _select(profile, ["hot"])
    assert result.resident == []
    assert "Equation 2 unsatisfiable" in result.rejected["hot"]


def test_compiled_app_records_enforced_period():
    """Through the full compiler, the enforced period lands on the
    SwcResult (mpls's accepted candidates are never stored during the
    profile, so the stock period is admissible unchanged -- the point
    is that it now flows through enforce_check_period, not around it)."""
    from repro.apps import get_app
    from repro.compiler import compile_baker
    from repro.options import options_for

    app = get_app("mpls")
    result = compile_baker(app.source, options_for("SWC"),
                           app.make_trace(200, seed=5))
    sr = result.swc_result
    assert sr is not None and sr.resident
    assert sr.requested_check_period == 16
    assert sr.check_period == 16
    assert sr.eq2_min_check_rate == 0.0
    # ... and the placement evidence is recorded.
    placed = _resident_evidence(result.decisions)
    for name in sr.cached_names():
        assert set(placed[name]) >= {"loads_per_packet", "words",
                                     "words_left", "eq2_min_check_rate"}
