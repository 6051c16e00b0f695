"""Tests for the three benchmark applications (L3-Switch, Firewall, MPLS).

Correctness is checked three ways: against Python-side oracles (route
table LPM, rule classification), against protocol invariants (valid IPv4
checksums on emitted packets, TTL decrement, label rewriting), and
differentially simulator-vs-interpreter at key optimization levels.
"""

import json
import os
import random

import pytest

from repro.apps import all_apps, get_app
from repro.apps.l3switch import L3SwitchApp
from repro.apps.firewall import FirewallApp
from repro.apps.mpls import MplsApp
from repro.apps.tables import (
    MPLS_OP_POP,
    ROUTER_MACS,
    make_firewall_rules,
    make_mpls_config,
    make_route_table,
)
from repro.baker import parse_and_check
from repro.baker.lowering import lower_program
from repro.cg import isa
from repro.compiler import compile_baker
from repro.options import LEVEL_ORDER, options_for
from repro.profiler.interpreter import run_reference
from repro.profiler.trace import (
    Trace, TracePacket, build_ethernet, build_ipv4, build_udp, ipv4_checksum,
)
from repro.rts.system import verify_against_reference


@pytest.fixture(scope="module")
def l3():
    return get_app("l3switch")


@pytest.fixture(scope="module")
def fw():
    return get_app("firewall")


@pytest.fixture(scope="module")
def mpls_app():
    return get_app("mpls")


def reference_run(app, n=120, seed=9):
    mod = lower_program(parse_and_check(app.source, app.name))
    trace = app.make_trace(n, seed=seed)
    return trace, run_reference(mod, trace)


# -- table generators ---------------------------------------------------------------


def test_route_table_lpm_oracle():
    table = make_route_table(n_routes=32, seed=1)
    for addr in table.addresses_in(50, seed=2):
        nh = table.lookup(addr)
        assert 0 <= nh < len(table.nexthops)
        # The matched route really covers the address.
        matches = [
            r for r in table.routes
            if (addr & ((0xFFFFFFFF << (32 - r.length)) & 0xFFFFFFFF)) == r.prefix
        ]
        assert matches
        assert nh == max(matches, key=lambda r: r.length).nexthop


def test_route_table_sorted_for_trie_builder():
    table = make_route_table(seed=3)
    lengths = [r.length for r in table.routes]
    assert lengths == sorted(lengths)
    assert all(r.length <= 24 for r in table.routes)


def test_firewall_first_match_semantics():
    config = make_firewall_rules(n_rules=16, seed=7)
    action, flow = config.classify(0, 0, 1, 1, 6)
    assert action in (0, 1)
    # The catch-all rule guarantees classification always succeeds.
    assert config.rules[-1].matches(123, 456, 7, 8, 17)


def test_mpls_config_ops_cover_all_kinds():
    config = make_mpls_config(n_labels=9, seed=4)
    ops = {op for op, _, _ in config.ilm.values()}
    assert ops == {1, 2, 3}  # swap, pop, push


# -- L3-Switch ----------------------------------------------------------------------


def test_l3switch_routes_with_valid_checksums(l3):
    trace, res = reference_run(l3)
    routed = [p for p in res.tx if p.payload()[12:14] == b"\x08\x00"
              and p.payload()[22] == 63]
    assert routed, "no routed packets observed"
    for pkt in routed:
        header = pkt.payload()[14:34]
        assert ipv4_checksum(header) == 0, "routed packet has a bad checksum"


def test_l3switch_nexthop_macs_match_oracle(l3):
    trace, res = reference_run(l3)
    for pkt in res.tx:
        frame = pkt.payload()
        if frame[12:14] != b"\x08\x00" or frame[22] != 63:
            continue
        dst_ip = int.from_bytes(frame[30:34], "big")
        nh = l3.expected_nexthop(dst_ip)
        expected_mac = l3.routes.nexthops[nh][0]
        assert frame[0:6] == expected_mac.to_bytes(6, "big")


def test_l3switch_bridges_known_stations(l3):
    trace, res = reference_run(l3, n=200, seed=11)
    bridged = [
        p for p in res.tx
        if int.from_bytes(p.payload()[0:6], "big") in l3.bridge.entries
    ]
    assert bridged  # some packets took the L2 path unchanged
    for pkt in bridged:
        assert pkt.payload()[22] == 64  # TTL untouched on the bridge path


def test_l3switch_arp_replies_generated(l3):
    trace, res = reference_run(l3, n=300, seed=13)
    replies = [p for p in res.tx if p.payload()[12:14] == b"\x08\x06"
               and p.payload()[20:22] == b"\x00\x02"]
    assert replies, "no ARP replies emitted"
    for rep in replies:
        # Reply claims one of the router's port MACs as sender.
        sha = int.from_bytes(rep.payload()[22:28], "big")
        assert sha in [m for m in __import__("repro.apps.tables", fromlist=["ROUTER_MACS"]).ROUTER_MACS]


def test_l3switch_error_path_counts_bad_ttl(l3):
    mod = lower_program(parse_and_check(l3.source, "l3"))
    trace = l3.make_trace(300, seed=17, bad_fraction=0.05)
    from repro.profiler.interpreter import Interpreter

    interp = Interpreter(mod)
    interp.run_inits()
    interp.run_trace(trace)
    assert interp.globals.load("err_drops", 0, 4) > 0


def test_l3switch_trie_matches_python_lpm(l3):
    """The Baker-built trie must agree with the Python LPM oracle for
    every address the trace generator can produce."""
    mod = lower_program(parse_and_check(l3.source, "l3"))
    from repro.profiler.interpreter import Interpreter

    interp = Interpreter(mod)
    interp.run_inits()

    def trie_lookup(addr: int) -> int:
        e = interp.globals.load("trie16", (addr >> 16) * 4, 4)
        if e & 0x40000000:
            block = e & 0xFFFF
            e = interp.globals.load(
                "trie8", ((block << 8) + ((addr >> 8) & 0xFF)) * 4, 4
            )
        return e & 0xFFFF if e & 0x80000000 else 0

    for addr in l3.routes.addresses_in(200, seed=23):
        assert trie_lookup(addr) == l3.routes.lookup(addr), hex(addr)


# -- Firewall ----------------------------------------------------------------------------


def test_firewall_actions_match_oracle(fw):
    trace, res = reference_run(fw, n=200, seed=19)
    # Every input packet classified pass by the oracle must appear in tx;
    # every dropped one must not.
    passed = 0
    dropped = 0
    tx_sigs = {bytes(p.payload()) for p in res.tx}
    for tp in trace:
        frame = tp.data
        src = int.from_bytes(frame[26:30], "big")
        dst = int.from_bytes(frame[30:34], "big")
        sport = int.from_bytes(frame[34:36], "big")
        dport = int.from_bytes(frame[36:38], "big")
        proto = frame[23]
        action, flow = fw.expected_action(src, dst, sport, dport, proto)
        if action == 0:
            assert frame in tx_sigs, "pass packet missing from tx"
            passed += 1
        else:
            dropped += 1
    assert passed and dropped
    assert res.profile.packets_out == passed
    assert res.profile.packets_dropped == dropped


def test_firewall_payload_untouched(fw):
    trace, res = reference_run(fw, n=80, seed=21)
    inputs = {bytes(tp.data) for tp in trace}
    for pkt in res.tx:
        assert bytes(pkt.payload()) in inputs  # transparent device


def test_firewall_drop_counters(fw):
    mod = lower_program(parse_and_check(fw.source, "fw"))
    trace = fw.make_trace(150, seed=25)
    from repro.profiler.interpreter import Interpreter

    interp = Interpreter(mod)
    interp.run_inits()
    res = interp.run_trace(trace)
    total = sum(
        interp.globals.load("fw_drop_count", i * 4, 4) for i in range(64)
    )
    assert total == res.profile.packets_dropped


# -- MPLS ---------------------------------------------------------------------------------


def _label_entry(frame: bytes, off: int = 14) -> int:
    return int.from_bytes(frame[off : off + 4], "big")


def test_mpls_swap_rewrites_label(mpls_app):
    trace, res = reference_run(mpls_app, n=150, seed=27)
    swaps = {
        label: out
        for label, (op, out, _) in mpls_app.config.ilm.items()
        if op == 1
    }
    seen = 0
    out_labels = set()
    for pkt in res.tx:
        frame = pkt.payload()
        if frame[12:14] != b"\x88\x47":
            continue
        out_labels.add(_label_entry(frame) >> 12)
    assert out_labels & set(swaps.values()), "no swapped labels observed"


def test_mpls_ttl_decremented(mpls_app):
    trace, res = reference_run(mpls_app, n=100, seed=29)
    for pkt in res.tx:
        frame = pkt.payload()
        if frame[12:14] == b"\x88\x47":
            entry = _label_entry(frame)
            assert entry & 0xFF <= 63 or (entry >> 12) in [
                l for l, (op, _, _) in mpls_app.config.ilm.items()
            ]


def test_mpls_final_pop_emits_ip(mpls_app):
    trace, res = reference_run(mpls_app, n=200, seed=31)
    ip_out = [p for p in res.tx if p.payload()[12:14] == b"\x08\x00"]
    assert ip_out, "no final-pop/egress IP packets"
    for pkt in ip_out:
        assert pkt.payload()[14] >> 4 == 4  # IPv4 version nibble visible


def test_mpls_deep_stacks_forwarded(mpls_app):
    trace, res = reference_run(mpls_app, n=200, seed=33)
    assert res.profile.packets_out == res.profile.packets_in - res.profile.packets_dropped


# -- whole-pipeline (compile + simulate) ----------------------------------------------------


@pytest.mark.parametrize("app_name", ["l3switch", "firewall", "mpls"])
@pytest.mark.parametrize("level", ["BASE", "PAC", "SWC"])
def test_apps_simulator_matches_reference(app_name, level):
    app = get_app(app_name)
    trace = app.make_trace(120, seed=35)
    result = compile_baker(app.source, options_for(level), trace)
    assert verify_against_reference(result, trace, packets=50), (app_name, level)


@pytest.mark.parametrize("level", LEVEL_ORDER)
def test_firewall_with_ipv4_options_matches_reference(fw, level):
    """Every other trace in the repo has ihl == 5, so rule_match's
    packet-dependent decap has only ever moved the head 20 bytes; here
    it moves 20, 24, 32 and 60."""
    rng = random.Random(9)
    flows = fw._flows(48, seed=14)
    trace = Trace()
    for i in range(60):
        src, dst, sport, dport, proto = flows[rng.randrange(len(flows))]
        options = bytes(rng.getrandbits(8) for _ in range(((5, 6, 8, 15)[i % 4] - 5) * 4))
        ip = build_ipv4(src, dst, payload=build_udp(sport, dport), proto=proto,
                        options=options)
        frame = build_ethernet(ROUTER_MACS[i % 3], 0x020000000000 | i, 0x0800, ip)
        trace.packets.append(TracePacket(frame, i % 3))
    reference = run_reference(lower_program(parse_and_check(fw.source, fw.name)), trace)
    assert 0 < reference.profile.packets_dropped < 60  # both verdicts occur
    result = compile_baker(fw.source, options_for(level), trace)
    assert verify_against_reference(result, trace, packets=60)


def _packet_sram_reads_before_first_dram(image):
    """pcs of packet-category SRAM reads on any path from the image's
    packet entry that has not yet touched DRAM."""
    reads, seen = set(), set()
    work = [image.label_index[image.inputs[0][1]]]
    while work:
        pc = work.pop()
        while pc not in seen:
            seen.add(pc)
            insn = image.insns[pc]
            if isinstance(insn, isa.Mem) and insn.category == isa.CAT_PACKET:
                if insn.space == "dram":
                    break
                if (insn.space, insn.rw) == ("sram", "read"):
                    reads.add(pc)
            if isinstance(insn, isa.Rtn):
                break
            if isinstance(insn, isa.Br):
                work.append(insn.resolved)
                if insn.cond == "always":
                    break
            pc += 1
    return reads


@pytest.mark.parametrize("app_name,figure", [
    ("l3switch", "fig13"), ("firewall", "fig14"), ("mpls", "fig15")])
def test_packet_metadata_is_read_once(app_name, figure):
    """PHR's register-resident packet state, pinned at both ends: in the
    listing, one metadata read (the entry's) comes before any packet data
    is touched -- no per-block re-read of buf/head; in the committed
    Table 1, at most three packet-SRAM accesses per packet remain."""
    app = get_app(app_name)
    trace = app.make_trace(200, seed=5)
    for level in ("PHR", "SWC"):
        result = compile_baker(app.source, options_for(level), trace)
        (image,) = result.images.values()
        reads = _packet_sram_reads_before_first_dram(image)
        assert len(reads) == 1, (level, sorted(reads))
        (entry_read,) = (image.insns[pc] for pc in reads)
        assert entry_read.words >= 3  # buf, head, len (and rx_port)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_%s.json" % figure)) as fh:
        table1 = json.load(fh)["mem_accesses"]
    assert table1["PHR"]["pkt_sram"] <= 3.0 and table1["SWC"]["pkt_sram"] <= 3.0


def test_swc_candidates_match_paper():
    """Paper section 6.2: SWC caches two small structures in L3-Switch
    and MPLS, and nothing in Firewall."""
    expectations = {"l3switch": 2, "firewall": 0, "mpls": 2}
    for name, count in expectations.items():
        app = get_app(name)
        trace = app.make_trace(150, seed=5)
        result = compile_baker(app.source, options_for("SWC"), trace)
        assert len(result.swc_result.cached) == count, (
            name, result.swc_result.cached_names())


def test_apps_fit_code_store_when_optimized():
    for app in all_apps():
        trace = app.make_trace(100, seed=37)
        result = compile_baker(app.source, options_for("SWC"), trace)
        assert len(result.plan.me_aggregates) == 1, app.name
        image = next(iter(result.images.values()))
        assert image.code_size <= 4096
