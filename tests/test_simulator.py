"""Tests for the IXP2400 simulator and the runtime system.

The headline test is the end-to-end differential oracle: at every
cumulative optimization level, the payload multiset transmitted by the
simulated chip must equal the functional interpreter's reference output.
"""

import pytest

from repro.cg import abi, isa
from repro.cg.assemble import MEImage
from repro.compiler import compile_baker
from repro.ixp.chip import IXP2400
from repro.ixp.counters import AccessProfile, Counters
from repro.ixp.memory import DRAM, ME_HZ, SIZES, MemorySystem
from repro.ixp.microengine import Microengine, SimError
from repro.ixp.rings import Ring
from repro.ixp.rxtx import RxEngine, TxEngine
from repro.options import LEVEL_ORDER, options_for
from repro.profiler.trace import ipv4_trace
from repro.rts.loader import load_system
from repro.rts.system import run_on_simulator, verify_against_reference
from tests.samples import MINI_FORWARDER, PASSTHROUGH

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


def trace40(**kw):
    kw.setdefault("arp_fraction", 0.1)
    kw.setdefault("seed", 7)
    return ipv4_trace(40, [0xC0A80101, 0xC0A80202], MACS, **kw)


# -- memory model -----------------------------------------------------------------


def _occupancy(space, words):
    """Cycles one access holds its channel."""
    mem = MemorySystem()
    mem.timed_access(0.0, space, words, "pkt")
    return mem.channels[space].busy_time


def test_channel_occupancy_serializes():
    mem = MemorySystem()
    t1 = mem.timed_access(0.0, "dram", 2, "pkt")
    t2 = mem.timed_access(0.0, "dram", 2, "pkt")
    occupancy = DRAM.occupancy_base + 2 * DRAM.occupancy_per_word
    assert t1 == pytest.approx(occupancy + DRAM.latency)
    assert t2 == pytest.approx(2 * occupancy + DRAM.latency)
    assert mem.counters.accesses[("dram", "pkt")] == 2


def test_channel_idle_gap():
    mem = MemorySystem()
    mem.timed_access(0.0, "dram", 2, "pkt")
    later = mem.timed_access(10_000.0, "dram", 2, "pkt")
    assert later == pytest.approx(10_000 + _occupancy("dram", 2) + DRAM.latency)


def test_figure6_budget_calibration():
    """The paper's stated budgets: 2 DRAM / 8 SRAM / 64 Scratch accesses
    per 64 B packet must sustain >= 2.5 Gbps (4.88 Mpps)."""
    pps = 2.5e9 / (64 * 8)
    assert 2 * _occupancy("dram", 2) * pps <= ME_HZ
    assert 8 * _occupancy("sram", 1) * pps <= ME_HZ
    assert 64 * _occupancy("scratch", 1) * pps <= ME_HZ
    # ...but one more DRAM access per packet breaks the budget.
    assert 3 * _occupancy("dram", 2) * pps > ME_HZ


def test_memory_words_roundtrip():
    mem = MemorySystem()
    mem.write_words("sram", 64, [0x11223344, 0xAABBCCDD])
    assert mem.read_words("sram", 64, 2) == [0x11223344, 0xAABBCCDD]
    assert mem.read_bytes("sram", 64, 3) == b"\x11\x22\x33"


def test_memory_byte_masked_write():
    mem = MemorySystem()
    mem.write_words("dram", 2048, [0xFFFFFFFF, 0xFFFFFFFF])
    # Write only bytes 1,2 of word 0 and byte 0 of word 1 (bit k = byte k).
    mask = (1 << 1) | (1 << 2) | (1 << 4)
    mem.write_words("dram", 2048, [0x00000000, 0x00000000], byte_mask=mask)
    assert mem.read_words("dram", 2048, 2) == [0xFF0000FF, 0x00FFFFFF]


def test_memory_bounds_checked():
    mem = MemorySystem()
    with pytest.raises(IndexError):
        mem.read_words("scratch", 10**9, 1)


def test_counters_delta():
    mem = MemorySystem()
    mem.timed_access(0.0, "dram", 2, "pkt")
    before = mem.counters.snapshot()
    mem.timed_access(0.0, "dram", 2, "pkt")
    mem.timed_access(0.0, "sram", 1, "app")
    delta = Counters.delta(mem.counters.snapshot(), before)
    assert delta["accesses"][("dram", "pkt")] == 1
    assert delta["accesses"][("sram", "app")] == 1


def test_access_profile_rows():
    mem = MemorySystem()
    for _ in range(10):
        mem.timed_access(0.0, "dram", 2, "pkt")
        mem.timed_access(0.0, "sram", 1, "app")
    profile = AccessProfile.from_counters(
        Counters.delta(mem.counters.snapshot(), Counters().snapshot()),
        packets=10,
    )
    assert profile.pkt_dram == 1.0
    assert profile.app_sram == 1.0
    assert profile.total == 2.0


def test_read_bytes_out_of_range():
    """Out-of-range byte reads raise instead of silently truncating
    the returned slice (a short Tx payload is data corruption, not an
    error the caller can see)."""
    mem = MemorySystem()
    size = len(mem.stores["scratch"])
    assert mem.read_bytes("scratch", size - 4, 4) == b"\x00" * 4
    with pytest.raises(IndexError):
        mem.read_bytes("scratch", size - 3, 4)
    with pytest.raises(IndexError):
        mem.read_bytes("scratch", -1, 4)


def test_write_bytes_out_of_range():
    """Out-of-range byte writes raise IndexError, with the store still
    at its configured channel size."""
    mem = MemorySystem()
    size = len(mem.stores["sram"])
    mem.write_bytes("sram", size - 2, b"\xAA\xBB")
    assert len(mem.stores["sram"]) == size
    with pytest.raises(IndexError):
        mem.write_bytes("sram", size - 1, b"\xAA\xBB")
    with pytest.raises(IndexError):
        mem.write_bytes("sram", -1, b"\xAA")
    assert len(mem.stores["sram"]) == size, "store must not have grown"


def test_fresh_chip_reads_zero_at_both_ends():
    """Stores are zero until written, first word to last, in every space."""
    chip = IXP2400()
    for space, size in SIZES.items():
        assert len(chip.memory.stores[space]) == size
        for addr in (0, size - 4):
            assert chip.memory.read_words(space, addr, 1) == [0], (space, addr)


def test_closed_chip_store_raises():
    """close() releases the stores: touching one afterwards is an error,
    never an empty read."""
    chip = IXP2400()
    chip.memory.write_words("sram", 0, [7])
    chip.close()
    chip.close()
    for touch in (lambda: chip.memory.read_words("sram", 0, 1),
                  lambda: chip.memory.read_bytes("dram", 0, 4),
                  lambda: chip.memory.stores["scratch"][0:4]):
        with pytest.raises(ValueError):
            touch()


# -- rings / CAM --------------------------------------------------------------------


def test_ring_fifo_and_empty():
    r = Ring("r", capacity=2)
    assert r.get() == 0
    assert r.put(5) and r.put(6)
    assert not r.put(7)  # full
    assert r.drops == 1
    assert r.get() == 5 and r.get() == 6


# -- microengine on a hand-built image ------------------------------------------------


def _mini_image(insns, entry_label="main"):
    image = MEImage(name="test")
    image.insns = insns
    image.label_index = {entry_label: 0}
    image.entry = 0
    for idx, insn in enumerate(insns):
        if isinstance(insn, (isa.Br, isa.Bal)) and insn.resolved is None:
            insn.resolved = image.label_index.get(insn.target, 0)
    return image


def test_me_executes_alu_and_halts():
    a0, a1, b0 = isa.PReg("a", 0), isa.PReg("a", 1), isa.PReg("b", 0)
    insns = [
        isa.Immed(a0, 20),
        isa.Immed(b0, 22),
        isa.Alu("add", a1, a0, b0),
        isa.Halt(),
    ]
    chip = IXP2400()
    me = Microengine(0, _mini_image(insns), chip, n_threads=1)
    me.run_slice(10_000)
    assert me.threads[0].a[1] == 42
    assert me.threads[0].halted


def test_me_memory_roundtrip_blocks_thread():
    a0, a1 = isa.PReg("a", 0), isa.PReg("a", 1)
    insns = [
        isa.Immed(a0, 0xBEEF),
        isa.Mem("sram", "write", [a0], isa.Imm(256), isa.Imm(0), 1),
        isa.Mem("sram", "read", [a1], isa.Imm(256), isa.Imm(0), 1),
        isa.Halt(),
    ]
    chip = IXP2400()
    me = Microengine(0, _mini_image(insns), chip, n_threads=1)
    while not me.threads[0].halted:
        nxt = me.run_slice(1000)
        if nxt is None:
            break
        me.time = max(me.time, nxt)
    assert me.threads[0].a[1] == 0xBEEF
    assert chip.memory.counters.accesses[("sram", "app")] == 2


def test_me_threads_interleave_on_memory():
    # Two threads each do a memory op; the second runs while the first waits.
    a0 = isa.PReg("a", 0)
    insns = [
        isa.Mem("sram", "read", [a0], isa.Imm(0), isa.Imm(0), 1),
        isa.Halt(),
    ]
    chip = IXP2400()
    me = Microengine(0, _mini_image(insns), chip, n_threads=2)
    while any(not t.halted for t in me.threads):
        nxt = me.run_slice(10_000)
        if nxt is None:
            break
        me.time = max(me.time, nxt)
    assert all(t.halted for t in me.threads)


def test_me_rejects_virtual_register():
    v = isa.VReg()
    insns = [isa.Immed(v, 1), isa.Halt()]
    chip = IXP2400()
    me = Microengine(0, _mini_image(insns), chip, n_threads=1)
    with pytest.raises((SimError, AttributeError)):
        me.run_slice(100)


def test_branch_conditions():
    a0, a1 = isa.PReg("a", 0), isa.PReg("a", 1)
    insns = [
        isa.Immed(a0, 5),
        isa.Cmp(a0, isa.Imm(9)),
        isa.Br("lt_u", "yes"),
        isa.Immed(a1, 0),
        isa.Halt(),
        isa.Immed(a1, 1),  # label 'yes'
        isa.Halt(),
    ]
    image = _mini_image(insns)
    image.label_index["yes"] = 5
    insns[2].resolved = 5
    chip = IXP2400()
    me = Microengine(0, image, chip, n_threads=1)
    me.run_slice(1000)
    assert me.threads[0].a[1] == 1


def test_signed_branch():
    a0, a1 = isa.PReg("a", 0), isa.PReg("a", 1)
    insns = [
        isa.Immed(a0, 0xFFFFFFFF),  # -1 signed
        isa.Cmp(a0, isa.Imm(0)),
        isa.Br("lt_s", "neg"),
        isa.Immed(a1, 0),
        isa.Halt(),
        isa.Immed(a1, 1),
        isa.Halt(),
    ]
    image = _mini_image(insns)
    image.label_index["neg"] = 5
    insns[2].resolved = 5
    chip = IXP2400()
    me = Microengine(0, image, chip, n_threads=1)
    me.run_slice(1000)
    assert me.threads[0].a[1] == 1


# -- system end-to-end ------------------------------------------------------------------


@pytest.mark.parametrize("level", LEVEL_ORDER)
def test_simulator_matches_reference(level):
    trace = trace40()
    result = compile_baker(MINI_FORWARDER, options_for(level), trace)
    assert verify_against_reference(result, trace, packets=40), level


def test_simulator_multi_me_matches_reference():
    trace = trace40(seed=11)
    result = compile_baker(MINI_FORWARDER, options_for("SWC"), trace)
    assert verify_against_reference(result, trace, packets=60, n_mes=4)


def test_forwarding_rate_improves_with_optimization():
    trace = trace40(arp_fraction=0.02)
    base = compile_baker(MINI_FORWARDER, options_for("BASE"), trace)
    best = compile_baker(MINI_FORWARDER, options_for("SWC"), trace)
    r_base = run_on_simulator(base, trace, n_mes=6, warmup_packets=50,
                              measure_packets=150)
    r_best = run_on_simulator(best, trace, n_mes=6, warmup_packets=50,
                              measure_packets=150)
    assert r_best.forwarding_gbps > 2 * r_base.forwarding_gbps


def test_memory_accesses_drop_with_optimization():
    trace = trace40(arp_fraction=0.02)
    base = compile_baker(MINI_FORWARDER, options_for("BASE"), trace)
    best = compile_baker(MINI_FORWARDER, options_for("SWC"), trace)
    r_base = run_on_simulator(base, trace, n_mes=2, warmup_packets=50,
                              measure_packets=150)
    r_best = run_on_simulator(best, trace, n_mes=2, warmup_packets=50,
                              measure_packets=150)
    assert r_best.access_profile.total < r_base.access_profile.total / 2
    assert r_best.access_profile.pkt_dram <= 3.0


def test_rate_scales_with_mes_when_optimized():
    """More MEs forward more until a memory channel is the bound.
    L3-Switch at SWC is ME-bound on one ME (DRAM about a third busy), so
    four forward well over 1.4x as much. MINI_FORWARDER at SWC keeps DRAM
    about 72 % busy on one ME already; four still gain and run DRAM at
    its bound, which is all the headroom there is."""
    from repro.apps import get_app
    from repro.obs.profile import StallProfiler, channel_utilization

    def rate(result, trace, n_mes, profiler=None):
        return run_on_simulator(result, trace, n_mes=n_mes, warmup_packets=50,
                                measure_packets=150, profiler=profiler)

    app = get_app("l3switch")
    trace = app.make_trace(200, seed=5)
    result = compile_baker(app.source, options_for("SWC"), trace)
    r1, r4 = rate(result, trace, 1), rate(result, trace, 4)
    assert r4.forwarding_gbps > 1.4 * r1.forwarding_gbps

    trace = trace40(arp_fraction=0.02)
    result = compile_baker(MINI_FORWARDER, options_for("SWC"), trace)
    r1 = rate(result, trace, 1)
    r4 = rate(result, trace, 4, StallProfiler())
    assert r4.forwarding_gbps > 1.3 * r1.forwarding_gbps
    assert channel_utilization(r4.occupancy)["dram"] >= 0.95


def test_offered_load_cap():
    trace = trace40(arp_fraction=0.0)
    result = compile_baker(PASSTHROUGH.replace("fwd", "f"), options_for("SWC"),
                           trace)
    r = run_on_simulator(result, trace, n_mes=6, offered_gbps=1.0,
                         warmup_packets=50, measure_packets=150)
    assert r.forwarding_gbps <= 1.05  # cannot beat the offered load


def test_loader_places_symbols():
    trace = trace40()
    result = compile_baker(MINI_FORWARDER, options_for("SWC"), trace)
    chip = IXP2400(n_programmable_mes=2)
    layout = load_system(result, chip, n_mes=2)
    assert "mac_addrs" in chip.symbols
    assert chip.symbols["mac_addrs"] >= 64
    assert chip.rings.get("ring.rx") is not None
    assert chip.rings.get("ring.tx") is not None
    assert len(chip.rings["ring.__buf_free"]) > 0
    # Initial values visible in simulated SRAM:
    addr = chip.symbols["mac_addrs"]
    assert chip.memory.read_bytes("sram", addr, 8) == (0x0A0000000001).to_bytes(8, "big")


def test_loader_rejects_too_many_stages():
    from repro.rts.loader import LoaderError

    trace = trace40()
    from repro.cg.codesize import estimate_closure
    from tests.ir_helpers import lower as lower_ir

    mod = lower_ir(MINI_FORWARDER)
    limit = int(
        max(estimate_closure(mod, [fn.name], options_for("BASE"))
            for fn in mod.ppfs()) * 1.2
    )
    result = compile_baker(MINI_FORWARDER,
                           options_for("BASE", me_code_store=limit), trace)
    assert len(result.plan.me_aggregates) >= 2
    chip = IXP2400(n_programmable_mes=1)
    with pytest.raises(LoaderError):
        load_system(result, chip, n_mes=1)


def test_xscale_services_control_packets():
    # ARP packets (cold path) go through the XScale-mapped handler and
    # update the shared counter in simulated memory.
    trace = ipv4_trace(60, [0xC0A80101], MACS, arp_fraction=0.04, seed=13)
    result = compile_baker(MINI_FORWARDER, options_for("SWC"), trace)
    xscale_ppfs = [p for a in result.plan.xscale_aggregates for p in a.ppfs]
    assert "l3_switch.arp_handler" in xscale_ppfs
    chip = IXP2400(n_programmable_mes=2)
    load_system(result, chip, n_mes=2)
    rx = RxEngine(chip, trace, offered_gbps=1.0, max_packets=60, repeat=False)
    tx = TxEngine(chip)
    chip.attach_traffic(rx, tx)
    buf_free = chip.rings["ring.__buf_free"]
    pool = len(buf_free.items)
    # Stop once all 60 went in and every buffer is back on the free ring
    # (nothing more can come out), then drain briefly for a straggler.
    chip.run(4_000_000, stop=lambda: rx.sent >= 60 and len(buf_free.items) == pool)
    chip.run_for(300_000)
    assert chip.xscale.serviced > 0
    arp_calls = chip.xscale.profile.ppf_invocations["l3_switch.arp_handler"]
    assert arp_calls > 0
    counter = chip.memory.read_words("sram", chip.symbols["arp_seen"], 1)[0]
    assert counter == arp_calls
