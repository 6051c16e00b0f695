"""System-level robustness and edge-case tests: overload behavior,
delayed-update staleness on the real simulator, degenerate inputs,
failure injection."""

import pytest

from repro.apps import get_app
from repro.cg.melayout import SWC_REGION_BASE
from repro.compiler import compile_baker
from repro.ixp.chip import IXP2400
from repro.ixp.rxtx import RxEngine, TxEngine
from repro.opt import swc
from repro.options import options_for
from repro.profiler.trace import Trace, TracePacket, build_ethernet, ipv4_trace
from repro.rts.loader import load_system
from repro.rts.system import run_on_simulator
from tests.samples import ETHER_IPV4_PROTOCOLS, MINI_FORWARDER, PASSTHROUGH

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


def test_overload_drops_at_rx_not_deadlock():
    """A slow (BASE) build under full offered load sheds packets at the
    rx ring and keeps forwarding at its own rate."""
    trace = ipv4_trace(60, [0xC0A80101], MACS, seed=3)
    result = compile_baker(MINI_FORWARDER, options_for("BASE"), trace)
    run = run_on_simulator(result, trace, n_mes=1, offered_gbps=3.0,
                           warmup_packets=40, measure_packets=150)
    assert run.rx_dropped > 0
    assert 0 < run.forwarding_gbps < 1.5
    assert run.packets_measured > 0


def test_underload_forwards_everything():
    trace = ipv4_trace(60, [0xC0A80101], MACS, seed=3)
    result = compile_baker(MINI_FORWARDER, options_for("SWC"), trace)
    run = run_on_simulator(result, trace, n_mes=4, offered_gbps=0.5,
                           warmup_packets=40, measure_packets=150)
    assert run.rx_dropped == 0
    assert run.forwarding_gbps == pytest.approx(0.5, rel=0.1)


def _stamping_service(n_mes):
    """A one-line PPF stamping the SWC-cached ``tbl[0]`` into each frame,
    running at 1 Gbps with the cache warm. Returns ``(chip, layout, tx)``."""
    src = (
        ETHER_IPV4_PROTOCOLS
        + """
u32 tbl[4] = { 7, 7, 7, 7 };
module m {
  ppf p(ether_pkt *ph) from rx {
    // Stamp the cached value into the frame so Tx can observe it.
    ph->type = tbl[0] & 0xffff;
    channel_put(tx, ph);
  }
}
"""
    )
    trace = ipv4_trace(40, [1], MACS)
    result = compile_baker(src, options_for("SWC", swc_check_period=8), trace)
    assert "tbl" in result.swc_result.cached_names()

    chip = IXP2400(n_programmable_mes=n_mes)
    layout = load_system(result, chip, n_mes=n_mes)
    rx = RxEngine(chip, trace, offered_gbps=1.0)
    tx = TxEngine(chip)
    chip.attach_traffic(rx, tx)
    chip.run(60_000, stop=lambda: tx.packets_out() >= 6)
    return chip, layout, tx


def _control_plane_write(chip, layout, value):
    """Store ``tbl[0] = value`` the way every writer must (swc.publish_store)."""
    xscale = chip.xscale.globals
    xscale.store("tbl", 0, value, 4)
    assert swc.publish_store(xscale, "tbl")


def _stamped(tx):
    return [int.from_bytes(r.payload[12:14], "big") for r in tx.records]


def test_swc_staleness_on_simulator():
    """Control-plane table update becomes visible on the data path only
    after the periodic coherency check -- on the simulated chip, with
    real CAM/Local Memory and multiple threads."""
    chip, layout, tx = _stamping_service(n_mes=1)
    _control_plane_write(chip, layout, 99)
    chip.run(2_000_000, stop=lambda: tx.packets_out() >= 40)
    values = _stamped(tx)
    assert 7 in values, "expected some pre-update values"
    assert values[-1] == 99, "cache must eventually pick up the update"
    assert values == sorted(values, key=lambda v: v == 99), "7s then 99s"


@pytest.mark.parametrize("n_mes", [1, 2, 3, 6])
def test_swc_update_reaches_every_me(n_mes):
    """Section 5.2 on N engines: every ME flushes for every update. With
    a shared flag the first ME to check cleared it, and the others
    served the old line for as long as it stayed hot. (Several MEs
    interleave old and new while their checks come due; only the tail
    must be clean.)"""
    chip, layout, tx = _stamping_service(n_mes)
    before = tx.packets_out()
    _control_plane_write(chip, layout, 99)
    chip.run(50_000_000, stop=lambda: tx.packets_out() >= before + 400)
    values = _stamped(tx)[before:before + 400]
    assert len(values) == 400
    assert 7 not in values[-100:], "%d stale frames among the last 100" % (
        values[-100:].count(7))
    generation = chip.xscale.globals.load("tbl" + swc.FLAG_SUFFIX, 0, 4)
    assert generation == 1
    assert [me.lm[SWC_REGION_BASE + swc.SEEN_INDEX] for me in chip.mes] \
        == [generation] * n_mes


def test_compile_with_empty_trace_degrades_gracefully():
    result = compile_baker(MINI_FORWARDER, options_for("SWC"), Trace([]))
    # No profile data: nothing cached, but the build still succeeds and
    # produces loadable images.
    assert result.images
    assert result.swc_result.cached_names() == []


def test_non_ip_unknown_frames_hit_error_path():
    app = get_app("l3switch")
    # Frames to an unknown station MAC: bridge misses -> err path (XScale).
    frames = [TracePacket(build_ethernet(0x0BADBEEF0000 + i, 0x02, 0x9999, b""), i % 3)
              for i in range(30)]
    trace = Trace(frames)
    result = compile_baker(app.source, options_for("SWC"),
                           app.make_trace(100, seed=5))
    chip = IXP2400(n_programmable_mes=2)
    load_system(result, chip, n_mes=2)
    rx = RxEngine(chip, trace, offered_gbps=1.0, max_packets=30, repeat=False)
    tx = TxEngine(chip)
    chip.attach_traffic(rx, tx)
    chip.run(6_000_000)
    errs = chip.memory.read_words("sram", chip.symbols["err_drops"], 1)[0]
    assert errs == 30
    assert tx.packets_out() == 0


def test_locks_serialize_cross_me_counter():
    """The shared counter behind a critical section must not lose updates
    even with 2 MEs x 8 threads hammering it."""
    src = (
        ETHER_IPV4_PROTOCOLS
        + """
shared u32 counter = 0;
module m {
  ppf p(ether_pkt *ph) from rx {
    critical (c) {
      counter = counter + 1;
    }
    channel_put(tx, ph);
  }
}
"""
    )
    trace = ipv4_trace(80, [1], MACS)
    result = compile_baker(src, options_for("O2"), trace)
    chip = IXP2400(n_programmable_mes=2)
    load_system(result, chip, n_mes=2)
    rx = RxEngine(chip, trace, offered_gbps=3.0, max_packets=80, repeat=False)
    tx = TxEngine(chip)
    chip.attach_traffic(rx, tx)
    chip.run(8_000_000, stop=lambda: tx.packets_out() >= 80)
    assert tx.packets_out() == 80
    counter = chip.memory.read_words("sram", chip.symbols["counter"], 1)[0]
    assert counter == 80


def test_me_utilization_reported():
    trace = ipv4_trace(60, [0xC0A80101], MACS, seed=3)
    result = compile_baker(MINI_FORWARDER, options_for("SWC"), trace)
    run = run_on_simulator(result, trace, n_mes=2, warmup_packets=40,
                           measure_packets=120)
    assert 0.0 < run.me_utilization <= 1.0


def test_packet_create_and_drop_recycle_pool():
    """ARP replies allocate packets on the XScale; buffers must recycle
    (pool does not leak over time)."""
    app = get_app("l3switch")
    trace = app.make_trace(200, seed=13, arp_fraction=0.3)
    result = compile_baker(app.source, options_for("SWC"),
                           app.make_trace(100, seed=5))
    chip = IXP2400(n_programmable_mes=2)
    load_system(result, chip, n_mes=2)
    free0 = len(chip.rings["ring.__buf_free"])
    rx = RxEngine(chip, trace, offered_gbps=1.0, max_packets=200, repeat=False)
    tx = TxEngine(chip)
    chip.attach_traffic(rx, tx)
    chip.run(30_000_000, stop=lambda: rx.sent >= 200)
    chip.run_for(1_000_000)  # drain
    free1 = len(chip.rings["ring.__buf_free"])
    # Everything in flight has drained; the pool is back to (near) full.
    assert free1 >= free0 - 4
