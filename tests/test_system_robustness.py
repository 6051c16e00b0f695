"""System-level robustness and edge-case tests: overload behavior,
delayed-update staleness on the real simulator, degenerate inputs,
failure injection."""

from collections import Counter

import pytest

from repro.apps import get_app
from repro.apps.tables import R_ACTION, RULE_WORDS
from repro.cg.melayout import SWC_REGION_BASE
from repro.compiler import compile_baker
from repro.ixp.chip import IXP2400
from repro.ixp.rxtx import RxEngine, TxEngine
from repro.obs.timeseries import TimeseriesCollector
from repro.obs.trace import PacketTracer
from repro.opt import swc
from repro.options import options_for
from repro.profiler.trace import Trace, TracePacket, build_ethernet, ipv4_trace
from repro.rts.loader import boot_image, load_system
from repro.rts.system import run_on_simulator, verify_against_reference
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


# -- a resident table: Firewall's rule list in every ME's Local Memory ------------


def _firewall_swc():
    app = get_app("firewall")
    trace = app.make_trace(200, seed=5)
    result = compile_baker(app.source, options_for("SWC"), trace)
    assert [r.name for r in result.swc_result.resident] == ["fw_rules"]
    return app, trace, result


@pytest.mark.parametrize("n_mes", [1, 6])
def test_resident_table_is_in_place_before_the_first_packet(n_mes):
    """All eight threads of every ME start at once: the loader writes
    each ME's copy of the rule table (and SEEN) at boot, so the run
    forwards what the reference does from the first packet on."""
    app, trace, result = _firewall_swc()
    assert verify_against_reference(result, trace, packets=60, n_mes=n_mes)

    (res,) = result.swc_result.resident
    rules = boot_image(result)["fw_rules"]
    words = [int.from_bytes(rules[k:k + 4], "big")
             for k in range(0, len(rules), 4)]
    chip = IXP2400(n_programmable_mes=n_mes)
    load_system(result, chip, n_mes=n_mes)
    base = SWC_REGION_BASE + res.replica
    for me in chip.mes:
        assert me.lm[base:base + res.words] == words
        assert me.lm[SWC_REGION_BASE + swc.SEEN_INDEX] == 0
    chip.close()


def _frame_flow(app, frame):
    """The flow id the rule list gives an IPv4/UDP frame (0: catch-all)."""
    return app.config.classify(
        int.from_bytes(frame[26:30], "big"), int.from_bytes(frame[30:34], "big"),
        int.from_bytes(frame[34:36], "big"), int.from_bytes(frame[36:38], "big"),
        frame[23])[1]


@pytest.mark.parametrize("n_mes", [1, 3])
def test_resident_rule_toggle_takes_effect_within_the_check_bound(n_mes):
    """A control-plane store that turns the busiest pass rule into a
    drop rule, then ``publish_store``: every ME refreshes its copy when
    its periodic check comes due, so frames of that rule stop leaving
    within the bound tests/test_serve.py derives for a route flap."""
    app, trace, result = _firewall_swc()
    flows = Counter(_frame_flow(app, p.data) for p in trace.packets)
    passing = [i for i, rule in enumerate(app.config.rules[:-1])
               if rule.action == 0]
    rule = max(passing, key=lambda i: (flows[i + 1], -i))
    flow = rule + 1
    assert flows[flow] >= 10

    chip = IXP2400(n_programmable_mes=n_mes)
    load_system(result, chip, n_mes=n_mes)
    rx = RxEngine(chip, trace, offered_gbps=0.4 * n_mes)
    tx = TxEngine(chip)
    chip.attach_traffic(rx, tx)
    tracer = PacketTracer()
    chip.tracer = tracer
    collector = TimeseriesCollector(20_000.0)
    collector.attach(rx=rx, tx=tx, tracer=tracer)
    chip.window = collector
    chip.run(50_000_000, stop=lambda: tx.packets_out() >= 100)

    t_store = chip.now
    xscale = chip.xscale.globals
    xscale.store("fw_rules", (rule * RULE_WORDS + R_ACTION) * 4, 1, 4)
    assert swc.publish_store(xscale, "fw_rules")
    before = tx.packets_out()
    chip.run(100_000_000, stop=lambda: tx.packets_out() >= before + 600)
    tracer.finish(chip.now)
    collector.finish(chip.now)
    records = list(tx.records)
    # Every ME refreshed its whole copy from SRAM.
    (res,) = result.swc_result.resident
    table = [xscale.load("fw_rules", 4 * k, 4) for k in range(res.words)]
    base = SWC_REGION_BASE + res.replica
    assert all(me.lm[base:base + res.words] == table for me in chip.mes)
    chip.close()

    assert any(_frame_flow(app, r.payload) == flow
               for r in records if r.time <= t_store)
    late = [r.time - t_store for r in records
            if r.time > t_store and _frame_flow(app, r.payload) == flow]
    period = options_for("SWC").swc_check_period
    cycles_per_packet_per_me = n_mes * chip.now / len(records)
    bound = (2 * (period + 1) * cycles_per_packet_per_me
             + collector.cumulative.summary()["max"])
    assert records[-1].time - t_store > 2 * bound  # long enough to tell
    assert all(c <= bound for c in late), (late, bound)


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
    buf_free = chip.rings["ring.__buf_free"]
    pool = len(buf_free.items)

    def err_drops():
        return chip.memory.read_words("sram", chip.symbols["err_drops"], 1)[0]

    # Stop once every frame took the error path, or once all 30 went in
    # and every buffer is back on the free ring (nothing more can come
    # out); then drain briefly for a straggler, as
    # verify_against_reference does.
    chip.run_for(6_000_000, stop=lambda: err_drops() >= 30 or (
        rx.sent >= 30 and len(buf_free.items) == pool))
    chip.run_for(300_000)
    errs = err_drops()
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
