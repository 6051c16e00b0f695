"""Observability layer (repro.obs) and the Rx/ring accounting fixes:
what every compile records (IR size per stage, hot Baker lines), ring
overflow/leak accounting, Rx trace exhaustion,
run/run_for semantics, and the observer-on == observer-off
bit-identical guarantee."""

import json

from repro.compiler import compile_baker
from repro.ixp.chip import IXP2400
from repro.ixp.rings import Ring
from repro.ixp.rxtx import RxEngine, TxEngine
from repro.obs import ledger as obs_ledger
from repro.options import options_for
from repro.profiler.trace import Trace, TracePacket, ipv4_trace
from repro.rts.system import run_on_simulator

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


# -- ring accounting ------------------------------------------------------------


def test_ring_overflow_and_watermark_accounting():
    ring = Ring("r", capacity=2)
    assert ring.put(1) and ring.put(2)
    assert not ring.put(3)  # full: rejected and counted
    assert (ring.puts, ring.drops, ring.max_depth) == (2, 1, 2)
    assert ring.get() == 1
    assert ring.get() == 2
    assert ring.get() == 0  # empty: hardware returns 0
    assert (ring.gets, ring.empty_gets) == (2, 1)
    assert ring.max_depth == 2  # watermark survives draining


# -- Rx/Tx engines --------------------------------------------------------------


def _bare_chip(rx_capacity=4, pool=4):
    chip = IXP2400(n_programmable_mes=1)
    meta_free = chip.rings.create("ring.__meta_free", capacity=pool)
    buf_free = chip.rings.create("ring.__buf_free", capacity=pool)
    chip.rings.create("ring.rx", capacity=rx_capacity)
    chip.rings.create("ring.tx", capacity=rx_capacity)
    for i in range(pool):
        meta_free.put(64 + 32 * i)
        buf_free.put(2048 * (i + 1))
    return chip


def _trace(n, size=64):
    return Trace([TracePacket(bytes([i % 251] * size), i % 3)
                  for i in range(n)])


def test_rx_exhaustion_repeat_false():
    chip = _bare_chip(rx_capacity=8, pool=8)
    rx = RxEngine(chip, _trace(3), offered_gbps=1.0, repeat=False)
    delays = [rx.inject_next() for _ in range(5)]
    assert [d is None for d in delays] == [False, False, False, True, True]
    assert rx.sent == 3
    assert len(chip.rings["ring.rx"]) == 3


def test_rx_exhaustion_max_packets_caps_before_selection():
    chip = _bare_chip(rx_capacity=8, pool=8)
    rx = RxEngine(chip, _trace(3), offered_gbps=1.0, repeat=True,
                  max_packets=5)
    while rx.inject_next() is not None:
        pass
    assert rx.sent == 5  # wraps the 3-packet trace, stops at the budget

    # max_packets tighter than the trace, repeat off: budget wins.
    chip = _bare_chip(rx_capacity=8, pool=8)
    rx = RxEngine(chip, _trace(3), offered_gbps=1.0, repeat=False,
                  max_packets=2)
    while rx.inject_next() is not None:
        pass
    assert rx.sent == 2


def test_rx_empty_trace():
    chip = _bare_chip()
    rx = RxEngine(chip, Trace([]), offered_gbps=1.0)
    assert rx.inject_next() is None
    assert rx.sent == 0 and rx.dropped == 0


def test_rx_drop_causes_counted_separately():
    chip = _bare_chip(rx_capacity=2, pool=8)
    rx = RxEngine(chip, _trace(2), offered_gbps=1.0, repeat=True)
    free0 = (len(chip.rings["ring.__meta_free"]),
             len(chip.rings["ring.__buf_free"]))
    for _ in range(2):
        rx.inject_next()
    assert rx.dropped == 0
    # rx ring now full -> ring_full drop, free handles recycled.
    rx.inject_next()
    assert (rx.dropped_freelist, rx.dropped_ring_full) == (0, 1)
    assert (len(chip.rings["ring.__meta_free"]),
            len(chip.rings["ring.__buf_free"])) == (free0[0] - 2, free0[1] - 2)

    # Drain the free lists -> freelist_empty drop (rx ring still full).
    while chip.rings["ring.__meta_free"].get():
        pass
    rx.inject_next()
    assert (rx.dropped_freelist, rx.dropped_ring_full) == (1, 1)
    assert rx.dropped == 2
    assert rx.leaked_meta == 0 and rx.leaked_buffers == 0


def test_rx_recycle_leak_is_detected():
    """Regression: a failed put back onto a free ring must be counted,
    not silently discarded (the pre-fix code ignored put()'s return)."""
    chip = _bare_chip(rx_capacity=0, pool=4)  # every packet drops
    rx = RxEngine(chip, _trace(1), offered_gbps=1.0)
    # Sabotage the meta free ring so the recycle put is rejected.
    chip.rings["ring.__meta_free"].capacity = 0
    rx.inject_next()
    assert rx.dropped_ring_full == 1
    assert rx.leaked_meta == 1
    assert rx.leaked_buffers == 0  # buffer recycle still fit


def test_tx_recycle_leak_is_detected():
    chip = _bare_chip(rx_capacity=4, pool=2)
    meta = 64
    buf = 2048
    chip.memory.write_words("sram", meta, [buf, 0, 8, 0])
    chip.memory.write_bytes("dram", buf, bytes(range(8)))
    chip.rings["ring.tx"].put(meta)
    # Free rings are already full (nothing was popped), so both recycle
    # puts are rejected -> counted as leaks.
    tx = TxEngine(chip)
    tx.poll(0.0)
    assert tx.packets_out() == 1
    assert tx.records[0].payload == bytes(range(8))
    assert (tx.leaked_buffers, tx.leaked_meta) == (1, 1)


# -- chip.run semantics ---------------------------------------------------------


def test_run_is_absolute_and_run_for_is_relative():
    chip = IXP2400(n_programmable_mes=1)
    ticks = []

    def tick():
        ticks.append(chip.now)
        return chip.now + 100.0

    chip.schedule(0.0, tick)
    chip.run(1000.0)
    assert chip.now == 1000.0
    n1 = len(ticks)
    # Absolute deadline already reached: a second run(1000) is a no-op.
    chip.run(1000.0)
    assert chip.now == 1000.0 and len(ticks) == n1
    # Relative budget advances past it.
    chip.run_for(500.0)
    assert chip.now == 1500.0
    assert len(ticks) == n1 + 5


# -- end-to-end smoke -----------------------------------------------------------


def _mini_result():
    from tests.samples import MINI_FORWARDER

    trace = ipv4_trace(60, [0xC0A80101], MACS, seed=3)
    result = compile_baker(MINI_FORWARDER, options_for("O1"), trace)
    return result, trace


def test_timeseries_attached_run_is_bit_identical():
    """Attaching a TimeseriesCollector (the streaming window hook) must
    not perturb the simulation in any observable way: the zero-impact
    proof for the serve/observability stack."""
    from repro.obs.timeseries import TimeseriesCollector

    result, trace = _mini_result()
    kwargs = dict(n_mes=2, warmup_packets=30, measure_packets=90)

    off = run_on_simulator(result, trace, **kwargs)
    collector = TimeseriesCollector(window_cycles=5_000.0)
    on = run_on_simulator(result, trace, timeseries=collector, **kwargs)

    assert on.forwarding_gbps == off.forwarding_gbps
    assert on.packets_measured == off.packets_measured
    assert on.packets_out == off.packets_out
    assert on.rx_offered == off.rx_offered
    assert on.rx_dropped == off.rx_dropped
    assert on.sim_cycles == off.sim_cycles
    assert on.me_utilization == off.me_utilization
    assert on.access_profile.row() == off.access_profile.row()
    assert on.me_executed_instrs == off.me_executed_instrs
    assert on.me_times == off.me_times
    assert on.tx_signature() == off.tx_signature()

    # ... and the collector actually observed the run.
    assert collector.windows
    assert collector.finished_at == on.sim_cycles
    total_tx = sum(w["counters"].get("tx.packets", 0)
                   for w in collector.windows)
    assert total_tx == on.packets_out


def test_report_main_exits_nonzero_on_bad_input(tmp_path, capsys):
    """There is no default view: a bare invocation -- or a path where a
    subcommand belongs, the old ``report metrics.jsonl`` spelling --
    prints the subcommands and exits 2 without reading anything."""
    from repro.obs.report import main as report_main

    stray = tmp_path / "metrics.jsonl"
    stray.write_text("{not json\n")
    for argv in ([], [str(stray)], ["--json"]):
        assert report_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        for sub in ("explain", "timeline", "bottleneck", "waterfall"):
            assert sub in captured.err


def test_compile_telemetry_recorded(tmp_path, capsys):
    """Every compile report carries IR size after each stage and the hot
    Baker lines. Two compiles in one process give byte-equal reports."""
    from repro.apps import APP_CLASSES, get_app
    from repro.obs.report import main as report_main

    for name in sorted(APP_CLASSES):
        app = get_app(name)
        trace = app.make_trace(120, seed=5)
        results = [compile_baker(app.source, options_for("SWC"), trace)
                   for _ in range(2)]
        reports = [obs_ledger.compile_report(r, app=name) for r in results]
        dumps = [json.dumps(r, sort_keys=True) for r in reports]
        assert dumps[0] == dumps[1], name
        report = reports[0]
        assert [st["stage"] for st in report["ir_stages"]] == [
            "initial", "scalar", "aggregate", "pac", "soar", "phr", "swc"]
        for st in report["ir_stages"]:
            assert st["functions"] > 0 and st["blocks"] > 0
        # Nothing after SWC adds or removes IR: the last row is the
        # module the code generator saw.
        assert report["ir_stages"][-1]["instrs"] == report["ir"]["instrs"]
        hot = results[0].profile.hot_lines(32)
        assert hot and report["hot_lines"] == [
            {"src": src, "instrs": n} for src, n in hot]

        path = obs_ledger.write_compile_report(
            results[0], str(tmp_path / (name + ".json")), app=name)
        assert report_main(["explain", path]) == 0
        out = capsys.readouterr().out
        assert "IR size after each stage:" in out
        assert "Hot Baker source lines" in out
        assert hot[0][0] in out
        swc_row = [ln for ln in out.splitlines()
                   if ln.split()[:1] == ["swc"]]
        assert swc_row and swc_row[0].split()[-1].startswith(("+", "-"))


# -- hot-path attribution and per-pass counters -----------------------------------


def test_profile_hot_lines_attribution():
    """The profiler charges interpreted instructions to Baker source
    lines: every line-attributed instruction the PPFs ran, ranked."""
    from repro.baker import parse_and_check
    from repro.baker.lowering import lower_program
    from repro.profiler.interpreter import run_reference
    from tests.samples import MINI_FORWARDER

    trace = ipv4_trace(40, [0xC0A80101], MACS, seed=3)
    run = run_reference(
        lower_program(parse_and_check(MINI_FORWARDER, "mini.bk")), trace)
    hot = run.profile.hot_lines(5)
    assert hot, "no lines attributed"
    for src, count in hot:
        fname, _, line = src.rpartition(":")
        assert fname == "mini.bk" and int(line) >= 1 and count > 0
    counts = [c for _, c in hot]
    assert counts == sorted(counts, reverse=True)
    # Terminators carry no line: attributed <= executed.
    assert 0 < sum(run.profile.line_instrs.values()) \
        <= sum(run.profile.ppf_instrs.values())


def test_scalar_fixpoint_exhaustion_is_reported(monkeypatch):
    """A starved fixpoint budget is surfaced as a ledger warning instead
    of failing silently."""
    from repro.baker import parse_and_check
    from repro.baker.lowering import lower_program
    from repro.opt import pipeline
    from tests.samples import MINI_FORWARDER

    monkeypatch.setattr(pipeline, "_MAX_ITER", 1)
    mod = lower_program(parse_and_check(MINI_FORWARDER, "mini.bk"))
    with obs_ledger.collecting([]) as decisions:
        for fn in mod.functions.values():
            pipeline.scalar_optimize_function(fn)
    warnings = [d for d in decisions
                if d.pass_name == "scalar"
                and d.verdict == "fixpoint_exhausted"]
    assert warnings
    assert warnings[0].evidence == {"iterations": 1, "max_iter": 1}
    assert "still changing" in warnings[0].reason

    # With the default budget the same functions converge: no record.
    monkeypatch.undo()
    mod = lower_program(parse_and_check(MINI_FORWARDER, "mini.bk"))
    with obs_ledger.collecting([]) as decisions:
        for fn in mod.functions.values():
            pipeline.scalar_optimize_function(fn)
    assert not decisions


def test_scalar_fixpoint_converges_within_four_rounds(monkeypatch):
    """MPLS's peeled classifier is the slowest function the scalar pass
    set converges on; one rewrite pass settles it in four rounds (three
    that change something and one that confirms)."""
    from repro.apps import get_app
    from repro.opt import pipeline
    from repro.sweep import TRACE_PACKETS

    monkeypatch.setattr(pipeline, "_MAX_ITER", 4)
    app = get_app("mpls")
    trace = app.make_trace(TRACE_PACKETS, seed=5)
    for level in ("PAC", "SOAR", "PHR", "SWC"):
        result = compile_baker(app.source, options_for(level), trace,
                               codegen=False)
        assert not [d for d in result.decisions
                    if d.verdict == "fixpoint_exhausted"], level
