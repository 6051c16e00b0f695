"""Per-packet lifecycle tracing (repro.obs.trace) and the Chrome
trace-event exporter (repro.obs.export): tracer semantics, the
tracing-off == tracing-on bit-identical guarantee, exporter output
validity (JSON, monotonic timestamps, balanced begin/end), compile-stage
span capture, and where the latency summary and the hot lines are
rendered."""

import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.compiler import compile_baker
from repro.obs.export import chrome_trace_from_events, write_chrome_trace
from repro.obs.timeseries import TimeseriesCollector, nearest_rank
from repro.obs.trace import (
    PacketTracer,
    capture_compile_spans,
    compile_stage,
    drain_compile_spans,
    label_compile_spans,
)
from repro.options import options_for
from repro.profiler.trace import ipv4_trace
from repro.rts.system import run_on_simulator

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


@pytest.fixture
def no_compile_spans():
    """Leave compile-span capture disarmed afterwards."""
    yield
    capture_compile_spans(False)


def _mini_result():
    from tests.samples import MINI_FORWARDER

    trace = ipv4_trace(60, [0xC0A80101], MACS, seed=3)
    result = compile_baker(MINI_FORWARDER, options_for("O1"), trace)
    return result, trace


RUN_KW = dict(n_mes=2, warmup_packets=30, measure_packets=90)


def _latencies(tr):
    """Rx->Tx cycles of every forwarded packet, from its ``pkt_end``."""
    return [e.data["latency_cycles"] for e in tr.events
            if e.kind == "pkt_end" and e.data["outcome"] == "tx"]


# -- tracer unit semantics ------------------------------------------------------


def test_tracer_forward_path_and_latency():
    tr = PacketTracer()
    tr.rx_packet(64, 100.0, port=0, length=64)
    tr.me_ring_get(0, 0, "ring.rx", 64, 150.0)
    tr.me_ring_put(0, 0, "ring.chan", 64, 180.0)
    tr.tx_packet(64, 400.0, port=1, length=64)
    tr.finish(500.0)
    assert _latencies(tr) == [300.0]
    kinds = [e.kind for e in tr.events]
    assert kinds == ["pkt_begin", "ring_enq", "ring_deq", "span_begin",
                     "span_end", "ring_enq", "ring_deq", "pkt_end"]
    assert not tr.active and not tr.born and not tr._me_cur


def test_tracer_app_drop_and_recycled_handle():
    tr = PacketTracer()
    tr.rx_packet(64, 0.0, port=0, length=64)
    tr.me_ring_get(0, 0, "ring.rx", 64, 10.0)
    # The PPF drops: metadata handle goes back on the free list.
    tr.me_ring_put(0, 0, "ring.__meta_free", 64, 20.0)
    assert tr.drops == Counter({"app_drop": 1})
    # The same handle comes around again as a brand new packet.
    tr.rx_packet(64, 30.0, port=1, length=64)
    assert tr.active[64] == 2  # fresh per-lifetime id
    tr.tx_packet(64, 90.0, port=1, length=64)
    tr.finish(100.0)
    assert _latencies(tr) == [60.0]
    # Free-list traffic is never a packet event.
    assert all((e.data or {}).get("ring") != "ring.__meta_free"
               for e in tr.events)


def test_tracer_free_list_gets_and_failed_cc_put():
    tr = PacketTracer()
    # Buffer free-list activity is invisible.
    tr.me_ring_get(0, 0, "ring.__buf_free", 2048, 0.0)
    tr.me_ring_put(0, 0, "ring.__buf_free", 2048, 1.0)
    assert not tr.events
    # Allocation from the metadata free list starts a lifetime.
    tr.me_ring_get(0, 0, "ring.__meta_free", 96, 2.0)
    assert tr.active[96] == 1
    # A rejected channel put loses the handle: drop with cause.
    tr.me_ring_put(0, 1, "ring.chan", 96, 5.0, ok=False)
    assert tr.drops == Counter({"cc_ring_full": 1})
    assert not tr.active


def test_tracer_state_is_bounded_by_the_pool_and_max_events():
    """A lifetime's ``born`` entry goes when it ends, so ``active`` and
    ``born`` hold only packets in flight; ``events`` keeps the newest
    ``max_events``, and None keeps them all."""
    for max_events, kept in ((16, 16), (None, 4 * 200)):
        tr = PacketTracer(max_events=max_events)
        for i in range(200):
            tr.rx_packet(64, float(i), port=0, length=64)
            tr.tx_packet(64, i + 0.5, port=0, length=64)
            assert not tr.active and not tr.born
        assert len(tr.events) == kept
        assert tr.events[-1].pkt == 200 and tr.next_id == 201


def test_tracer_finish_closes_open_lifecycles():
    tr = PacketTracer()
    tr.rx_packet(64, 0.0, port=0, length=64)
    tr.me_ring_get(0, 3, "ring.rx", 64, 5.0)
    tr.finish(50.0)
    ends = [e for e in tr.events if e.kind == "pkt_end"]
    spans = [e for e in tr.events if e.kind == "span_end"]
    assert len(ends) == 1 and ends[0].data["outcome"] == "inflight"
    assert len(spans) == 1 and spans[0].data["disposition"] == "unfinished"


def test_tracer_finish_never_ends_a_span_before_it_begins():
    """A thread's clock can run past the stop time: the span it began
    there ends where it began, and the export stays balanced."""
    tr = PacketTracer()
    tr.rx_packet(64, 0.0, port=0, length=64)
    tr.me_ring_get(0, 0, "ring.rx", 64, 10.0)
    tr.finish(9.0)
    _check_chrome_trace(chrome_trace_from_events(tr.event_dicts()))


def test_percentiles_nearest_rank():
    vals = [float(v) for v in range(1, 101)]
    assert nearest_rank(vals, 0.50) == 50.0
    assert nearest_rank(vals, 0.95) == 95.0
    assert nearest_rank(vals, 0.99) == 99.0
    assert nearest_rank([7.0], 0.99) == 7.0
    # A tracer's latencies are summarized by the collector it feeds.
    tr = PacketTracer()
    c = TimeseriesCollector(window_cycles=1000.0)
    c.attach(tracer=tr)
    assert c.cumulative.summary()["count"] == 0
    for i, lat in enumerate((10.0, 20.0, 30.0, 40.0)):
        tr.rx_packet(64 + 32 * i, 0.0, port=0, length=64)
        tr.tx_packet(64 + 32 * i, lat, port=0, length=64)
    s = c.cumulative.summary()
    assert (s["count"], s["min"], s["max"]) == (4, 10.0, 40.0)
    assert s["p50"] == 20.0 and s["mean"] == 25.0


# -- zero-impact invariance -----------------------------------------------------


def test_tracing_on_run_is_bit_identical(tmp_path):
    """A traced run must match the untraced run exactly: same Tx
    signature, cycle counts, rates and per-ME accounting."""
    result, trace = _mini_result()

    off = run_on_simulator(result, trace, **RUN_KW)
    tr = PacketTracer()
    on = run_on_simulator(result, trace, tracer=tr,
                          trace_json=str(tmp_path / "run.trace.json"),
                          **RUN_KW)

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
    # ...and the traced run did see the packets.
    assert len(_latencies(tr)) == on.packets_out


def test_collector_sees_every_forwarded_latency():
    """Any tracer passed with ``timeseries=`` feeds the collector's
    sketches: one latency per transmitted packet."""
    result, trace = _mini_result()
    c = TimeseriesCollector(window_cycles=20_000.0)
    run = run_on_simulator(result, trace, tracer=PacketTracer(),
                           timeseries=c, **RUN_KW)
    assert run.packets_out > 0
    assert c.cumulative.count == run.packets_out
    assert sum(w["latency"]["count"] for w in c.windows) == run.packets_out


# -- exporter -------------------------------------------------------------------


def _traced_run(tmp_path):
    result, trace = _mini_result()
    tr = PacketTracer()
    json_path = str(tmp_path / "run.trace.json")
    run_on_simulator(result, trace, tracer=tr, trace_json=json_path,
                     **RUN_KW)
    return tr, json_path


def _check_chrome_trace(doc):
    evs = doc["traceEvents"]
    assert evs, "empty trace"
    ts = [e["ts"] for e in evs]
    assert all(a <= b for a, b in zip(ts, ts[1:])), "non-monotonic ts"
    # Balanced sync B/E per (pid, tid) and async b/e per id.
    sync = Counter()
    for e in evs:
        if e["ph"] == "B":
            sync[(e["pid"], e["tid"])] += 1
        elif e["ph"] == "E":
            sync[(e["pid"], e["tid"])] -= 1
            assert sync[(e["pid"], e["tid"])] >= 0, "E before B"
    assert not [k for k, v in sync.items() if v], "unbalanced B/E"
    async_ = Counter()
    for e in evs:
        if e["ph"] == "b":
            async_[(e["cat"], e["id"])] += 1
        elif e["ph"] == "e":
            async_[(e["cat"], e["id"])] -= 1
    assert not [k for k, v in async_.items() if v], "unbalanced b/e"
    return evs


def _track_names(evs):
    return {e["args"]["name"] for e in evs
            if e["ph"] == "M" and e["name"] == "process_name"}


def test_exporter_valid_monotonic_balanced(tmp_path):
    tr, json_path = _traced_run(tmp_path)
    assert _latencies(tr), "no packets forwarded?"
    with open(json_path) as fh:
        doc = json.load(fh)  # json.tool-level validity
    evs = _check_chrome_trace(doc)
    # Every traced packet shows up as one async lifecycle pair.
    pkt_pairs = sum(e["ph"] == "b" and e["cat"] == "pkt" for e in evs)
    assert pkt_pairs == tr.next_id - 1
    # One named track per ME plus the ring/packet processes.
    names = _track_names(evs)
    assert "packets" in names and "rings" in names
    assert any(n.startswith("ME") for n in names)

    # The file on disk is the exporter applied to the tracer's raw
    # events: one producer, no second format in between.
    again = str(tmp_path / "again.trace.json")
    write_chrome_trace(again, tr.event_dicts())
    with open(again) as fh:
        assert json.load(fh) == doc


def test_exporter_balances_a_wrapped_tracer():
    # The deque keeps the last events only: ends whose begins it dropped
    # are left out, begins it kept are closed at the last timestamp.
    result, trace = _mini_result()
    tr = PacketTracer(max_events=300)
    run_on_simulator(result, trace, tracer=tr, **RUN_KW)
    kept = list(tr.event_dicts())
    assert len(kept) == 300
    begun = {(e["kind"][:-6], e.get("pkt")) for e in kept
             if e["kind"] in ("pkt_begin", "span_begin")}
    orphans = {kind for kind in ("pkt", "span") for e in kept
               if e["kind"] == kind + "_end" and (kind, e.get("pkt")) not in begun}
    assert orphans == {"pkt", "span"}
    _check_chrome_trace(chrome_trace_from_events(kept))


_APP_COMPILES = {}


def _app_compile(app_name, level):
    key = (app_name, level)
    if key not in _APP_COMPILES:
        app = get_app(app_name)
        trace = app.make_trace(60, seed=5)
        _APP_COMPILES[key] = (
            compile_baker(app.source, options_for(level), trace), trace)
    return _APP_COMPILES[key]


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(app_name=st.sampled_from(("l3switch", "firewall", "mpls")),
       level=st.sampled_from(("BASE", "PAC", "SWC")),
       n_mes=st.integers(1, 6),
       offered=st.floats(0.5, 3.0),
       measure=st.integers(5, 40))
def test_observed_runs_export_cleanly_under_any_timing(
        app_name, level, n_mes, offered, measure):
    """Whatever the timing, the export is balanced and monotonic, the
    windows account for every transmitted packet, and observing changes
    no Tx byte."""
    result, trace = _app_compile(app_name, level)
    kw = dict(n_mes=n_mes, offered_gbps=offered, warmup_packets=10,
              measure_packets=measure)
    tr = PacketTracer()
    c = TimeseriesCollector(window_cycles=20_000.0)
    on = run_on_simulator(result, trace, tracer=tr, timeseries=c, **kw)
    off = run_on_simulator(result, trace, **kw)
    _check_chrome_trace(chrome_trace_from_events(tr.event_dicts()))
    assert sum(w["counters"].get("tx.packets", 0)
               for w in c.windows) == on.packets_out
    assert on.tx_payloads == off.tx_payloads


def test_exporter_closes_unbalanced_input():
    # A begin with no end (e.g. a truncated events file) must still
    # produce balanced output.
    events = [
        {"kind": "pkt_begin", "t": 0.0, "pkt": 1, "origin": "rx",
         "handle": 64},
        {"kind": "span_begin", "t": 5.0, "pkt": 1, "me": 0, "thread": 2,
         "ring": "ring.rx"},
        {"kind": "ring_enq", "t": 6.0, "pkt": 1, "ring": "ring.chan"},
    ]
    _check_chrome_trace(chrome_trace_from_events(events))


def test_exporter_writes_compile_spans(tmp_path):
    spans = [("frontend", {"app": "x"}, 10.0, 10.5),
             ("codegen", {}, 10.5, 11.0)]
    path = str(tmp_path / "c.trace.json")
    write_chrome_trace(path, [], compile_spans=spans)
    with open(path) as fh:
        doc = json.load(fh)
    evs = _check_chrome_trace(doc)
    names = [e["name"] for e in evs if e["ph"] == "B"]
    assert names == ["frontend", "codegen"]
    # Wall-clock spans are rebased to start at 0.
    assert min(e["ts"] for e in evs if e["ph"] == "B") == 0


# -- compile-stage span capture -------------------------------------------------


def test_compile_span_capture(no_compile_spans):
    drain_compile_spans()
    capture_compile_spans()
    with compile_stage("frontend"):
        pass
    # Whoever knows the job stamps the spans its compile captured.
    with label_compile_spans(app="l3switch", level="SWC"):
        with compile_stage("lower"):
            pass
        with compile_stage("pac"):
            pass
    spans = drain_compile_spans()
    stamp = {"app": "l3switch", "level": "SWC"}
    assert [(s[0], s[1]) for s in spans] == [
        ("frontend", {}), ("lower", stamp), ("pac", stamp)]
    assert all(t1 >= t0 for _, _, t0, t1 in spans)
    assert drain_compile_spans() == []  # drained
    # Disarmed: a stage records nothing, labelled or not.
    capture_compile_spans(False)
    with label_compile_spans(app="l3switch"):
        with compile_stage("pac"):
            pass
    assert drain_compile_spans() == []


# -- where the latency summary and the hot lines are rendered --------------------


def test_report_renders_latency_and_hot_lines():
    """One home each: the timeline header carries the tracer's latency
    summary, the compile report the hot Baker lines (hottest first, with
    shares)."""
    from repro.obs.report import render_explain, render_timeline

    tr = PacketTracer()
    c = TimeseriesCollector(window_cycles=1000.0)
    c.attach(tracer=tr)
    for i, lat in enumerate((100.0, 200.0, 300.0, 400.0)):
        tr.rx_packet(64 + 32 * i, 0.0, port=0, length=64)
        tr.tx_packet(64 + 32 * i, lat, port=0, length=64)
    tr.finish(500.0)
    c.finish(500.0)
    header = c.to_records()[0]
    text = render_timeline(header, c.windows)
    assert "latency overall (cycles): n=4" in text
    assert "p50=200" in text and "p95=400" in text and "p99=400" in text

    text = render_explain({
        "kind": "compile_report", "level": "SWC", "version": 1,
        "hot_lines": [{"src": "<baker>:45", "instrs": 300},
                      {"src": "<baker>:35", "instrs": 100}]})
    assert "Hot Baker source lines (interpreted IR instrs, top 2):" in text
    assert text.index("<baker>:45") < text.index("<baker>:35")
    assert "75.0%" in text and "25.0%" in text
    assert "IR size after each stage" not in text  # absent section: no header
