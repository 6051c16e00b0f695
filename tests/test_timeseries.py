"""Streaming time-series observability (repro.obs.timeseries): sketch
accuracy against exact percentiles, window/boundary semantics, window
counters as what each running total moved, one owner per drop, update-impact analysis, and the
timeline report."""

import bisect
import json
import random

import pytest

from repro.obs.timeseries import (
    QuantileSketch,
    StreamingQuantile,
    TimeseriesCollector,
    nearest_rank,
    load_timeseries,
    update_impact,
    window_drops,
)

# -- quantile sketch ------------------------------------------------------------

#: Documented accuracy bound (DESIGN.md section 11): above the exact
#: prefix, the P^2 estimate stays within this *rank* distance of the
#: true quantile -- est lies between exact(q - DELTA) and
#: exact(q + DELTA). Observed rank error on these inputs is under
#: 0.01; the bound leaves headroom.
RANK_DELTA = 0.02
RANK_DELTA_HEAVY = 0.03  # heavy-tailed inputs (zipf/pareto)

QUANTILES = (0.5, 0.95, 0.99)


def _assert_rank_bound(vals, q, est, delta):
    srt = sorted(vals)
    lo = nearest_rank(srt, max(0.001, q - delta))
    hi = nearest_rank(srt, min(0.999, q + delta))
    assert lo <= est <= hi, (
        "q=%g estimate %g outside rank bound [%g, %g] (delta=%g)"
        % (q, est, lo, hi, delta))


def _sketch_all(vals):
    ests = {}
    for q in QUANTILES:
        sq = StreamingQuantile(q)
        for v in vals:
            sq.add(v)
        ests[q] = sq.value()
    return ests


def test_sketch_exact_below_limit():
    rng = random.Random(11)
    vals = [rng.random() * 100 for _ in range(200)]  # < exact_limit=256
    for q in QUANTILES:
        sq = StreamingQuantile(q)
        for v in vals:
            sq.add(v)
        assert sq.value() == nearest_rank(sorted(vals), q)


def test_sketch_uniform_within_rank_bound():
    rng = random.Random(1)
    vals = [rng.random() * 1000 for _ in range(20_000)]
    for q, est in _sketch_all(vals).items():
        _assert_rank_bound(vals, q, est, RANK_DELTA)
        # Uniform is also tight in value terms.
        exact = nearest_rank(sorted(vals), q)
        assert est == pytest.approx(exact, rel=0.02)


def test_sketch_zipf_within_rank_bound():
    """Heavy-tailed input (the latency shape a zipf flow mix produces):
    value error at p99 can be several percent, but the *rank* of the
    estimate stays within the documented bound."""
    rng = random.Random(2)
    vals = [rng.paretovariate(1.3) for _ in range(20_000)]
    for q, est in _sketch_all(vals).items():
        _assert_rank_bound(vals, q, est, RANK_DELTA_HEAVY)


def test_sketch_adversarial_monotone_inputs():
    """Sorted input is the classic P^2 stress case: every observation
    lands past the last marker (ascending) or before the first
    (descending)."""
    asc = [float(i) for i in range(20_000)]
    for q, est in _sketch_all(asc).items():
        _assert_rank_bound(asc, q, est, RANK_DELTA)
    desc = list(reversed(asc))
    for q, est in _sketch_all(desc).items():
        _assert_rank_bound(desc, q, est, RANK_DELTA)


def test_sketch_rank_error_is_small_in_practice():
    """A bimodal mixed workload (the hardest realistic shape: a quantile
    marker can sit in the gap between modes) still honors the heavy-tail
    rank bound."""
    rng = random.Random(3)
    vals = [rng.gauss(2000, 300) for _ in range(10_000)]
    vals += [rng.paretovariate(1.5) * 100 for _ in range(10_000)]
    srt = sorted(vals)
    for q, est in _sketch_all(vals).items():
        rank = bisect.bisect_left(srt, est) / len(srt)
        assert abs(rank - q) < RANK_DELTA_HEAVY


def test_quantile_sketch_summary_keys_and_stats():
    s = QuantileSketch()
    assert s.summary() == {"count": 0, "min": 0.0, "p50": 0.0, "p95": 0.0,
                           "p99": 0.0, "mean": 0.0, "max": 0.0}
    for v in (5.0, 1.0, 3.0):
        s.add(v)
    out = s.summary()
    assert out["count"] == 3 and out["min"] == 1.0 and out["max"] == 5.0
    assert out["mean"] == pytest.approx(3.0)
    assert out["p50"] == 3.0  # exact below the limit


def test_streaming_quantile_rejects_bad_q():
    with pytest.raises(ValueError):
        StreamingQuantile(0.0)
    with pytest.raises(ValueError):
        StreamingQuantile(1.0)


# -- the window counters: what each running total moved ------------------------


def test_window_counters_are_what_each_total_moved():
    """Sources return running totals keyed ``name{k=v,...}``; a window
    records each total's movement since the previous boundary, in
    sorted key order whatever the order of the sources; a total that did
    not move, or moved by less than the 3-decimal rounding, is left
    out."""
    totals = {"occ.wait{cat=mem_dram,me=1}": 2.5, "b{cause=x}": 1,
              "a": 3, "zero": 0, "tiny": 1e-4}
    c = TimeseriesCollector(window_cycles=100.0)
    c.add_source(lambda: dict(totals))
    c.add_source(lambda: {"occ.wait{cat=mem_dram,me=0}": 1.5})
    c.tick(100.0)
    assert list(c.windows[0]["counters"].items()) == [
        ("a", 3), ("b{cause=x}", 1),
        ("occ.wait{cat=mem_dram,me=0}", 1.5),
        ("occ.wait{cat=mem_dram,me=1}", 2.5)]
    c.tick(200.0)
    assert c.windows[1]["counters"] == {}
    totals["a"] = 5
    totals["tiny"] = 2e-4
    c.tick(300.0)
    assert c.windows[2]["counters"] == {"a": 2}


def test_collector_window_records_hold_only_that_windows_counts():
    sent = [0]

    def src():
        sent[0] += 5
        return {"src{kind=x}": sent[0]}

    applied = []
    c = TimeseriesCollector(window_cycles=100.0)
    c.add_source(src)
    c.add_source(lambda: {"updates{kind=%s}" % k: applied.count(k)
                          for k in applied})
    applied.append("route-flap")
    c.tick(100.0)
    c.tick(200.0)
    assert c.windows[0]["counters"] == {"src{kind=x}": 5,
                                        "updates{kind=route-flap}": 1}
    assert c.windows[1]["counters"] == {"src{kind=x}": 5}


# -- window semantics -----------------------------------------------------------


def test_window_alignment_and_boundary_event():
    """An event at exactly boundary k*W belongs to window k (the chip
    ticks elapsed boundaries before running an event's action)."""
    c = TimeseriesCollector(window_cycles=100.0)
    assert c.window_index(99.999) == 0
    assert c.window_index(100.0) == 1

    c.annotate(50.0, "update", churn="a")     # window 0
    c.annotate(100.0, "update", churn="b")    # exactly on boundary -> 1
    c.annotate(150.0, "update", churn="c")    # window 1
    # The chip's contract: tick(100) runs BEFORE the t=100 action, so
    # window 0 closes without the boundary event...
    c.tick(100.0)
    assert [e["churn"] for e in c.windows[0]["events"]] == ["a"]
    c.tick(200.0)
    # ...and window 1 carries both the boundary event and the interior.
    assert [e["churn"] for e in c.windows[1]["events"]] == ["b", "c"]
    assert c.windows[0]["t_start"] == 0.0
    assert c.windows[0]["t_end"] == 100.0
    assert c.windows[1]["window"] == 1


def test_counter_sources_deltas_land_per_window():
    class FakeRx:
        sent = 0
        dropped_freelist = 0
        dropped_ring_full = 0

    rx = FakeRx()
    c = TimeseriesCollector(window_cycles=100.0)
    c.attach(rx=rx)
    rx.sent = 10
    c.tick(100.0)
    rx.sent = 25
    rx.dropped_ring_full = 2
    c.tick(200.0)
    w0, w1 = c.windows
    assert w0["counters"]["rx.offered"] == 10
    assert w1["counters"]["rx.offered"] == 15  # delta, not cumulative
    assert w1["counters"]["rx.dropped{cause=ring_full}"] == 2
    assert window_drops(w1) == 2


def test_rx_drop_lands_in_the_window_once():
    """With both the Rx engine and a tracer attached, one Rx drop is
    the engine's count; the tracer's ``rx_drop`` is a trace instant, not
    a second ``drop{cause=ring_full}``."""
    from repro.obs.trace import PacketTracer

    class FakeRx:
        sent = 1
        dropped_freelist = 0
        dropped_ring_full = 1

    tracer = PacketTracer()
    c = TimeseriesCollector(window_cycles=100.0)
    c.attach(rx=FakeRx(), tracer=tracer)
    tracer.rx_drop(50.0, "ring_full")
    c.tick(100.0)
    (w,) = c.windows
    assert w["counters"] == {"rx.offered": 1,
                             "rx.dropped{cause=ring_full}": 1}
    assert window_drops(w) == 1
    assert [e.kind for e in tracer.events] == ["rx_drop"]


def test_update_totals_land_in_their_window():
    c = TimeseriesCollector(window_cycles=100.0)
    c.add_source(lambda: {"updates{kind=route-flap}": 1})
    c.tick(100.0)
    c.tick(200.0)
    assert c.windows[0]["counters"]["updates{kind=route-flap}"] == 1
    assert "updates{kind=route-flap}" not in c.windows[1]["counters"]


def test_finish_partial_window_and_stranded_annotations():
    c = TimeseriesCollector(window_cycles=100.0)
    c.tick(100.0)
    c.annotate(130.0, "update", churn="late")
    c.annotate(990.0, "update", churn="never")  # window 9 never closes
    c.finish(150.0)
    assert len(c.windows) == 2
    assert c.windows[1]["partial"] is True
    assert c.windows[1]["t_end"] == 150.0
    churns = [e["churn"] for e in c.windows[1]["events"]]
    assert churns == ["late", "never"]  # stranded events flushed, not lost
    assert c.finished_at == 150.0


def test_finish_on_exact_boundary_is_not_partial():
    c = TimeseriesCollector(window_cycles=100.0)
    c.tick(100.0)
    c.finish(200.0)  # run ended exactly on the next boundary
    assert len(c.windows) == 2
    assert "partial" not in c.windows[1]


def test_latency_sketch_resets_per_window_cumulative_does_not():
    c = TimeseriesCollector(window_cycles=100.0)
    for v in (10.0, 20.0):
        c.observe_latency(v)
    c.tick(100.0)
    for v in (30.0, 40.0):
        c.observe_latency(v)
    c.tick(200.0)
    assert c.windows[0]["latency"]["count"] == 2
    assert c.windows[1]["latency"]["count"] == 2
    assert c.windows[1]["latency"]["min"] == 30.0
    assert c.cumulative.summary()["count"] == 4


def test_jsonl_roundtrip_is_deterministic(tmp_path):
    def build():
        c = TimeseriesCollector(window_cycles=100.0)
        c.observe_latency(12.5)
        c.annotate(40.0, "update", churn="route-flap")
        c.add_source(lambda: {"updates{kind=route-flap}": 1})
        c.tick(100.0)
        c.finish(150.0)
        return c

    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    build().dump_jsonl(p1, header={"app": "l3switch"})
    build().dump_jsonl(p2, header={"app": "l3switch"})
    assert open(p1, "rb").read() == open(p2, "rb").read()

    header, windows = load_timeseries(p1)
    assert header["app"] == "l3switch"
    assert header["windows"] == 2
    assert windows[0]["events"][0]["churn"] == "route-flap"
    # Every line is valid standalone JSON with sorted keys.
    for line in open(p1):
        rec = json.loads(line)
        assert list(rec) == sorted(rec)


# -- update impact ---------------------------------------------------------------


def _mk_window(idx, rate, p99, drops=0, events=()):
    return {
        "window": idx, "t_start": idx * 100.0, "t_end": (idx + 1) * 100.0,
        "rate_gbps": rate, "latency": {"count": 10, "p50": p99 / 2,
                                       "p95": p99 * 0.9, "p99": p99},
        "counters": {"drop{cause=x}": drops},
        "events": list(events),
    }


def test_update_impact_phases_and_deltas():
    wins = [_mk_window(i, 2.5, 1000.0) for i in range(8)]
    wins[4] = _mk_window(4, 2.0, 1500.0, drops=3,
                         events=[{"t": 450.0, "kind": "update",
                                  "churn": "route-flap"}])
    rows = update_impact(wins, k=2)
    assert len(rows) == 1
    r = rows[0]
    assert r["window"] == 4 and r["churn"] == "route-flap"
    assert r["before"]["windows"] == 2 and r["after"]["windows"] == 2
    assert r["before"]["p99"] == 1000.0
    assert r["during"]["p99"] == 1500.0
    assert r["delta_p99"] == 500.0
    assert r["delta_rate_gbps"] == pytest.approx(-0.5)
    assert r["delta_drops"] == 3


def test_update_impact_clips_at_run_edges():
    wins = [_mk_window(i, 2.5, 1000.0) for i in range(3)]
    wins[0]["events"] = [{"t": 10.0, "kind": "update"}]
    r = update_impact(wins, k=2)[0]
    assert r["before"]["windows"] == 0  # nothing before window 0
    assert r["after"]["windows"] == 2


# -- timeline report -------------------------------------------------------------


def test_timeline_report_renders(tmp_path):
    from repro.obs.report import main as report_main, render_timeline

    c = TimeseriesCollector(window_cycles=100.0)
    c.observe_latency(500.0)
    c.annotate(150.0, "update", churn="route-flap", target="nh_mac[3]")
    c.add_source(lambda: {"updates{kind=route-flap}": 1})
    c.tick(100.0)
    c.observe_latency(800.0)
    c.tick(200.0)
    path = str(tmp_path / "t.jsonl")
    c.dump_jsonl(path, header={"app": "l3switch", "level": "SWC"})

    header, windows = load_timeseries(path)
    text = render_timeline(header, windows)
    assert "route-flap" in text
    assert "Update impact" in text
    assert "p99" in text
    # Deterministic rendering.
    assert text == render_timeline(*load_timeseries(path))

    assert report_main(["timeline", path]) == 0
    assert report_main(["timeline", str(tmp_path / "missing.jsonl")]) == 1
