"""Live-churn service harness (repro.serve): churn spec parsing,
deterministic streaming traffic, byte-reproducible runs, SWC
delayed-coherency visibility, the bench_churn diff gate, and the CLI."""

import json

import pytest

from repro.obs.timeseries import load_timeseries
from repro.options import options_for
from repro.serve import (
    ChurnSpec,
    ServeConfig,
    TrafficModel,
    TrafficSpec,
    build_app,
    build_mutations,
    parse_churn_spec,
    run_service,
)
from repro.serve.traffic import IMIX_SIZES

# -- churn specs -----------------------------------------------------------------


def test_parse_churn_spec_full_and_defaults():
    s = parse_churn_spec("route-flap:n=6,start=8,every=3")
    assert (s.kind, s.count, s.start, s.every) == ("route-flap", 6, 8, 3)
    assert s.to_string() == "route-flap:n=6,start=8,every=3"
    d = parse_churn_spec("fw-toggle")
    assert (d.kind, d.count, d.start, d.every) == ("fw-toggle", 4, 4, 4)


def test_parse_churn_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_churn_spec("bgp-flap:n=1")
    with pytest.raises(ValueError):
        parse_churn_spec("route-flap:bogus=1")
    with pytest.raises(ValueError):
        parse_churn_spec("route-flap:n=0")


def test_build_mutations_checks_app_kind():
    app = build_app("l3switch")
    with pytest.raises(ValueError):
        build_mutations("l3switch", app, ChurnSpec("fw-toggle"), seed=0)


def test_mutation_helpers_are_deterministic_and_sound():
    from repro.apps.tables import (
        firewall_rule_mutations,
        mpls_label_mutations,
        route_flap_mutations,
    )

    l3 = build_app("l3switch")
    a = route_flap_mutations(build_app("l3switch").routes, 3, seed=5)
    b = route_flap_mutations(build_app("l3switch").routes, 3, seed=5)
    assert [m.describe() for m in a] == [m.describe() for m in b]
    for m in a:
        # New MACs come from the reserved 0x0D... probe range so the
        # retired MAC can never reappear legitimately.
        assert m.new_value >> 40 == 0x0D
        assert m.probe["stale_dst_mac"] != m.new_value
    assert l3.routes.nexthops  # untouched instance

    fw = build_app("firewall")
    muts = firewall_rule_mutations(fw.config, 2, seed=1)
    assert all(m.target == "fw_rules" for m in muts)
    assert all(m.old_value != m.new_value for m in muts)

    mp = build_app("mpls")
    muts = mpls_label_mutations(mp.config, 2, seed=1)
    assert muts, "16-label config must expose relabel candidates"
    for m in muts:
        assert m.target == "ilm"
        assert m.probe["stale_mpls_label"] != m.probe["new_mpls_label"]


# -- streaming traffic -----------------------------------------------------------


def test_traffic_model_is_deterministic_and_imix_sized():
    app = build_app("l3switch")
    m1 = TrafficModel(app, TrafficSpec(seed=9))
    m2 = TrafficModel(app, TrafficSpec(seed=9))
    stream1 = [m1.next_packet() for _ in range(2000)]
    stream2 = [m2.next_packet() for _ in range(2000)]
    assert [(p.data, pace) for p, pace in stream1] == \
        [(p.data, pace) for p, pace in stream2]
    sizes = {len(p.data) for p, _ in stream1}
    # Padded frames hit the IMIX grid; sub-64 app frames are padded up.
    assert sizes <= set(IMIX_SIZES) | {s for s in sizes if s < max(IMIX_SIZES)}
    assert max(sizes) == 1500  # the 1500 B class shows up in 2000 draws
    paces = {pace for _, pace in stream1}
    assert 1.0 in paces and 0.25 in paces  # bursts triggered


def test_traffic_model_zipf_head_dominates():
    app = build_app("l3switch")
    m = TrafficModel(app, TrafficSpec(seed=9, imix=False, burst_gap=0))
    counts = {}
    for _ in range(2000):
        p, _ = m.next_packet()
        counts[p.data] = counts.get(p.data, 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    # Top decile of flows carries well over half the traffic.
    assert sum(ranked[: max(1, len(ranked) // 10)]) > 0.4 * 2000


# -- service runs ----------------------------------------------------------------


SMOKE = dict(windows=12, window_cycles=20_000.0)


@pytest.fixture(scope="module")
def flap_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    cfg = ServeConfig(app="l3switch",
                      churn=[parse_churn_spec("route-flap:n=2,start=3,every=3")],
                      **SMOKE)
    bench = str(tmp / "BENCH_churn.json")
    timeline = str(tmp / "timeline.jsonl")
    res = run_service(cfg, timeline_path=timeline, bench_path=bench)
    return cfg, res, bench, timeline


def test_serve_applies_churn_and_annotates_windows(flap_run):
    cfg, res, _, _ = flap_run
    assert len(res.applied) == 2
    for t_apply, mut in res.applied:
        idx = res.collector.window_index(t_apply)
        w = res.collector.windows[idx]
        assert any(e["kind"] == "update" and e["t"] == round(t_apply, 3)
                   for e in w["events"]), \
            "update at t=%g missing from window %d" % (t_apply, idx)
        assert w["counters"].get("updates{kind=route-flap}", 0) >= 1
    # Updates land mid-window at the scheduled boundaries.
    assert res.applied[0][0] == 3.5 * cfg.window_cycles
    assert res.applied[1][0] == 6.5 * cfg.window_cycles


def test_serve_swc_delayed_coherency_is_visible(flap_run):
    """The SWC §5.2 effect, both sides of it: nh_mac is ME-cached under
    delayed-update coherency, so frames carrying the *retired* next-hop
    MAC keep transmitting after the control-plane store -- but only
    until each ME's periodic check has come due, not until the line
    happens to be evicted."""
    cfg, res, _, _ = flap_run
    assert all(mut.target == "nh_mac" for _, mut in res.applied)
    assert sum(res.stale_tx) > 0
    assert res.bench["summary"]["stale_tx_total"] == sum(res.stale_tx)
    per_update = {u["t"]: u["stale_tx"] for u in res.bench["updates"]}
    assert len(per_update) == 2
    assert sum(per_update.values()) == sum(res.stale_tx)

    # An ME checks on every (period + 1)-th packet *it* processes; MEs
    # share the Rx ring unevenly under bursts (allow one of them half
    # the mean share), and a frame stamped just before the flush still
    # has to reach Tx.
    summary = res.bench["summary"]
    period = options_for(cfg.level).swc_check_period
    cycles_per_packet_per_me = (cfg.n_mes * cfg.windows * cfg.window_cycles
                                / summary["tx_packets"])
    bound = (2 * (period + 1) * cycles_per_packet_per_me
             + summary["latency"]["max"])
    assert bound < 80_000  # what CI's serve-smoke job gates on this run
    assert [u["stale_cycles"] for u in res.bench["updates"]] \
        == res.stale_cycles
    assert all(0 < c <= bound for c in res.stale_cycles), (res.stale_cycles,
                                                           bound)
    assert summary["stale_cycles_max"] == max(res.stale_cycles)


def test_serve_bench_schema_and_timeline(flap_run):
    cfg, res, bench_path, timeline_path = flap_run
    with open(bench_path) as fh:
        bench = json.load(fh)
    assert bench["kind"] == "bench_churn"
    assert bench["figure"] == "churn"
    assert bench["app"] == "l3switch"
    assert len(bench["timeline"]["rate_gbps"]) == cfg.windows
    assert len(bench["timeline"]["p99"]) == cfg.windows
    assert bench["summary"]["updates_applied"] == 2
    assert bench["summary"]["mean_rate_gbps"] > 0

    header, windows = load_timeseries(timeline_path)
    assert header["app"] == "l3switch"
    assert len(windows) == cfg.windows
    assert windows[-1].get("partial") is None  # ended on a boundary


def test_serve_is_byte_reproducible(flap_run, tmp_path):
    """Acceptance: the same configuration reproduces BENCH_churn.json
    AND the rendered timeline report byte for byte."""
    from repro.obs.report import render_timeline

    cfg, _, bench_path, timeline_path = flap_run
    cfg2 = ServeConfig(app=cfg.app, churn=list(cfg.churn),
                       windows=cfg.windows, window_cycles=cfg.window_cycles)
    bench2 = str(tmp_path / "BENCH_churn.json")
    timeline2 = str(tmp_path / "timeline.jsonl")
    run_service(cfg2, timeline_path=timeline2, bench_path=bench2)

    assert open(bench_path, "rb").read() == open(bench2, "rb").read()
    assert open(timeline_path, "rb").read() == open(timeline2, "rb").read()
    assert render_timeline(*load_timeseries(timeline_path)) == \
        render_timeline(*load_timeseries(timeline2))


def test_serve_counts_each_drop_once():
    """Firewall BASE on one ME at 3 Gbps overloads the Rx ring as well
    as dropping in the app. Each drop has one owner -- the Rx engine for
    what it refused, the tracer for lifetimes that ended in a drop -- so
    the summary is their sum, and packets are conserved: offered =
    transmitted + dropped + still in flight when the run stopped."""
    res = run_service(ServeConfig(app="firewall", level="BASE", n_mes=1,
                                  offered_gbps=3.0, windows=6))
    summary = res.bench["summary"]
    rx_drops = sum(v for w in res.collector.windows
                   for k, v in w["counters"].items()
                   if k.startswith("rx.dropped"))
    assert rx_drops > 0 and "ring_full" not in res.tracer.drops
    assert summary["drops"] == rx_drops + sum(res.tracer.drops.values())
    assert summary["drops"] == 146
    inflight = sum(e.kind == "pkt_end" and e.data["outcome"] == "inflight"
                   for e in res.tracer.events)
    assert summary["rx_offered"] == (summary["tx_packets"] + summary["drops"]
                                     + inflight)


def test_serve_closes_its_chip(monkeypatch):
    """A finished service unmaps its chip's memories itself, after the
    occupancy snapshot, instead of leaving them to the garbage collector."""
    from repro.ixp.chip import IXP2400

    closed = []
    real_close = IXP2400.close
    monkeypatch.setattr(IXP2400, "close",
                        lambda chip: closed.append(chip) or real_close(chip))
    res = run_service(ServeConfig(app="l3switch", windows=2, profile=True,
                                  window_cycles=20_000.0))
    assert len(closed) == 1
    assert res.occupancy is not None


def test_serve_rejects_churn_past_horizon():
    cfg = ServeConfig(app="l3switch",
                      churn=[parse_churn_spec("route-flap:n=9,start=3,every=3")],
                      **SMOKE)
    with pytest.raises(ValueError, match="past the run"):
        run_service(cfg)


def test_serve_cli_smoke(tmp_path, capsys):
    from repro.serve.__main__ import main

    bench = str(tmp_path / "b.json")
    timeline = str(tmp_path / "t.jsonl")
    rc = main(["--app", "l3switch", "--windows", "8",
               "--window-cycles", "20000",
               "--churn", "route-flap:n=1,start=3",
               "--out", bench, "--timeline", timeline, "--report"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "served l3switch/SWC" in out
    assert "updates applied=1" in out
    assert "Update impact" in out
    assert "stale.cycles" in out
    assert json.load(open(bench))["kind"] == "bench_churn"


def test_serve_cli_rejects_bad_spec(capsys):
    from repro.serve.__main__ import main

    with pytest.raises(SystemExit):
        main(["--app", "l3switch", "--churn", "nope:n=1"])


def test_serve_cli_fails_fast(tmp_path, capsys):
    """Bad tokens are rejected before anything is compiled: exit 2, a
    diagnostic naming flag and value, nothing written."""
    from repro.serve.__main__ import main

    out = tmp_path / "b.json"
    for argv, token in (
            (["--level", "NOPE"], "--level: unknown level 'NOPE'"),
            (["--mes", "0"], "--mes must be >= 1, got 0"),
            (["--gbps", "0"], "--gbps must be > 0, got 0"),
            (["--gbps", "-1"], "--gbps must be > 0, got -1"),
            (["--windows", "0"], "--windows must be >= 1, got 0"),
            (["--impact-k", "-1"], "--impact-k must be >= 0, got -1"),
            (["--window-cycles", "0"], "--window-cycles must be > 0, got 0"),
            # NaN passes a plain "<= 0" check; a non-finite window or
            # rate used to run until killed.
            (["--window-cycles", "nan"],
             "--window-cycles must be a finite number, got nan"),
            (["--window-cycles", "inf"],
             "--window-cycles must be a finite number, got inf"),
            (["--gbps", "inf"], "--gbps must be a finite number, got inf"),
            (["--gbps", "nan"], "--gbps must be a finite number, got nan")):
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--out", str(out)])
        assert exc_info.value.code == 2
        assert token in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("width", [0.0, -1.0, float("nan"), float("inf")])
def test_timeseries_collector_rejects_unusable_window(width):
    from repro.obs.timeseries import TimeseriesCollector

    with pytest.raises(ValueError, match="positive and finite"):
        TimeseriesCollector(width)
