"""Stall-cycle attribution profiler (repro.obs.profile).

The two load-bearing guarantees:

* **zero impact** -- a profiled run is bit-identical to an unprofiled
  one (Tx bytes, rates, cycle counts, per-ME accounting), on the
  product core and on the test-side reference interpreter;
* **sums to total** -- every thread's attribution (exec + waits + idle)
  recovers that ME's total simulated cycles exactly under the payload's
  3-decimal rounding.

Plus: reference and fast dispatch produce *identical* profiler snapshots
(over the apps and over one image that blocks on every blocking
instruction kind), a reused profiler starts from zero, the sweep's
BENCH_occupancy.json is byte-reproducible and diffable, the obs.diff
unknown-kind / occupancy gates fire, the bottleneck report renders,
timeline windows carry occ.* deltas, and a profiled serve run's
occupancy and occ.* counters hash to a pinned digest.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.compiler import compile_baker
from repro.obs import diff as obs_diff
from repro.obs.profile import (
    CATEGORIES,
    WAIT_CATEGORIES,
    StallProfiler,
    aggregate_attribution,
    attribution_shares,
    bottleneck_verdict,
    channel_utilization,
    occupancy_cell,
)
from repro.options import options_for
from repro.profiler.trace import ipv4_trace
from repro.rts.system import run_on_simulator
from tests import reference_me

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]
MODES = ("reference", "fast")


def _mini_result():
    from tests.samples import MINI_FORWARDER

    trace = ipv4_trace(60, [0xC0A80101], MACS, seed=3)
    result = compile_baker(MINI_FORWARDER, options_for("O1"), trace)
    return result, trace


_RUN = dict(n_mes=2, warmup_packets=30, measure_packets=90)


def _run_signature(run):
    return (run.tx_signature(), run.sim_cycles, run.forwarding_gbps,
            run.packets_measured, run.rx_offered, run.rx_dropped,
            run.me_utilization, tuple(run.me_executed_instrs),
            tuple(run.me_times), tuple(run.me_idle_times),
            run.access_profile.row())


# -- zero impact ----------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_profiled_run_is_bit_identical(mode):
    result, trace = _mini_result()
    with reference_me.core(mode):
        off = run_on_simulator(result, trace, **_RUN)
        on = run_on_simulator(result, trace, profiler=StallProfiler(),
                              **_RUN)
    assert on.occupancy is not None and off.occupancy is None
    assert _run_signature(on) == _run_signature(off)


def test_profiler_snapshot_identical_across_dispatch_modes():
    """The core and the reference interpreter drive the same hooks at
    the same simulated times: the whole snapshot (attribution, channel
    queueing, ring stats) must match to the bit, not just the measured
    run."""
    result, trace = _mini_result()
    snaps = {}
    for mode in MODES:
        with reference_me.core(mode):
            run = run_on_simulator(result, trace,
                                   profiler=StallProfiler(), **_RUN)
        snaps[mode] = run.occupancy
    assert snaps["reference"] == snaps["fast"]


def _blocking_run(mode):
    """One thread that blocks once on every blocking instruction kind:
    a scratch, an SRAM and a DRAM read, a ring_get that finds a handle
    and one that polls empty, a put a capacity-1 ring accepts and one it
    rejects, test_and_set, atomic_release and ctx_arb."""
    from repro.cg import isa
    from repro.cg.assemble import MEImage
    from repro.ixp.chip import IXP2400

    a0, a1 = isa.PReg("a", 0), isa.PReg("a", 1)
    image = MEImage(name="blocking")
    image.insns = [
        isa.Mem("scratch", "read", [a0], isa.Imm(64), isa.Imm(0), 1),
        isa.Mem("sram", "read", [a0], isa.Imm(256), isa.Imm(0), 1),
        isa.Mem("dram", "read", [a0, a1], isa.Imm(512), isa.Imm(0), 1),
        isa.RingGet(a1, isa.SymRef("ring.in")),
        isa.RingGet(a1, isa.SymRef("ring.in")),
        isa.RingPut(isa.SymRef("ring.one"), isa.Imm(7)),
        isa.RingPut(isa.SymRef("ring.one"), isa.Imm(8)),
        isa.TestAndSet(a0, isa.Imm(128)),
        isa.AtomicRelease(isa.Imm(128)),
        isa.CtxArb(),
        isa.Halt(),
    ]
    image.label_index = {"main": 0}
    image.entry = 0
    chip = IXP2400()
    chip.rings.create("ring.in", capacity=4).put(16)
    chip.rings.create("ring.one", capacity=1)
    chip.add_me(reference_me.CORES[mode](0, image, chip, n_threads=1))
    prof = StallProfiler().attach(chip)
    chip.run(10_000.0)
    assert chip.mes[0].threads[0].halted
    return prof.snapshot(chip)


def test_every_blocking_emitter_stamps_its_cause_slot():
    """The fast core's generated steps stamp cause slots, the reference
    core names its categories per handler: both attribute every blocking
    instruction kind the same way, and all six wait categories occur."""
    snaps = {mode: _blocking_run(mode) for mode in MODES}
    assert snaps["reference"] == snaps["fast"]
    (rec,) = snaps["fast"]["mes"][0]["threads"]
    assert rec["blocks"] == {"ctx_arb": 1, "mem_dram": 1, "mem_scratch": 5,
                             "mem_sram": 1, "ring_empty": 1, "ring_full": 1}
    assert all(rec[cat] > 0 for cat in WAIT_CATEGORIES), rec
    # Seven scratch references (read, two gets, two puts, tas, release);
    # SRAM address 256 interleaves onto channel 0.
    requests = {name: ch["requests"]
                for name, ch in snaps["fast"]["channels"].items()}
    assert requests == {"scratch": 7, "sram0": 1, "sram1": 0, "dram": 1}


def test_reused_profiler_reports_what_a_fresh_one_does():
    """attach() starts from zero: a profiler used for a second run
    reports that run alone (it used to add both runs' thread rows and
    channel queue statistics -- negative idle, doubled requests)."""
    result, trace = _mini_result()
    fresh = run_on_simulator(result, trace, profiler=StallProfiler(),
                             **_RUN).occupancy
    reused = StallProfiler()
    run_on_simulator(result, trace, profiler=reused, **_RUN)
    again = run_on_simulator(result, trace, profiler=reused, **_RUN)
    assert again.occupancy == fresh
    assert aggregate_attribution(fresh)["idle"] >= 0


# -- the sums-to-total invariant ------------------------------------------------


def _profiled_run():
    result, trace = _mini_result()
    return run_on_simulator(result, trace, profiler=StallProfiler(), **_RUN)


def test_attribution_sums_to_total_cycles():
    snap = _profiled_run().occupancy
    assert snap["mes"], "no MEs profiled"
    for me in snap["mes"]:
        assert me["threads"], "ME %d has no thread records" % me["me"]
        for rec in me["threads"]:
            spent = rec["exec"] + sum(rec[c] for c in WAIT_CATEGORIES)
            assert round(spent + rec["idle"], 3) == rec["total"], rec
            # idle is a residual but must never mask over-attribution.
            assert rec["idle"] >= -0.001, rec
            assert rec["total"] == me["time"]
    agg = aggregate_attribution(snap)
    assert agg["total"] == round(
        sum(r["total"] for me in snap["mes"] for r in me["threads"]), 3)
    assert round(sum(agg[c] for c in CATEGORIES), 2) == round(
        agg["total"], 2)
    shares = attribution_shares(agg)
    assert round(sum(shares.values()), 3) == pytest.approx(1.0, abs=0.002)


def test_snapshot_channels_and_rings_populated():
    snap = _profiled_run().occupancy
    assert set(snap["channels"]) == {"scratch", "sram0", "sram1", "dram"}
    total_requests = sum(ch["requests"] for ch in snap["channels"].values())
    assert total_requests > 0
    for ch in snap["channels"].values():
        assert ch["queue_wait_cycles"] >= 0.0
        assert ch["max_queue_wait"] >= ch["mean_queue_wait"] >= 0.0
    assert any(r["gets"] > 0 for r in snap["rings"].values())
    util = channel_utilization(snap)
    assert set(util) == {"scratch", "sram", "dram"}
    assert all(u >= 0.0 for u in util.values())


def test_verdict_and_cell_shape():
    run = _profiled_run()
    snap = run.occupancy
    verdict = bottleneck_verdict(snap)
    assert verdict["kind"] in ("memory-bound", "input-starved",
                               "compute-bound", "latency-bound")
    assert verdict["dominant_wait"] in WAIT_CATEGORIES
    assert verdict["text"]
    cell = occupancy_cell("mini", "O1", 2, run.forwarding_gbps, snap)
    assert cell["verdict"]["text"].startswith("mini @2ME: ")
    assert set(cell["shares"]) == set(CATEGORIES)
    assert len(cell["threads"]) == sum(len(m["threads"])
                                       for m in snap["mes"])
    # JSON round-trips losslessly (the BENCH payload contract).
    assert json.loads(json.dumps(cell)) == cell


# -- ring depth is read from the ring --------------------------------------------


def test_mean_depth_counts_post_attach_ring_operations_only():
    from repro.ixp.chip import IXP2400
    from repro.rts.loader import load_system

    result, _ = _mini_result()
    chip = IXP2400(n_programmable_mes=2)
    load_system(result, chip, n_mes=2)
    filled = {name: ring.puts for name, ring in chip.rings.rings.items()
              if ring.puts}
    assert filled, "the loader fills the free lists before any attach"
    prof = StallProfiler().attach(chip)
    rings = prof.snapshot(chip)["rings"]
    # The loader's puts are reported as the ring's own counters but stay
    # out of the profiled mean.
    for name, puts in filled.items():
        assert rings[name]["puts"] == puts
        assert rings[name]["mean_depth"] == 0.0

    name = next(iter(filled))
    ring = chip.rings[name]
    depth = len(ring)
    ring.get()
    ring.get()
    ring.put(64)
    late = chip.rings.create("late", capacity=2)  # after attach
    assert late.get() == 0                        # empty get: depth 0
    for v in (1, 2, 3):                           # third put is rejected
        late.put(v)
    rings = prof.snapshot(chip)["rings"]
    assert rings[name]["mean_depth"] == round(
        ((depth - 1) + (depth - 2) + (depth - 1)) / 3, 3)
    assert rings["late"]["mean_depth"] == round((0 + 1 + 2 + 2) / 4, 3)
    assert rings["late"]["drops"] == 1


# -- timeseries integration -----------------------------------------------------


def test_timeline_windows_carry_occupancy_deltas():
    from repro.obs.timeseries import TimeseriesCollector

    result, trace = _mini_result()
    off = run_on_simulator(result, trace,
                           timeseries=TimeseriesCollector(5_000.0), **_RUN)
    collector = TimeseriesCollector(5_000.0)
    prof = StallProfiler()
    on = run_on_simulator(result, trace, timeseries=collector,
                          profiler=prof, **_RUN)
    assert _run_signature(on) == _run_signature(off)
    names = {name for w in collector.windows
             for name in (w.get("counters") or {})}
    assert any(n.startswith("occ.exec") for n in names), names
    assert any(n.startswith("occ.mem_busy") for n in names), names
    # Window deltas of exec cycles reconcile with the final attribution
    # (both are rounded per window, so compare loosely).
    total_exec = sum(v for w in collector.windows
                     for n, v in (w.get("counters") or {}).items()
                     if n.startswith("occ.exec"))
    agg = aggregate_attribution(on.occupancy)
    assert total_exec == pytest.approx(agg["exec"], rel=0.05)


# -- sweep + diff + report surfacing --------------------------------------------


def _occupancy_sweep(tmp_path, tag, app="l3switch", me_counts=(2,),
                     **windows):
    from repro.sweep import CompileCache, build_jobs, run_sweep
    from repro.sweep.orchestrator import WorkerConfig

    out = tmp_path / tag
    out.mkdir()
    jobs = build_jobs([app], levels=["SWC"], me_counts=list(me_counts),
                      table1=False,
                      **(windows or dict(rate_warmup=30, rate_measure=60)))
    cache = CompileCache(str(tmp_path / ("cache_" + tag)))
    cfg = WorkerConfig(cache_dir=cache.cache_dir, use_cache=True,
                       profile=True)
    sweep = run_sweep(jobs, n_procs=1, cache=cache, cfg=cfg)
    paths = sweep.write_bench_files(str(out))
    return sweep, paths


def test_sweep_profile_emits_reproducible_occupancy_bench(tmp_path):
    sweep1, paths1 = _occupancy_sweep(tmp_path, "a")
    sweep2, paths2 = _occupancy_sweep(tmp_path, "b")
    occ1 = [p for p in paths1 if p.endswith("BENCH_occupancy.json")]
    occ2 = [p for p in paths2 if p.endswith("BENCH_occupancy.json")]
    assert occ1 and occ2
    with open(occ1[0], "rb") as fh:
        blob1 = fh.read()
    with open(occ2[0], "rb") as fh:
        blob2 = fh.read()
    assert blob1 == blob2

    data = json.loads(blob1)
    assert data["kind"] == "bench_occupancy"
    assert set(data["cells"]) == {"l3switch/SWC@2"}
    cell = data["cells"]["l3switch/SWC@2"]
    assert cell["rate_gbps"] == round(
        sweep1.series("l3switch")["SWC"][0], 3)

    # Self-diff gates clean at zero tolerance...
    text, code = obs_diff.run_diff(occ1[0], occ2[0], tolerance=0.0)
    assert code == 0, text

    # ...the bottleneck report renders the cell...
    from repro.obs.report import bottleneck_main, render_bottleneck

    rendered = render_bottleneck(data)
    assert "l3switch / SWC" in rendered
    assert cell["verdict"]["kind"] in rendered
    assert bottleneck_main([occ1[0]]) == 0

    # ...and a mutated verdict is a regression (exit 2).
    mutated = dict(data)
    mutated["cells"] = {k: dict(v) for k, v in data["cells"].items()}
    mcell = mutated["cells"]["l3switch/SWC@2"]
    mcell["verdict"] = dict(mcell["verdict"], kind="compute-bound",
                            channel=None)
    mut_path = tmp_path / "mutated.json"
    mut_path.write_text(json.dumps(mutated))
    text, code = obs_diff.run_diff(occ1[0], str(mut_path), tolerance=0.0)
    assert code == obs_diff.EXIT_REGRESSION
    assert "verdict changed" in text


def test_committed_occupancy_bench_is_what_the_code_produces(tmp_path):
    """``python -m repro.sweep --apps mpls --levels SWC --no-table1
    --profile`` through the library: the committed file equals a fresh
    run byte for byte, so any change to what the simulator counts or the
    profiler attributes shows up here, not only in CI."""
    from repro.sweep.orchestrator import RATE_MEASURE, RATE_WARMUP

    _, paths = _occupancy_sweep(tmp_path, "mpls", app="mpls",
                                me_counts=range(1, 7),
                                rate_warmup=RATE_WARMUP,
                                rate_measure=RATE_MEASURE)
    fresh = [p for p in paths if p.endswith("BENCH_occupancy.json")]
    committed = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                             "BENCH_occupancy.json")
    with open(fresh[0], "rb") as fh, open(committed, "rb") as ref:
        assert fh.read() == ref.read()


def test_saturated_channel_is_at_most_fully_busy(tmp_path):
    """mpls SWC at 4 MEs saturates DRAM, whose queue still holds requests
    past the run's last cycle. A channel's busy time is what it served by
    that cycle, so no channel reads more than fully busy."""
    _, paths = _occupancy_sweep(tmp_path, "sat", app="mpls", me_counts=(4,))
    fresh = [p for p in paths if p.endswith("BENCH_occupancy.json")]
    with open(fresh[0]) as fh:
        cell = json.load(fh)["cells"]["mpls/SWC@4"]
    util = {name: ch["utilization"] for name, ch in cell["channels"].items()}
    assert all(u <= 1.0 for u in util.values()), util
    assert util["dram"] > 0.9, util  # still the saturated channel


def test_diff_rejects_unknown_kind(tmp_path, capsys):
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    good.write_text(json.dumps({"kind": "bench_occupancy", "cells": {}}))
    bad.write_text(json.dumps({"kind": "bench_v2_totally_real"}))
    # Unknown kind is a failed gate (exit 2), never a clean empty diff.
    assert obs_diff.main([str(good), str(bad)]) == obs_diff.EXIT_REGRESSION
    assert obs_diff.main([str(bad), str(good)]) == obs_diff.EXIT_REGRESSION
    err = capsys.readouterr().err
    assert "unknown kind" in err and "bench_v2_totally_real" in err
    # So is a retired kind: a stale file must not diff clean.
    for retired in ("bench_ffspeed", "bench_tune"):
        bad.write_text(json.dumps({"kind": retired, "apps": {}}))
        assert obs_diff.main([str(bad), str(bad)]) == \
            obs_diff.EXIT_REGRESSION
        assert "unknown kind '%s'" % retired in capsys.readouterr().err
    # Missing kind stays a plain usage error (exit 1).
    nokind = tmp_path / "nokind.json"
    nokind.write_text(json.dumps({"cells": {}}))
    assert obs_diff.main([str(nokind), str(good)]) == 1
    capsys.readouterr()
    # A known kind with a body of the wrong shape is as ungateable as an
    # unknown kind: one diagnostic naming file and field, exit 2.
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({"kind": "bench", "me_counts": [1, 2],
                                 "rates": {"SWC": [1, 2]}}))
    for body, field in (
            ({"kind": "bench", "rates": {"SWC": ["a", 1]}}, "rates[SWC]"),
            ({"kind": "bench", "rates": "oops"}, "'rates'"),
            ({"kind": "bench_occupancy",
              "cells": {"a/SWC@1": {"verdict": "x"}}},
             "cells[a/SWC@1][verdict]"),
            ({"kind": "bench_churn",
              "summary": {"stale_cycles_max": "soon"}},
             "summary[stale_cycles_max]")):
        bad.write_text(json.dumps(body))
        ok = {"bench": rates, "bench_churn": bad}.get(body["kind"], good)
        assert obs_diff.main([str(ok), str(bad)]) == obs_diff.EXIT_REGRESSION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(bad) in err and field in err, err


def test_bottleneck_report_rejects_wrong_kind(tmp_path, capsys):
    from repro.obs.report import bottleneck_main

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "bench", "figure": "fig13"}))
    assert bottleneck_main([str(wrong)]) == 1
    assert "bench_occupancy" in capsys.readouterr().err
    assert bottleneck_main([str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()
    # Right kind, body of the wrong shape: a diagnostic, not a traceback.
    wrong.write_text(json.dumps({"kind": "bench_occupancy", "cells": [1, 2]}))
    assert bottleneck_main([str(wrong)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(wrong) in err, err
    assert "'cells'" in err


# -- serve integration ----------------------------------------------------------


def test_serve_profile_is_pure_observation():
    from repro.serve.harness import ServeConfig, run_service

    base = dict(app="l3switch", level="O1", n_mes=2, windows=6,
                window_cycles=20_000.0, offered_gbps=2.0)
    off = run_service(ServeConfig(**base))
    on = run_service(ServeConfig(profile=True, **base))
    assert off.occupancy is None
    assert on.occupancy is not None
    # The churn bench payload -- the committed artifact -- is identical.
    assert on.bench == off.bench
    assert on.occupancy["verdict"]["text"].startswith("l3switch @2ME: ")
    names = {name for w in on.collector.windows
             for name in (w.get("counters") or {})}
    assert any(n.startswith("occ.") for n in names), names


#: sha256 prefix of the three services' occupancy cells and per-window
#: occ.* counters under the short configuration below. Every number the
#: profiler reports in a serve run goes into it, so a change to what the
#: simulator counts or how a stop is attributed moves it.
_SERVE_OCCUPANCY_DIGEST = "67797f803ac98ed0"


def test_profiled_serve_output_is_pinned():
    import hashlib

    from repro.serve.churn import ChurnSpec
    from repro.serve.harness import ServeConfig, run_service

    kinds = {"l3switch": "route-flap", "firewall": "fw-toggle",
             "mpls": "mpls-relabel"}
    digest = hashlib.sha256()
    for app, kind in kinds.items():
        res = run_service(ServeConfig(app=app, level="SWC", n_mes=3,
                                      windows=10, offered_gbps=2.5,
                                      profile=True,
                                      churn=[ChurnSpec(kind, 2, 3, 3)]))
        occ = [{n: v for n, v in (w.get("counters") or {}).items()
                if n.startswith("occ.")} for w in res.collector.windows]
        digest.update(json.dumps({"occupancy": res.occupancy,
                                  "windows": occ}, sort_keys=True).encode())
    assert digest.hexdigest()[:16] == _SERVE_OCCUPANCY_DIGEST
