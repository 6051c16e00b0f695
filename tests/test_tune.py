"""The autotuner's contract, plus the SWC bugfix regressions that ride
in the same change.

Headline regression: Equation-2 enforcement. Before the fix, any
configured ``swc_check_period`` was compiled in verbatim -- a period
whose implied check rate (1/period) fell below a cached global's
``min_check_rate(0.01, stores/pkt, loads/pkt)`` silently violated the
paper's 1% tolerable-error bound. ``enforce_check_period`` now clamps
it and records the clamp as a ledger decision; these tests prove the
silent path is gone. The second bugfix: acceptance evidence records the
estimated hit rate at the CAM capacity a structure *actually* competes
for, not the stale full-CAM estimate.

Tuner properties: byte-identical output across ``--jobs`` counts,
pruner rules against synthetic evidence, every trial's rate being a
plain ``run_on_simulator`` measurement at the figure windows, and
fail-fast CLI validation for both ``repro.sweep`` and ``repro.tune``.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.baker import types as T
from repro.baker.symbols import GlobalSymbol, SymbolKind
from repro.ir import instructions as I
from repro.ir.module import IRFunction
from repro.ir.values import Const
from repro.obs import ledger as obs_ledger
from repro.opt import swc
from repro.profiler.stats import ProfileData
from repro.sweep import CompileCache
from repro.tune import pruner
from repro.tune.space import (
    SearchSpace,
    TrialConfig,
    base_trials,
    exclude_trials,
)

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
    """ProfileData from {name: (loads_by_offset, stores)}."""
    profile = ProfileData(packets_in=PACKETS)
    for name, (offsets, stores) in per_global.items():
        gs = profile.gstat(name)
        gs.load_offsets = Counter(offsets)
        gs.loads = sum(offsets.values())
        gs.stores = stores
    return profile


def _select(profile, names, exclude=()):
    mod = FakeModule({n: _global(n) for n in names},
                     {"fast": _fast_fn(names)})
    return swc.select_candidates(mod, profile, {"fast"}, exclude=exclude)


# -- headline bugfix: Equation-2 enforcement -------------------------------------


def _storing_profile():
    """One hot candidate that *is* written: loads 5/pkt over one line,
    stores 1 per 1000 packets -> Equation 2 minimum check rate
    0.001 * 5 / 0.01 = 0.5, so no period above 2 satisfies the bound."""
    return _profile(hot=({0: 5 * PACKETS}, 1))


def test_eq2_violating_period_is_clamped_with_ledger_decision():
    result = _select(_storing_profile(), ["hot"])
    assert result.cached_names() == ["hot"]
    assert result.eq2_min_check_rate == pytest.approx(0.5)

    led = obs_ledger.DecisionLedger(enabled=True)
    old = obs_ledger._GLOBAL
    obs_ledger._GLOBAL = led
    try:
        effective = swc.enforce_check_period(result, 16)
    finally:
        obs_ledger._GLOBAL = old

    # The old behavior -- compile the requested 16 straight in -- is
    # gone: the period is clamped to floor(1/0.5) = 2.
    assert effective == 2
    assert result.requested_check_period == 16
    assert result.check_period == 2
    clamps = [d for d in led.decisions if d.subject == "check_period"]
    assert len(clamps) == 1 and clamps[0].verdict == "clamped"
    assert clamps[0].evidence["requested_period"] == 16
    assert clamps[0].evidence["effective_period"] == 2
    assert clamps[0].evidence["eq2_min_check_rate"] == pytest.approx(0.5)


def test_satisfiable_period_passes_through_unclamped():
    result = _select(_storing_profile(), ["hot"])
    assert swc.enforce_check_period(result, 2) == 2
    assert result.check_period == 2
    # Never-written candidates (eq2 == 0) never clamp any period.
    result2 = _select(_profile(hot=({0: 5 * PACKETS}, 0)), ["hot"])
    assert result2.eq2_min_check_rate == 0.0
    assert swc.enforce_check_period(result2, 10 ** 9) == 10 ** 9


def test_eq2_unsatisfiable_candidate_rejected_outright():
    """A candidate whose Equation-2 minimum exceeds one check per
    packet cannot be cached at any integer period."""
    # loads 20/pkt, stores 1/pkt-ish: rate = 0.02 * 20 / 0.01 = 40 > 1.
    # Keep the store/load ratio under the screening threshold (0.01).
    profile = _profile(hot=({0: 20 * PACKETS}, 20))
    result = _select(profile, ["hot"])
    assert result.cached == []
    assert "Equation 2 unsatisfiable" in result.rejected["hot"]


def test_compiled_app_records_enforced_period():
    """Through the full compiler, the enforced period lands on the
    SwcResult (mpls's accepted candidates are never stored during the
    profile, so the stock period is admissible unchanged -- the point
    is that it now flows through enforce_check_period, not around it)."""
    result, _trace, _hit = CompileCache().get_or_compile("mpls", "SWC",
                                                         200, 5)
    sr = result.swc_result
    assert sr is not None and sr.cached
    assert sr.requested_check_period == 16
    assert sr.check_period == 16
    assert sr.eq2_min_check_rate == 0.0
    # ... and the capacity-aware acceptance evidence is recorded.
    for name in sr.cached_names():
        assert set(sr.evidence[name]) >= {"loads_per_packet", "hit_rate",
                                          "cam_capacity",
                                          "eq2_min_check_rate"}


# -- bugfix: acceptance evidence at actual CAM capacity --------------------------


def test_hit_rate_recorded_at_remaining_capacity():
    """The second admitted structure competes for what the first left
    (16 - 4 = 12 lines), so its recorded hit rate must be the 12-line
    estimate, not the stale full-CAM one."""
    hot = {off * 4: 1250 for off in range(4)}  # 4 equal lines, ws=4
    # 1 dominant line + 13 cold ones: 14 distinct lines > 12 remaining.
    warm = {0: 860}
    warm.update({(1 + i) * 4: 10 for i in range(13)})
    profile = _profile(hot=(hot, 0), warm=(warm, 0))
    result = _select(profile, ["hot", "warm"])
    assert result.cached_names() == ["hot", "warm"]

    ev = result.evidence["warm"]
    assert ev["cam_capacity"] == 12.0
    stats = profile.global_stats["warm"]
    assert ev["hit_rate"] == pytest.approx(
        stats.estimated_hit_rate(12, 1))
    # The stale full-CAM estimate is strictly higher -- the old bug.
    assert stats.estimated_hit_rate(16, 1) > ev["hit_rate"]
    assert result.evidence["hot"]["cam_capacity"] == 16.0


def test_swc_exclude_rejects_before_selection():
    profile = _profile(hot=({0: 5 * PACKETS}, 0))
    result = _select(profile, ["hot"], exclude=("hot",))
    assert result.cached == []
    assert result.rejected["hot"] == "excluded by options (swc_exclude)"


def test_options_for_normalizes_exclude_order():
    from repro.options import options_for

    a = options_for("SWC", swc_exclude=["b", "a"])
    b = options_for("SWC", swc_exclude=("a", "b"))
    assert a.swc_exclude == ("a", "b")
    assert a == b


# -- pruner rules against synthetic evidence -------------------------------------


def _summary(cached=(), rejected=None, eq2=0.0):
    return {"cached": list(cached), "rejected": dict(rejected or {}),
            "evidence": {}, "eq2_min_check_rate": eq2,
            "requested_check_period": 16, "check_period": 16}


def test_pruner_noop_excludes():
    base = TrialConfig("SWC", (("swc_check_period", 16),))
    summary = _summary(cached=["ilm"], rejected={"ftn": "too cold"})
    variants = exclude_trials(base, summary)
    assert [v.override_dict()["swc_exclude"] for v in variants] == \
        [("ftn",), ("ilm",)]

    kept, pruned = pruner.prune_noop_excludes(variants, summary, 4)
    assert [t.override_dict()["swc_exclude"] for t in kept] == [("ilm",)]
    assert len(pruned) == 1
    rec = pruned[0].to_record()
    assert rec["rule"] == "noop-exclude"
    assert rec["trials_skipped"] == 4
    assert rec["provenance"]["decisions"] == {"ftn": "too cold"}


def test_pruner_clamped_periods():
    trials = [TrialConfig("SWC", (("swc_check_period", p),))
              for p in (4, 16, 64)]
    # eq2 0.1 -> max effective period 10: both 16 and 64 clamp to 10,
    # so one of them (the lowest) represents the region.
    kept, pruned = pruner.prune_clamped_periods(
        trials, _summary(cached=["x"], eq2=0.1), 3)
    periods = [t.override_dict()["swc_check_period"] for t in kept]
    assert periods == [4, 16]
    assert len(pruned) == 1
    assert pruned[0].rule == "period-beyond-clamp"
    assert pruned[0].provenance["max_effective_period"] == 10
    # No stores -> no bound -> nothing pruned.
    kept2, pruned2 = pruner.prune_clamped_periods(
        trials, _summary(cached=["x"], eq2=0.0), 3)
    assert len(kept2) == 3 and pruned2 == []


def _occ(kind, channel="dram", util=0.99):
    return {"verdict": {"kind": kind, "channel": channel,
                        "text": "%s on %s" % (kind, channel)},
            "channels": {channel: {"utilization": util}}}


def test_pruner_memory_bound_mes():
    cfg = TrialConfig("SWC", (("swc_check_period", 16),))
    # Saturated + no rate gain at 3 MEs -> 4 is pruned.
    kept, pruned = pruner.prune_memory_bound_mes(
        cfg, [1, 2, 3, 4], {1: 0.5, 2: 0.8, 3: 0.79},
        {1: _occ("latency-bound"), 2: _occ("memory-bound", util=0.97),
         3: _occ("memory-bound", util=0.99)})
    assert kept == [1, 2, 3]
    assert len(pruned) == 1 and pruned[0].rule == "memory-bound-mes"
    assert pruned[0].provenance["n_mes"] == 3

    # Still scaling at 2 MEs despite saturation: nothing pruned yet.
    kept2, pruned2 = pruner.prune_memory_bound_mes(
        cfg, [1, 2, 3], {1: 0.5, 2: 0.8},
        {1: _occ("latency-bound"), 2: _occ("memory-bound", util=0.99)})
    assert kept2 == [1, 2, 3] and pruned2 == []

    # Memory-bound but under the saturation threshold: not pruned.
    kept3, pruned3 = pruner.prune_memory_bound_mes(
        cfg, [1, 2, 3], {1: 0.5, 2: 0.49},
        {1: _occ("latency-bound"), 2: _occ("memory-bound", util=0.8)})
    assert kept3 == [1, 2, 3] and pruned3 == []


def test_base_trials_enumeration():
    space = SearchSpace(app="mpls", levels=("PHR", "SWC"),
                        check_periods=(4, 64), target_gbps=(2.5,))
    labels = [t.label() for t in base_trials(space)]
    assert labels == ["PHR", "SWC[swc_check_period=4]",
                      "SWC[swc_check_period=64]"]


# -- the tuner end to end --------------------------------------------------------

TINY = SearchSpace(app="mpls", levels=("SWC",), check_periods=(16,),
                   me_counts=(1, 2))


@pytest.fixture(scope="module")
def tiny_outcomes():
    """The tiny space tuned twice -- inline and with two workers --
    against the shared on-disk compile cache."""
    from repro.tune.driver import run_tune

    return (run_tune(TINY, n_jobs=1, cache=CompileCache()),
            run_tune(TINY, n_jobs=2, cache=CompileCache()))


def test_tune_jobs1_vs_jobs2_byte_identical(tiny_outcomes, tmp_path):
    from repro.tune.report import tune_payload, write_bench

    o1, o2 = tiny_outcomes
    blob1 = json.dumps(tune_payload([o1]), sort_keys=True)
    blob2 = json.dumps(tune_payload([o2]), sort_keys=True)
    assert blob1 == blob2

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    p1 = write_bench([o1], str(tmp_path / "a"))
    p2 = write_bench([o2], str(tmp_path / "b"))
    with open(p1, "rb") as fh1, open(p2, "rb") as fh2:
        assert fh1.read() == fh2.read()


def test_tune_outcome_shape(tiny_outcomes):
    o1, _ = tiny_outcomes
    # Evidence pruning fired: every exclude variant of a rejected
    # global was killed before simulation, with provenance.
    noop = [p for p in o1.pruned if p.rule == "noop-exclude"]
    assert noop, "expected ledger-pruned regions on mpls"
    assert all(p.provenance["decisions"] for p in noop)
    # Real exclude variants of *cached* globals were measured.
    measured_excludes = {
        c.config.override_dict().get("swc_exclude")
        for c in o1.cells if "swc_exclude" in c.config.override_dict()}
    assert measured_excludes
    # A winner was picked and compared against the committed baseline
    # at the same ME count.
    assert o1.best is not None and o1.best.gbps > 0
    assert o1.baseline is not None
    assert o1.baseline["n_mes"] == o1.best.n_mes
    assert o1.baseline["source"] == "BENCH_fig15.json"


def test_tune_diff_gate_flags_lost_pruning(tiny_outcomes, tmp_path):
    from repro.obs import diff as obs_diff
    from repro.tune.report import write_bench

    o1, _ = tiny_outcomes
    (tmp_path / "old").mkdir()
    p_old = write_bench([o1], str(tmp_path / "old"))
    with open(p_old) as fh:
        data = json.load(fh)
    data["apps"]["mpls"]["pruned_regions"] = []
    p_new = str(tmp_path / "BENCH_new.json")
    with open(p_new, "w") as fh:
        json.dump(data, fh)

    text, code = obs_diff.run_diff(p_old, p_old)
    assert code == 0, text
    text, code = obs_diff.run_diff(p_old, p_new)
    assert code == obs_diff.EXIT_REGRESSION
    assert "pruning vanished" in text


# -- one measurement per trial ---------------------------------------------------


def test_trial_rates_are_direct_simulator_measurements(tiny_outcomes):
    """The tuner has no rate model: each trial's ``gbps`` is what
    ``run_on_simulator`` measures for that (config, n_mes) at the figure
    windows."""
    from repro.rts.system import run_on_simulator
    from repro.sweep.orchestrator import RATE_MEASURE, RATE_WARMUP

    o1, _ = tiny_outcomes
    assert o1.cells
    for cell in o1.cells:
        result, trace, _hit = CompileCache().get_or_compile(
            "mpls", cell.config.level, 200, 5,
            overrides=cell.config.overrides_or_none(),
            target_gbps=cell.config.target_gbps)
        run = run_on_simulator(result, trace, n_mes=cell.n_mes,
                               warmup_packets=RATE_WARMUP,
                               measure_packets=RATE_MEASURE)
        assert cell.gbps == round(run.forwarding_gbps, 3), cell.key()


# -- CLI fail-fast validation ----------------------------------------------------


def _expect_cli_error(main, argv, token, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert token in err, err


def test_sweep_cli_fails_fast(capsys):
    from repro.sweep.__main__ import main

    _expect_cli_error(main, ["--apps", "mpls,nosuchapp"], "nosuchapp",
                      capsys)
    _expect_cli_error(main, ["--levels", "SWC,TURBO"], "TURBO", capsys)
    _expect_cli_error(main, ["--me-counts", "1,0"], "0", capsys)
    _expect_cli_error(main, ["--me-counts", "1,two"], "two", capsys)
    _expect_cli_error(main, ["--jobs", "0"], "--jobs", capsys)
    _expect_cli_error(main, ["--warmup", "-5"], "--warmup must be >= 0, "
                      "got -5", capsys)
    _expect_cli_error(main, ["--measure", "0"], "--measure must be >= 1, "
                      "got 0", capsys)
    _expect_cli_error(main, ["--table1-measure", "0"],
                      "--table1-measure must be >= 1, got 0", capsys)
    _expect_cli_error(main, ["--trace-packets", "0"],
                      "--trace-packets must be >= 1, got 0", capsys)


def test_tune_cli_fails_fast(capsys):
    from repro.tune.__main__ import main

    _expect_cli_error(main, ["--app", "nosuchapp"], "nosuchapp", capsys)
    _expect_cli_error(main, ["--apps", "mpls,bogus"], "bogus", capsys)
    _expect_cli_error(main, ["--levels", "SWC,TURBO"], "TURBO", capsys)
    _expect_cli_error(main, ["--me-counts", "-1"], "-1", capsys)
    _expect_cli_error(main, ["--check-periods", "0"], "0", capsys)
    _expect_cli_error(main, ["--jobs", "0"], "--jobs", capsys)
    _expect_cli_error(main, ["--warmup", "-5"], "--warmup must be >= 0, "
                      "got -5", capsys)
    _expect_cli_error(main, ["--measure", "0"], "--measure must be >= 1, "
                      "got 0", capsys)
    _expect_cli_error(main, ["--trace-packets", "0"],
                      "--trace-packets must be >= 1, got 0", capsys)
