"""Tests for the throughput model and aggregate formation (Figure 7)."""

import pytest

from repro.aggregation import (
    CC_COST,
    assign_mes,
    form_aggregates,
    packets_per_second_for_gbps,
    stage_throughput,
    system_throughput,
)
from repro.aggregation.aggregate import aggregate_cost, external_channels
from repro.aggregation.formation import apply_plan
from repro.cg import melayout
from repro.cg.melayout import PROGRAMMABLE_MES
from repro.ir import instructions as I
from repro.ir.verifier import verify_module
from repro.opt import inline
from repro.opt.pipeline import scalar_optimize_function
from repro.options import options_for
from repro.profiler.interpreter import run_reference
from repro.profiler.trace import ipv4_trace
from tests.ir_helpers import lower
from tests.samples import ETHER_IPV4_PROTOCOLS, MINI_FORWARDER, PASSTHROUGH

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


# -- throughput model (Equation 1) -----------------------------------------------


def test_stage_throughput_scales_with_mes():
    assert stage_throughput(600, 2) == pytest.approx(2e6)


def test_assign_mes_gives_bottleneck_more():
    # Stage costs 100 and 500: with 6 MEs the 500-cost stage deserves 5.
    assert assign_mes([100, 500], 6) == [1, 5]


def test_assign_mes_even_split():
    assert assign_mes([300, 300, 300], 6) == [2, 2, 2]


def test_assign_mes_insufficient():
    assert assign_mes([1, 2, 3], 2) == [0, 0, 0]


def test_system_throughput_monotone_in_mes():
    costs = [200.0, 350.0]
    rates = [system_throughput(costs, n) for n in range(2, 7)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_system_throughput_single_stage_linear():
    t1 = system_throughput([700.0], 1)
    t6 = system_throughput([700.0], 6)
    assert t6 == pytest.approx(6 * t1)


def test_equation1_pipelining_vs_duplication():
    # A 600-cost task split into two 300-cost pipe stages on 6 MEs gives
    # the same model throughput as duplicating the whole task 6x --
    # but splitting unevenly (200/400) is strictly worse. The model
    # therefore biases against pipelining (paper section 5.1).
    duplicated = system_throughput([600.0], 6)
    pipelined_even = system_throughput([300.0, 300.0], 6)
    assert pipelined_even == pytest.approx(duplicated)
    # With 5 MEs the skewed split cannot balance: strictly worse.
    assert system_throughput([200.0, 400.0], 5) < system_throughput([600.0], 5)


def test_pps_for_line_rate():
    # 2.5 Gbps of 64 B packets ~ 4.88 Mpps (the paper's OC-48 budget).
    pps = packets_per_second_for_gbps(2.5)
    assert pps == pytest.approx(4.88e6, rel=0.01)


# -- aggregate cost & wiring helpers ------------------------------------------------


def _profiled(src, n=40, **kw):
    mod = lower(src)
    trace = ipv4_trace(n, [0xC0A80101, 0xC0A80202], MACS, **kw)
    profile = run_reference(mod, trace).profile
    return mod, profile


def test_external_channels_of_single_ppf():
    mod, _ = _profiled(MINI_FORWARDER)
    inputs, outputs = external_channels(mod, {"l3_switch.l2_clsfr"})
    assert inputs == ["rx"]
    assert set(outputs) == {
        "l3_switch.arp_cc",
        "l3_switch.l2_bridge_cc",
        "l3_switch.l3_forward_cc",
    }


def test_external_channels_of_merged_set():
    mod, _ = _profiled(MINI_FORWARDER)
    members = {"l3_switch.l2_clsfr", "l3_switch.l3_fwdr", "l3_switch.l2_bridge"}
    inputs, outputs = external_channels(mod, members)
    assert inputs == ["rx"]
    assert set(outputs) == {"l3_switch.arp_cc", "tx"}


def test_aggregate_cost_includes_cc_overhead():
    mod, profile = _profiled(MINI_FORWARDER)
    solo = aggregate_cost(mod, profile, {"l3_switch.l2_clsfr"}, CC_COST)
    assert solo > profile.ppf_weight("l3_switch.l2_clsfr")


def test_merging_reduces_total_cost():
    mod, profile = _profiled(MINI_FORWARDER)
    a = aggregate_cost(mod, profile, {"l3_switch.l2_clsfr"}, CC_COST)
    b = aggregate_cost(mod, profile, {"l3_switch.l3_fwdr"}, CC_COST)
    merged = aggregate_cost(
        mod, profile, {"l3_switch.l2_clsfr", "l3_switch.l3_fwdr"}, CC_COST
    )
    assert merged < a + b  # the connecting channel's put+get disappeared


# -- formation (Figure 7) ---------------------------------------------------------


def test_formation_merges_hot_path_single_aggregate():
    mod, profile = _profiled(MINI_FORWARDER, arp_fraction=0.1, seed=2)
    opts = options_for("SWC")
    plan = form_aggregates(mod, profile, opts)
    assert len(plan.me_aggregates) == 1
    hot = plan.me_aggregates[0]
    assert "l3_switch.l2_clsfr" in hot.ppfs
    assert "l3_switch.l3_fwdr" in hot.ppfs
    # The hot aggregate is replicated across all programmable MEs.
    assert hot.me_count == PROGRAMMABLE_MES


def test_formation_maps_cold_ppf_to_xscale():
    mod, profile = _profiled(MINI_FORWARDER, arp_fraction=0.04, seed=2)
    plan = form_aggregates(mod, profile, options_for("SWC"))
    xscale_ppfs = [p for agg in plan.xscale_aggregates for p in agg.ppfs]
    assert "l3_switch.arp_handler" in xscale_ppfs


def test_formation_respects_code_store_limit(monkeypatch):
    mod, profile = _profiled(MINI_FORWARDER, arp_fraction=0.1)
    from repro.cg.codesize import estimate_closure

    opts = options_for("BASE")
    biggest = max(
        estimate_closure(mod, [fn.name], opts) for fn in mod.ppfs()
    )
    # Each PPF fits alone, but no two can merge.
    monkeypatch.setattr(melayout, "CODE_STORE_WORDS", int(biggest * 1.2))
    plan = form_aggregates(mod, profile, opts)
    assert len(plan.me_aggregates) >= 2  # forced pipeline


def test_formation_pipeline_splits_when_merged_too_big(monkeypatch):
    mod, profile = _profiled(MINI_FORWARDER, arp_fraction=0.1)
    from repro.cg.codesize import estimate_closure

    opts = options_for("BASE")
    # Choose a limit that fits each PPF alone but not two together.
    limit = int(
        max(estimate_closure(mod, [fn.name], opts) for fn in mod.ppfs()) * 1.2
    )
    monkeypatch.setattr(melayout, "CODE_STORE_WORDS", limit)
    plan = form_aggregates(mod, profile, opts)
    assert all(a.code_size <= limit for a in plan.me_aggregates)
    assert len(plan.me_aggregates) >= 2


def _ppf_estimates(level):
    """Each PPF's code-size estimate as formation sees it at ``level``."""
    from repro.cg.codesize import estimate_closure
    from repro.opt.pipeline import run_scalar_pipeline

    opts = options_for(level)
    mod = lower(MINI_FORWARDER)
    run_scalar_pipeline(mod, opts)
    return {fn.name: estimate_closure(mod, [fn.name], opts) for fn in mod.ppfs()}


def test_formation_maps_oversized_aggregate_to_xscale(monkeypatch):
    from repro.compiler import compile_baker
    from repro.rts.system import verify_against_reference

    sizes = _ppf_estimates("BASE")
    assert max(sizes, key=sizes.get) == "l3_switch.l3_fwdr"
    trace = ipv4_trace(40, [0xC0A80101, 0xC0A80202], MACS,
                       arp_fraction=0.1, seed=2)
    monkeypatch.setattr(melayout, "CODE_STORE_WORDS", max(sizes.values()) - 1)
    result = compile_baker(MINI_FORWARDER, options_for("BASE"), trace)
    fwdr = [a for a in result.plan.xscale_aggregates
            if "l3_switch.l3_fwdr" in a.ppfs]
    assert len(fwdr) == 1 and fwdr[0].code_size > melayout.CODE_STORE_WORDS
    mapped = [d for d in result.decisions if d.verdict == "mapped_xscale"
              and d.subject == fwdr[0].name]
    assert [d.reason for d in mapped] == ["oversized for the ME code store"]
    assert result.plan.me_aggregates
    assert verify_against_reference(result, trace)


def test_loader_refuses_a_plan_without_me_aggregates(monkeypatch):
    from repro.compiler import compile_baker
    from repro.ixp.chip import IXP2400
    from repro.rts.loader import LoaderError, load_system

    sizes = _ppf_estimates("BASE")
    trace = ipv4_trace(40, [0xC0A80101, 0xC0A80202], MACS,
                       arp_fraction=0.1, seed=2)
    monkeypatch.setattr(melayout, "CODE_STORE_WORDS", min(sizes.values()) - 1)
    result = compile_baker(MINI_FORWARDER, options_for("BASE"), trace)
    assert not result.plan.me_aggregates
    with pytest.raises(LoaderError, match="no ME aggregates to load"):
        load_system(result, IXP2400(n_programmable_mes=2))


def test_internal_channels_identified():
    mod, profile = _profiled(MINI_FORWARDER, arp_fraction=0.1, seed=2)
    plan = form_aggregates(mod, profile, options_for("SWC"))
    assert "l3_switch.l3_forward_cc" in plan.internal_channels
    assert "rx" not in plan.internal_channels
    assert "l3_switch.arp_cc" not in plan.internal_channels  # crosses to XScale


def test_apply_plan_rewrites_puts_to_calls():
    mod, profile = _profiled(MINI_FORWARDER, arp_fraction=0.1, seed=2)
    plan = form_aggregates(mod, profile, options_for("SWC"))
    apply_plan(mod, plan)
    verify_module(mod)
    clsfr = mod.functions["l3_switch.l2_clsfr"]
    calls = [i for i in clsfr.all_instrs() if isinstance(i, I.Call)]
    assert any(c.func == "l3_switch.l3_fwdr" for c in calls)
    puts = [i for i in clsfr.all_instrs() if isinstance(i, I.ChanPut)]
    # The hot forwarding channel is gone; channels to cold (XScale) PPFs
    # remain rings.
    remaining = {p.channel for p in puts}
    assert "l3_switch.l3_forward_cc" not in remaining
    assert "l3_switch.arp_cc" in remaining


def test_apply_plan_preserves_semantics():
    trace = ipv4_trace(30, [0xC0A80101], MACS, arp_fraction=0.2, seed=5)
    ref = run_reference(lower(MINI_FORWARDER), trace)
    mod = lower(MINI_FORWARDER)
    profile = run_reference(lower(MINI_FORWARDER), trace).profile
    plan = form_aggregates(mod, profile, options_for("SWC"))
    apply_plan(mod, plan)
    inline.run(mod)
    for fn in mod.functions.values():
        scalar_optimize_function(fn)
    verify_module(mod)
    got = run_reference(mod, trace)
    assert got.tx_signature() == ref.tx_signature()


def test_fast_functions_cover_callees():
    mod, profile = _profiled(MINI_FORWARDER, arp_fraction=0.1, seed=2)
    plan = form_aggregates(mod, profile, options_for("SWC"))
    fast = plan.fast_functions(mod)
    assert "mix" in fast
    assert "l3_switch.l2_clsfr" in fast
    assert "l3_switch.arp_handler" not in fast


def test_compile_ir_end_to_end_mid_end():
    from repro.compiler import compile_baker

    trace = ipv4_trace(40, [0xC0A80101, 0xC0A80202], MACS, arp_fraction=0.1, seed=7)
    result = compile_baker(MINI_FORWARDER, options_for("SWC"), trace, codegen=False)
    assert result.plan.me_aggregates
    assert result.soar_result is not None
    assert result.phr_result is not None
    # Optimized module still produces the reference output.
    ref = run_reference(lower(MINI_FORWARDER), trace)
    got = run_reference(result.mod, trace)
    assert got.tx_signature() == ref.tx_signature()


def test_compile_ir_all_levels_semantics():
    from repro.compiler import compile_baker
    from repro.options import LEVEL_ORDER

    trace = ipv4_trace(25, [0xC0A80101], MACS, arp_fraction=0.15, seed=9)
    ref = run_reference(lower(MINI_FORWARDER), trace)
    for level in LEVEL_ORDER:
        result = compile_baker(MINI_FORWARDER, options_for(level), trace, codegen=False)
        got = run_reference(result.mod, trace)
        assert got.tx_signature() == ref.tx_signature(), level


def test_plan_costs_do_not_follow_the_hash_seed():
    """An aggregate's cost sums its members' weights; two processes with
    different string-hash seeds must plan bit-identical costs (a sum in
    set order differs in the last bit: Firewall BASE under seeds 0 and
    1)."""
    import os
    import subprocess
    import sys

    script = (
        "from repro.apps import get_app\n"
        "from repro.compiler import compile_baker\n"
        "from repro.options import options_for\n"
        "app = get_app('firewall')\n"
        "r = compile_baker(app.source, options_for('BASE'),\n"
        "                  app.make_trace(200, seed=5), codegen=False)\n"
        "print([repr(a.cost) for a in r.plan.me_aggregates\n"
        "       + r.plan.xscale_aggregates], repr(r.plan.throughput_pps))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1]
