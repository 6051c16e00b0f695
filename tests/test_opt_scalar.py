"""Tests for scalar optimizations: propagation, folding, CSE, DCE, inline.

Every transformation test also checks semantic preservation by running
the functional interpreter before and after optimization (differential
testing against the compiler's own oracle).
"""

import pytest

from repro.ir import instructions as I
from repro.ir.verifier import verify_module
from repro.opt import dce, inline, propagate
from repro.opt.pipeline import run_scalar_pipeline, scalar_optimize_function
from repro.options import LEVEL_ORDER, OPT_LEVELS, options_for
from repro.profiler.interpreter import Interpreter, run_reference
from repro.profiler.trace import ipv4_trace
from tests.ir_helpers import lower
from tests.samples import MINI_FORWARDER, PASSTHROUGH

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


def instrs_of(mod, name):
    return list(mod.functions[name].all_instrs())


def count_ops(mod, name, cls):
    return sum(1 for i in instrs_of(mod, name) if isinstance(i, cls))


# -- constant folding / propagation ----------------------------------------------


def test_constprop_folds_arithmetic():
    mod = lower("u32 f() { u32 a = 3; u32 b = a * 4 + 2; return b; }" + PASSTHROUGH)
    fn = mod.functions["f"]
    scalar_optimize_function(fn)
    instrs = list(fn.all_instrs())
    assert len(instrs) == 1
    assert isinstance(instrs[0], I.Ret)
    assert instrs[0].value.value == 14


def test_constprop_preserves_division_by_zero():
    mod = lower("u32 f() { u32 z = 0; return 4 / z; }" + PASSTHROUGH)
    fn = mod.functions["f"]
    scalar_optimize_function(fn)
    assert count_ops(mod, "f", I.BinOp) == 1  # the div survives


def test_constant_branch_folded():
    mod = lower("u32 f() { if (1 < 2) { return 7; } return 9; }" + PASSTHROUGH)
    fn = mod.functions["f"]
    scalar_optimize_function(fn)
    assert len(fn.blocks) == 1
    assert fn.entry.terminator.value.value == 7


def test_algebraic_identities():
    mod = lower("u32 f(u32 x) { return (x + 0) * 1 | 0; }" + PASSTHROUGH)
    fn = mod.functions["f"]
    scalar_optimize_function(fn)
    assert count_ops(mod, "f", I.BinOp) == 0


def test_mul_by_zero():
    mod = lower("u32 f(u32 x) { return x * 0 + 5; }" + PASSTHROUGH)
    fn = mod.functions["f"]
    scalar_optimize_function(fn)
    assert list(fn.all_instrs())[-1].value.value == 5


# -- copy propagation ----------------------------------------------------------------


def test_copyprop_chain_collapses():
    mod = lower("u32 f(u32 x) { u32 a = x; u32 b = a; u32 c = b; return c + 1; }" + PASSTHROUGH)
    fn = mod.functions["f"]
    scalar_optimize_function(fn)
    instrs = list(fn.all_instrs())
    assert len(instrs) == 2  # add + ret
    assert instrs[0].a is fn.params[0]


def test_copyprop_respects_redefinition():
    for body in ("u32 a = x; u32 b = a; a = 99; return b;",  # copy's dst
                 "u32 b = x; x = 99; return b;"):  # copy's source
        mod = lower("u32 f(u32 x) { %s }" % body + PASSTHROUGH)
        assert Interpreter(mod).call("f", [5]) == 5
        scalar_optimize_function(mod.functions["f"])
        assert Interpreter(mod).call("f", [5]) == 5, body


# -- CSE -----------------------------------------------------------------------------


def test_cse_merges_duplicate_loads():
    src = "u32 tbl[8]; u32 f(u32 i) { return tbl[i] + tbl[i]; }" + PASSTHROUGH
    mod = lower(src)
    assert count_ops(mod, "f", I.LoadG) == 2
    scalar_optimize_function(mod.functions["f"])
    assert count_ops(mod, "f", I.LoadG) == 1


def test_cse_respects_intervening_store():
    src = (
        "u32 tbl[8]; u32 f(u32 i) { u32 a = tbl[i]; tbl[i] = a + 1; u32 b = tbl[i]; return b; }"
        + PASSTHROUGH
    )
    mod = lower(src)
    scalar_optimize_function(mod.functions["f"])
    assert count_ops(mod, "f", I.LoadG) == 2


def test_cse_respects_call_barrier():
    src = (
        "u32 g = 1; void bump() { g = g + 1; } "
        "u32 f() { u32 a = g; bump(); u32 b = g; return a + b; }" + PASSTHROUGH
    )
    mod = lower(src)
    # Disable inlining so the call barrier is exercised.
    for _ in range(3):
        propagate.run(mod.functions["f"])
        dce.run(mod.functions["f"])
    assert count_ops(mod, "f", I.LoadG) == 2
    interp = Interpreter(mod)
    assert interp.call("f", []) == 3


def test_cse_commutative_canonicalization():
    src = "u32 f(u32 a, u32 b) { return (a + b) ^ (b + a); }" + PASSTHROUGH
    mod = lower(src)
    scalar_optimize_function(mod.functions["f"])
    # a+b and b+a value-number identically, so xor folds to x^x... which
    # is not folded further (no x^x rule), but only ONE add remains.
    assert count_ops(mod, "f", I.BinOp) <= 2


def test_cse_packet_loads_merge():
    src = PASSTHROUGH.replace(
        "channel_put(tx, ph);",
        "u32 a = ph->type; u32 b = ph->type; ph->meta.rx_port = a + b; channel_put(tx, ph);",
    )
    mod = lower(src)
    fn = mod.functions["fwd.go"]
    assert count_ops(mod, "fwd.go", I.PktLoadField) == 2
    scalar_optimize_function(fn)
    assert count_ops(mod, "fwd.go", I.PktLoadField) == 1


def test_cse_packet_loads_blocked_by_store():
    src = PASSTHROUGH.replace(
        "channel_put(tx, ph);",
        "u32 a = ph->type; ph->type = 5; u32 b = ph->type; "
        "ph->meta.rx_port = a + b; channel_put(tx, ph);",
    )
    mod = lower(src)
    scalar_optimize_function(mod.functions["fwd.go"])
    assert count_ops(mod, "fwd.go", I.PktLoadField) == 2


@pytest.mark.parametrize("read", ["ph->type", "packet_length(ph)"])
def test_cse_does_not_forward_a_packet_read_across_a_head_sync(read):
    """Hand-built IR no Baker program reaches (PHR places a sync only in
    front of an escape or at a block end): ``a = read; sync_head +2;
    b = read; sync_head -2``. The second read sees a moved head, so CSE
    must not forward the first."""
    src = PASSTHROUGH.replace(
        "channel_put(tx, ph);",
        "u32 a = %s; u32 b = %s; ph->type = a ^ b; channel_put(tx, ph);"
        % (read, read),
    )
    mod = lower(src)
    bb = mod.functions["fwd.go"].entry
    reads = [k for k, i in enumerate(bb.instrs)
             if isinstance(i, (I.PktLoadField, I.PktLength))]
    assert len(reads) == 2
    ph = bb.instrs[reads[0]].ph
    bb.instrs.insert(reads[1] + 1, I.PktSyncHead(ph, -2))
    bb.instrs.insert(reads[1], I.PktSyncHead(ph, 2))
    trace = ipv4_trace(8, [0xC0A80101], MACS, seed=3)
    ref = run_reference(mod, trace)

    propagate.run(mod.functions["fwd.go"])
    verify_module(mod)
    assert run_reference(mod, trace).tx_signature() == ref.tx_signature()


# -- DCE ---------------------------------------------------------------------------


def test_dce_removes_dead_arithmetic():
    mod = lower("u32 f(u32 x) { u32 dead = x * 17; return x; }" + PASSTHROUGH)
    fn = mod.functions["f"]
    scalar_optimize_function(fn)
    assert count_ops(mod, "f", I.BinOp) == 0


def test_dce_keeps_stores():
    mod = lower("u32 g = 0; void f(u32 x) { g = x; }" + PASSTHROUGH)
    fn = mod.functions["f"]
    scalar_optimize_function(fn)
    assert count_ops(mod, "f", I.StoreG) == 1


def test_dce_removes_unused_load():
    mod = lower("u32 g = 0; void f() { u32 a = g; }" + PASSTHROUGH)
    scalar_optimize_function(mod.functions["f"])
    assert count_ops(mod, "f", I.LoadG) == 0


# -- inlining ----------------------------------------------------------------------


def test_inline_simple_call():
    src = "u32 add1(u32 x) { return x + 1; } u32 f(u32 y) { return add1(y) * 2; }" + PASSTHROUGH
    mod = lower(src)
    inline.run(mod)
    assert count_ops(mod, "f", I.Call) == 0
    scalar_optimize_function(mod.functions["f"])
    interp = Interpreter(mod)
    assert interp.call("f", [20]) == 42


def test_inline_nested_calls():
    src = (
        "u32 a(u32 x) { return x + 1; } u32 b(u32 x) { return a(x) + 2; } "
        "u32 f(u32 x) { return b(x) + 4; }" + PASSTHROUGH
    )
    mod = lower(src)
    inline.run(mod)
    assert count_ops(mod, "f", I.Call) == 0
    interp = Interpreter(mod)
    assert interp.call("f", [0]) == 7


def test_inline_with_control_flow():
    src = (
        "u32 m(u32 a, u32 b) { if (a < b) { return b; } return a; } "
        "u32 f(u32 x) { return m(x, 10) + m(x, 3); }" + PASSTHROUGH
    )
    mod = lower(src)
    inline.run(mod)
    verify_module(mod)
    interp = Interpreter(mod)
    assert interp.call("f", [7]) == 17


def test_inline_void_function():
    src = "u32 g = 0; void bump() { g = g + 1; } u32 f() { bump(); bump(); return g; }" + PASSTHROUGH
    mod = lower(src)
    inline.run(mod)
    assert count_ops(mod, "f", I.Call) == 0
    interp = Interpreter(mod)
    assert interp.call("f", []) == 2


def test_inline_local_arrays_renamed():
    src = (
        "u32 sum3(u32 x) { u32 t[3]; t[0] = x; t[1] = x + 1; t[2] = x + 2; "
        "return t[0] + t[1] + t[2]; } "
        "u32 f(u32 x) { return sum3(x) + sum3(x + 10); }" + PASSTHROUGH
    )
    mod = lower(src)
    inline.run(mod)
    verify_module(mod)
    fn = mod.functions["f"]
    assert len(fn.local_arrays) == 2
    interp = Interpreter(mod)
    assert interp.call("f", [1]) == (1 + 2 + 3) + (11 + 12 + 13)


def test_inline_into_ppf():
    mod = lower(MINI_FORWARDER)
    inline.run(mod)
    assert count_ops(mod, "l3_switch.l3_fwdr", I.Call) == 0
    verify_module(mod)


# -- whole-pipeline differential tests ---------------------------------------------


@pytest.mark.parametrize("level", LEVEL_ORDER[:3])  # BASE, O1, O2
def test_scalar_levels_preserve_semantics(level):
    trace = ipv4_trace(30, [0xC0A80101, 0xC0A80202], MACS, arp_fraction=0.2, seed=4)
    ref_mod = lower(MINI_FORWARDER)
    ref = run_reference(ref_mod, trace)

    opt_mod = lower(MINI_FORWARDER)
    run_scalar_pipeline(opt_mod, OPT_LEVELS[level])
    verify_module(opt_mod)
    got = run_reference(opt_mod, trace)

    assert got.tx_signature() == ref.tx_signature()
    assert got.profile.packets_dropped == ref.profile.packets_dropped


def test_o1_reduces_instruction_count():
    trace = ipv4_trace(30, [0xC0A80101], MACS, seed=5)
    base_mod = lower(MINI_FORWARDER)
    base = run_reference(base_mod, trace)

    o1_mod = lower(MINI_FORWARDER)
    run_scalar_pipeline(o1_mod, OPT_LEVELS["O1"])
    o1 = run_reference(o1_mod, trace)

    base_cost = base.profile.ppf_instrs["l3_switch.l2_clsfr"]
    o1_cost = o1.profile.ppf_instrs["l3_switch.l2_clsfr"]
    assert o1_cost < base_cost


def test_options_levels_cumulative():
    assert not OPT_LEVELS["BASE"].scalar
    assert OPT_LEVELS["O1"].scalar and not OPT_LEVELS["O1"].inline
    assert OPT_LEVELS["PAC"].pac and OPT_LEVELS["PAC"].inline
    assert OPT_LEVELS["SWC"].swc and OPT_LEVELS["SWC"].phr
    assert options_for("pac").pac
    assert options_for("PAC", swc_check_period=8).swc_check_period == 8
