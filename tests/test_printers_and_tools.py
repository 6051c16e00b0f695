"""Coverage for the human-facing tooling: IR printer, LIR/assembly
printer, code-size estimation sanity, and option plumbing."""

import pytest

from repro.baker import types as T
from repro.cg import abi, isa
from repro.cg.asmprint import format_function as format_lir, format_insn
from repro.cg.codesize import estimate_closure, estimate_function
from repro.compiler import compile_baker
from repro.ir import instructions as I
from repro.ir.module import IRFunction
from repro.ir.printer import format_function, format_instr, format_module
from repro.ir.values import Const, Temp
from repro.options import LEVEL_ORDER, options_for
from repro.profiler.trace import ipv4_trace
from tests.ir_helpers import lower
from tests.samples import MINI_FORWARDER, PASSTHROUGH

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


def test_ir_printer_covers_every_instruction():
    t = [Temp(i, T.U32) for i in range(6)]
    ph = Temp(9, T.PacketType("ether"))
    samples = [
        I.Assign(t[0], Const(1)),
        I.BinOp("add", t[0], t[1], Const(2)),
        I.Cmp("lt_u", t[0], t[1], t[2]),
        I.Call(t[0], "f", [t[1]]),
        I.Ret(t[0]),
        I.LoadG(t[0], "g", Const(0), 4),
        I.LoadGWords([t[0], t[1]], "g", Const(0), 2),
        I.StoreG("g", Const(4), t[0], 4),
        I.LoadL(t[0], "arr", Const(0), 4),
        I.StoreL("arr", Const(0), t[0], 4),
        I.PktLoadField(t[0], ph, "ether", "type", 96, 16),
        I.PktStoreField(ph, "ether", "type", 96, 16, t[0]),
        I.PktLoadWords([t[0], t[1]], ph, 0, 2),
        I.PktStoreWords(ph, 0, 1, [t[0]], [0b1111]),
        I.MetaLoad(t[0], ph, "rx_port", 3),
        I.MetaStore(ph, "rx_port", 3, t[0]),
        I.PktEncap(t[0], ph, "ether", 14),
        I.PktDecap(t[0], ph, "ether", "ipv4", 14),
        I.PktCopy(t[0], ph),
        I.PktDrop(ph),
        I.PktCreate(t[0], "ether", 14, Const(50)),
        I.PktLength(t[0], ph),
        I.PktAdjust("add_tail", ph, Const(4)),
        I.PktSyncHead(ph, 14),
        I.ChanPut("tx", ph),
        I.LockAcquire("l"),
        I.LockRelease("l"),
        I.LmLoad(t[0], Const(1)),
        I.LmStore(Const(1), t[0]),
    ]
    for instr in samples:
        text = format_instr(instr)
        assert text and "<" not in text[:1], (type(instr).__name__, text)


def test_ir_printer_annotations():
    ph = Temp(0, T.PacketType("ether"))
    load = I.PktLoadField(Temp(1, T.U16), ph, "ether", "type", 96, 16)
    load.c_offset_bits = 112
    load.c_alignment = 2
    assert "off=112" in format_instr(load)
    assert "align=2" in format_instr(load)


def test_format_module_runs():
    mod = lower(MINI_FORWARDER)
    text = format_module(mod)
    assert "l3_switch.l2_clsfr" in text
    assert "pkt_load" in text


def test_lir_printer_covers_core_insns():
    v = isa.VReg("x")
    samples = [
        isa.Alu("add", v, v, isa.Imm(1)),
        isa.Immed(v, 0x1234),
        isa.LoadSym(v, isa.SymRef("g", 4)),
        isa.Mov(v, isa.Imm(0)),
        isa.Cmp(v, isa.Imm(0)),
        isa.Br("eq", "label"),
        isa.Bal("f", abi.LINK),
        isa.Rtn(abi.LINK),
        isa.Mem("sram", "read", [v], v, isa.Imm(0), 1),
        isa.RingGet(v, isa.SymRef("ring.rx")),
        isa.RingPut(isa.SymRef("ring.tx"), v),
        isa.TestAndSet(v, v),
        isa.AtomicRelease(v),
        isa.LmRead(v, None, 3),
        isa.LmWrite(None, 3, v),
        isa.CtxArb(),
        isa.Halt(),
        isa.StackRead(v, 2),
        isa.StackWrite(2, v),
        isa.ThreadStackAddr(v),
    ]
    for insn in samples:
        assert format_insn(insn)


def test_lir_format_function():
    fn = isa.LIRFunction("demo")
    bb = fn.new_block(fn.entry_label)
    bb.emit(isa.Rtn(abi.LINK))
    text = format_lir(fn)
    assert "demo" in text and "rtn" in text


# -- code-size estimation sanity -----------------------------------------------------


@pytest.mark.parametrize("level", ["BASE", "SWC"])
def test_codesize_estimate_within_factor_of_actual(level):
    trace = ipv4_trace(60, [0xC0A80101], MACS, seed=5)
    result = compile_baker(MINI_FORWARDER, options_for(level), trace)
    mod = result.mod
    for agg in result.plan.me_aggregates:
        image = result.images[agg.name]
        estimate = estimate_closure(mod, agg.ppfs, result.opts)
        # The pre-codegen estimate must be the right order of magnitude
        # (it gates merges against the 4096-word store).
        assert estimate / 4 <= image.code_size <= estimate * 4, (
            level, estimate, image.code_size)


def test_estimate_function_counts_packet_ops():
    mod = lower(PASSTHROUGH)
    fn = mod.functions["fwd.go"]
    base = estimate_function(fn, options_for("BASE"))
    opt = estimate_function(fn, options_for("SWC"))
    assert base > 0 and opt > 0


# -- options ---------------------------------------------------------------------------


def test_levels_are_cumulative_flags():
    seen = set()
    for name in LEVEL_ORDER:
        opts = options_for(name)
        flags = {f for f in ("scalar", "inline", "pac", "soar", "phr", "swc")
                 if getattr(opts, f)}
        assert seen <= flags, name  # each level keeps its predecessors' flags
        seen = flags


def test_unknown_level_raises():
    with pytest.raises(KeyError):
        options_for("TURBO")


# -- report waterfall ----------------------------------------------------------------


def _bench(app, rows, rates):
    cols = ("pkt_scratch", "pkt_sram", "pkt_dram", "app_scratch", "app_sram")
    mem = {lv: dict(zip(cols, vals), total=sum(vals)) for lv, vals in rows.items()}
    return {"kind": "bench", "figure": "figX", "app": app, "me_counts": [1, 6],
            "rates": rates, "mem_accesses": mem}


def test_report_waterfall_renders_levels_deltas_and_paper(tmp_path, capsys):
    import json

    from repro.obs.report import main as report_main

    bench = tmp_path / "BENCH_figX.json"
    bench.write_text(json.dumps(_bench(
        "toy", {"SWC": (2, 1, 2, 0, 3), "BASE": (2, 20, 10, 0, 5), "PAC": (2, 9, 4.04, 0, 5)},
        {"BASE": [0.2, 0.3], "PAC": [0.5, 1.25], "SWC": [0.7, 2.5], "O2": [0.2, 0.3]})))
    paper = tmp_path / "paper.json"
    paper.write_text(json.dumps({"table1_total": {"toy": {"BASE": 40, "SWC": 6.5}},
                                 "peak_gbps": {"toy": 2.7}}))
    assert report_main(["waterfall", str(bench), "--paper", str(paper)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "toy" in out[0] and "@6 MEs" in out[0]
    assert out[1].split() == ["level", "pktScr", "pktSRAM", "pktDRAM", "appScr",
                              "appSRAM", "total", "Gbps", "paper", "resid"]
    # Pipeline order whatever the file's; deltas against the row above
    # (never "-0.0"); the rate at the largest ME count; paper and residual.
    assert out[2].split() == ["BASE", "2.0", "20.0", "10.0", "0.0", "5.0", "37.0",
                              "0.30", "40.0", "-3.0"]
    assert out[3].split() == ["PAC", "2.0", "(+0.0)", "9.0", "(-11.0)", "4.0", "(-6.0)",
                              "0.0", "(+0.0)", "5.0", "(+0.0)", "20.0", "(-17.0)",
                              "1.25", "-", "-"]
    assert out[4].split()[-3:] == ["2.50", "6.5", "+1.5"]
    assert out[5].split() == "SWC 2.50 Gbps, paper peak ~2.7 (residual -0.20)".split()
    # Without --paper: no paper columns, no peak line.
    assert report_main(["waterfall", str(bench)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[-1] == "Gbps" and len(out) == 5


def test_report_waterfall_rejects_bad_input(tmp_path, capsys):
    import json

    from repro.obs.report import waterfall_main

    good = tmp_path / "good.json"
    good.write_text(json.dumps(_bench("toy", {"BASE": (1, 2, 3, 4, 5)}, {"BASE": [1.0, 1.0]})))
    bad = tmp_path / "bad.json"
    cases = [
        ({"kind": "bench_occupancy", "cells": {}}, "not a bench file"),
        ({"kind": "bench", "app": "toy", "mem_accesses": {"BASE": {"total": "many"}}},
         "'mem_accesses[BASE][total]'"),
        ({"kind": "bench", "app": "toy", "rates": {"BASE": 3}}, "'rates[BASE]'"),
    ]
    for body, needle in cases:
        bad.write_text(json.dumps(body))
        assert waterfall_main([str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(bad) in err and needle in err, err
    assert waterfall_main([str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()
    # The paper file gets the same treatment: unreadable, not JSON, wrong shape.
    for text, needle in [(None, "No such file"), ("{", "Expecting"),
                         ('{"peak_gbps": {"toy": "fast"}}', "'peak_gbps[toy]'")]:
        if text is not None:
            bad.write_text(text)
        path = bad if text is not None else tmp_path / "absent.json"
        assert waterfall_main([str(good), "--paper", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and needle in err, err
