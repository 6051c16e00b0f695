"""Tests for the code generator: lowering, register allocation, stack
layout, assembly."""

import random

import pytest

from repro.cg import abi, isa
from repro.cg.assemble import build_image
from repro.cg.lower import (
    CodegenError, FunctionLowerer, LowerContext, lower_function,
)
from repro.cg.melayout import (
    CODE_STORE_WORDS, SRAM_STACK_BYTES_PER_THREAD, STACK_WORDS_PER_THREAD,
)
from repro.cg.regalloc import USABLE, allocate_function, normalize, simplify_order
from repro.cg.stack import layout_frames, resolve_stack_accesses
from repro.compiler import compile_baker
from repro.options import LEVEL_ORDER, options_for
from repro.profiler.trace import ipv4_trace
from tests.ir_helpers import lower
from tests.samples import (
    ETHER_IPV4_PROTOCOLS, MINI_FORWARDER, PASSTHROUGH, array_frame,
)

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


def compile_full(level="SWC", src=MINI_FORWARDER, **kw):
    trace = ipv4_trace(30, [0xC0A80101], MACS, arp_fraction=0.1, seed=3)
    return compile_baker(src, options_for(level, **kw), trace)


def lower_one(src, name, level="O2"):
    mod = lower(src)
    ctx = LowerContext(mod, options_for(level))
    return ctx, lower_function(ctx, mod.functions[name])


# -- lowering ---------------------------------------------------------------------


def test_lowering_produces_entry_label():
    _, fn = lower_one("u32 f(u32 a) { return a + 1; }" + PASSTHROUGH, "f")
    assert fn.blocks[0].label == fn.entry_label
    assert any(isinstance(i, isa.Rtn) for i in fn.all_insns())


def test_lowering_u64_pairs():
    _, fn = lower_one("u64 f(u64 a, u64 b) { return a ^ b; }" + PASSTHROUGH, "f")
    xors = [i for i in fn.all_insns() if isinstance(i, isa.Alu) and i.op == "xor"]
    assert len(xors) == 2  # hi and lo halves


def test_lowering_u64_add_emits_carry():
    _, fn = lower_one("u64 f(u64 a, u64 b) { return a + b; }" + PASSTHROUGH, "f")
    adds = [i for i in fn.all_insns() if isinstance(i, isa.Alu) and i.op == "add"]
    assert len(adds) >= 3  # lo, hi, carry


def test_division_rejected_by_codegen():
    with pytest.raises(CodegenError) as exc:
        lower_one("u32 f(u32 a, u32 b) { return a / b; }" + PASSTHROUGH, "f")
    assert "divide" in str(exc.value)


def test_cmp_branch_fusion():
    src = "u32 f(u32 a) { if (a < 10) { return 1; } return 2; }" + PASSTHROUGH
    mod = lower(src)
    from repro.opt.pipeline import scalar_optimize_function

    scalar_optimize_function(mod.functions["f"])
    ctx = LowerContext(mod, options_for("O2"))
    fn = lower_function(ctx, mod.functions["f"])
    # Fused compare+branch: a Cmp followed by a conditional Br, and no
    # 0/1 materialization of the condition.
    insns = list(fn.all_insns())
    cmps = [i for i, x in enumerate(insns) if isinstance(x, isa.Cmp)]
    assert cmps
    assert isinstance(insns[cmps[0] + 1], isa.Br)
    assert insns[cmps[0] + 1].cond == "lt_u"


def _fused_and_kept_cmp_function():
    """``f(a, b)``: one Cmp read only by its block's Branch, one whose
    0/1 value is also returned."""
    from repro.baker import types as T
    from repro.ir import instructions as I
    from repro.ir.module import IRFunction
    from repro.ir.values import Const

    fn = IRFunction("f", "func", T.U32)
    a, b = fn.new_temp(T.U32, "a"), fn.new_temp(T.U32, "b")
    fn.params = [a, b]
    entry, second, yes, no = (fn.new_block(n) for n in
                              ("entry", "second", "yes", "no"))
    fused = fn.new_temp(T.BOOL, "fused")
    entry.append(I.Cmp("lt_u", fused, a, Const(10)))
    entry.terminate(I.Branch(fused, second, no))
    kept = fn.new_temp(T.BOOL, "kept")
    second.append(I.Cmp("eq", kept, b, Const(3)))
    second.terminate(I.Branch(kept, yes, no))
    yes.terminate(I.Ret(kept))
    no.terminate(I.Ret(Const(2)))
    return fn


def test_branch_condition_is_evaluated_once():
    """A Cmp only its Branch reads is compare-and-branch and nothing
    else; it used to be lowered as a 0/1 value first (immed 1; cmp; br;
    br; immed 0) and then compared again by the terminator."""
    ir_fn = _fused_and_kept_cmp_function()
    lowerer = FunctionLowerer(LowerContext(lower(PASSTHROUGH),
                                           options_for("O2")), ir_fn)
    fn = lowerer.lower()
    insns = list(fn.all_insns())
    first = {bb.label: insns.index(bb.insns[0]) for bb in fn.blocks if bb.insns}
    starts = [first[lowerer.ir_block_label(bb)] for bb in ir_fn.blocks]
    entry, second = insns[starts[0]:starts[1]], insns[starts[1]:starts[2]]

    assert [type(i) for i in entry] == [isa.Cmp, isa.Br, isa.Br]
    assert (entry[1].cond, entry[2].cond) == ("lt_u", "always")
    # The second Cmp's value has another use: it still materialises
    # (immed 1; cmp; br; br; immed 0), then the branch tests it.
    assert [i.value for i in second if isinstance(i, isa.Immed)] == [1, 0]
    assert sum(isinstance(i, isa.Cmp) for i in second) == 2
    assert sum(isinstance(i, isa.Cmp) for i in insns) == 3


def test_immed_sizes():
    assert isa.Immed(isa.VReg(), 0x12).size == 1
    assert isa.Immed(isa.VReg(), 0x12345).size == 2


# -- register allocation -----------------------------------------------------------


def _alloc(src, name, level="O2"):
    ctx, fn = lower_one(src, name, level)
    allocate_function(fn)
    return fn


def test_regalloc_no_virtual_registers_left():
    fn = _alloc("u32 f(u32 a, u32 b) { return (a + b) * (a ^ b); }" + PASSTHROUGH, "f")
    for insn in fn.all_insns():
        for r in list(insn.reads()) + list(insn.writes()):
            assert not isinstance(r, isa.VReg), insn


def test_regalloc_bank_constraint_satisfied():
    src = (
        "u32 f(u32 a, u32 b, u32 c) { return (a + b) ^ (b + c) ^ (a + c); }"
        + PASSTHROUGH
    )
    fn = _alloc(src, "f")
    for insn in fn.all_insns():
        if isinstance(insn, (isa.Alu, isa.Cmp)):
            a, b = insn.a, insn.b
            if isinstance(a, isa.PReg) and isinstance(b, isa.PReg) and a != b:
                assert a.bank != b.bank, insn


def test_regalloc_reserved_not_allocated():
    src = "u32 f(u32 a) { return a * 3 + 7; }" + PASSTHROUGH
    fn = _alloc(src, "f")
    for insn in fn.all_insns():
        for r in insn.writes():
            if isinstance(r, isa.PReg) and not isinstance(insn, isa.Mov):
                # fixup/link registers only appear via explicit conventions
                pass  # the set below is the real assertion
    used = {
        r for insn in fn.all_insns() for r in insn.writes() if isinstance(r, isa.PReg)
    }
    assert abi.LINK not in used or any(isinstance(i, isa.Bal) for i in fn.all_insns())


def test_regalloc_spills_under_pressure():
    # 40 simultaneously-live values cannot fit 29 usable registers.
    decls = "".join("u32 v%d = x + %d; " % (i, i) for i in range(40))
    total = " + ".join("v%d" % i for i in range(40))
    src = "u32 f(u32 x) { %s return %s; }" % (decls, total) + PASSTHROUGH
    ctx, fn = lower_one(src, "f", "BASE")
    allocate_function(fn)
    assert fn.frame_slots > 0
    spills = [i for i in fn.all_insns() if isinstance(i, (isa.StackRead, isa.StackWrite))]
    assert spills


def test_normalize_splits_midblock_branches():
    ctx, fn = lower_one(
        "u32 f(u32 a, u32 b) { return a < b ? a : b; }" + PASSTHROUGH, "f"
    )
    normalize(fn)
    for bb in fn.blocks:
        for insn in bb.insns[:-1]:
            assert not isinstance(insn, (isa.Br, isa.Rtn))


def test_call_live_values_homed():
    src = (
        "u32 g(u32 x) { return x + 1; } "
        "u32 f(u32 a, u32 b) { u32 s = a * 3; u32 t = g(b); return s + t; }"
        + PASSTHROUGH
    )
    ctx, fn = lower_one(src, "f", "BASE")  # BASE: no inlining, real call
    allocate_function(fn)
    # 's' lives across the call: it must be written to and read from the frame.
    assert any(isinstance(i, isa.StackWrite) for i in fn.all_insns())
    assert any(isinstance(i, isa.StackRead) for i in fn.all_insns())


def _reference_simplify(vregs, adj, unspillable, k):
    """The O(V^2) rule ``simplify_order`` must reproduce, step for step."""
    degree = {v: sum(isinstance(n, isa.VReg) for n in adj[v]) for v in vregs}
    remaining, stack = set(vregs), []
    while remaining:
        low = [v for v in remaining if degree[v] < k]
        pool = [v for v in remaining if v not in unspillable] or remaining
        v = (min(low, key=lambda v: (degree[v], v.id)) if low
             else max(pool, key=lambda v: (degree[v], -v.id)))
        remaining.discard(v)
        stack.append(v)
        for n in adj[v]:
            if isinstance(n, isa.VReg) and n in remaining:
                degree[n] -= 1
    return stack


def _random_graph(rng, n, p):
    vregs = [isa.VReg("n%d" % i) for i in range(n)]
    rng.shuffle(vregs)  # ids out of insertion order
    adj = {v: set() for v in vregs}
    pregs = [isa.PReg("a", i) for i in range(3)]
    for i, v in enumerate(vregs):
        for w in vregs[i + 1:] + pregs:
            if rng.random() < p:
                adj[v].add(w)
                adj.setdefault(w, set()).add(v)
    return set(vregs), adj, {v for v in vregs if rng.random() < 0.3}


@pytest.mark.parametrize("k", [2, 4, 8, len(USABLE)])
def test_simplify_order_matches_quadratic_rule(k):
    rng = random.Random(k)
    spill_branch = 0
    for case in range(40):
        n = rng.randrange(1, 70)
        vregs, adj, unspillable = _random_graph(rng, n, rng.choice((0.1, 0.3, 0.7)))
        want = _reference_simplify(vregs, adj, unspillable, k)
        assert simplify_order(vregs, adj, unspillable, k) == want, (k, case)
        # The spill branch ran iff some node left with degree >= k.
        degree = {v: sum(isinstance(n, isa.VReg) for n in adj[v]) for v in vregs}
        left = set(vregs)
        for v in want:
            left.discard(v)
            spill_branch += degree[v] >= k
            for n in adj[v]:
                if n in left:
                    degree[n] -= 1
    assert spill_branch, "no graph forced the optimistic spill branch"


# -- stack layout --------------------------------------------------------------------


def _linear_fns(sizes):
    """Chain f0 -> f1 -> ... with given frame sizes."""
    fns = {}
    prev_entry = None
    for i, size in enumerate(reversed(sizes)):
        fn = isa.LIRFunction("f%d" % (len(sizes) - 1 - i))
        bb = fn.new_block(fn.entry_label)
        if prev_entry is not None:
            bb.emit(isa.Bal(prev_entry, abi.LINK))
        bb.emit(isa.Rtn(abi.LINK))
        fn.frame_slots = size
        fns[fn.name] = fn
        prev_entry = fn.entry_label
    return dict(sorted(fns.items()))


def test_stack_frames_stack_up_in_lm():
    fns = _linear_fns([8, 8, 8])
    layout = layout_frames(fns, roots=["f0"], stack_opt=True)
    assert layout.placements["f0"].base_word == 0
    assert layout.placements["f1"].base_word == 8
    assert layout.placements["f2"].base_word == 16
    assert not layout.any_sram_frames


def test_stack_overflow_goes_to_sram():
    fns = _linear_fns([40, 40])
    layout = layout_frames(fns, roots=["f0"], stack_opt=True)
    assert layout.placements["f0"].region == "lm"
    assert layout.placements["f1"].region == "sram"


def test_stack_unoptimized_rounds_to_16():
    fns = _linear_fns([3, 3, 3])
    layout = layout_frames(fns, roots=["f0"], stack_opt=False)
    assert layout.placements["f1"].base_word == 16
    assert layout.placements["f2"].base_word == 32
    # 3 frames x 16 words exactly fills the 48-word thread budget.
    assert not layout.any_sram_frames
    fns4 = _linear_fns([3, 3, 3, 3])
    layout4 = layout_frames(fns4, roots=["f0"], stack_opt=False)
    assert layout4.any_sram_frames  # the 4th frame no longer fits


def test_stack_max_over_callers():
    # h called from both f (frame 4) and g (frame 20): h's base must
    # clear the larger caller.
    f = isa.LIRFunction("f")
    g = isa.LIRFunction("g")
    h = isa.LIRFunction("h")
    for fn, size, callee in ((f, 4, h), (g, 20, h), (h, 4, None)):
        bb = fn.new_block(fn.entry_label)
        if callee is not None:
            bb.emit(isa.Bal(callee.entry_label, abi.LINK))
        bb.emit(isa.Rtn(abi.LINK))
        fn.frame_slots = size
    fns = {"f": f, "g": g, "h": h}
    layout = layout_frames(fns, roots=["f", "g"], stack_opt=True)
    assert layout.placements["h"].base_word == 20


def test_resolve_stack_to_lm_offset_addressing():
    fn = isa.LIRFunction("f")
    bb = fn.new_block(fn.entry_label)
    r = isa.PReg("a", 1)
    bb.emit(isa.StackWrite(2, r))
    bb.emit(isa.StackRead(r, 2))
    bb.emit(isa.Rtn(abi.LINK))
    fn.frame_slots = 4
    layout = layout_frames({"f": fn}, roots=["f"])
    resolve_stack_accesses({"f": fn}, layout)
    kinds = [type(i) for i in fn.all_insns()]
    assert isa.LmWrite in kinds and isa.LmRead in kinds
    lm = [i for i in fn.all_insns() if isinstance(i, (isa.LmRead, isa.LmWrite))]
    assert all(i.thread_rel for i in lm)


# -- assembly -------------------------------------------------------------------------


def test_image_within_code_store():
    result = compile_full("SWC")
    for image in result.images.values():
        assert image.code_size <= CODE_STORE_WORDS
        assert image.insns


@pytest.mark.parametrize("level", ["BASE", "SWC"])
def test_sram_stack_frames_past_the_thread_area_are_a_codegen_error(level):
    """A 400-word frame needs 1600 bytes of SRAM stack per thread; the
    area is 1024, and frames past it would land in the next thread's."""
    with pytest.raises(CodegenError, match=r"aggregate m\.go needs 1600 "
                       r"bytes of SRAM stack frames per thread \(limit "
                       r"%d\)" % SRAM_STACK_BYTES_PER_THREAD):
        compile_full(level, src=array_frame(400))
    # 200 words overflow Local Memory but fit the SRAM area.
    result = compile_full(level, src=array_frame(200))
    (image,) = result.images.values()
    assert 0 < image.stack_layout.sram_words_used * 4 \
        <= SRAM_STACK_BYTES_PER_THREAD


def test_image_branches_resolved():
    result = compile_full("SWC")
    for image in result.images.values():
        for insn in image.insns:
            if isinstance(insn, (isa.Br, isa.Bal)):
                assert insn.resolved is not None
                assert 0 <= insn.resolved < len(image.insns)


def test_image_dispatch_first():
    result = compile_full("SWC")
    for image in result.images.values():
        assert image.functions[0] == "__dispatch"
        assert image.entry == image.label_index["__dispatch__entry"]


def test_base_images_contain_helpers():
    result = compile_full("BASE")
    image = next(iter(result.images.values()))
    assert any(name.startswith("__pkt_") for name in image.functions)


def test_o2_images_have_no_helpers():
    result = compile_full("O2")
    image = next(iter(result.images.values()))
    assert not any(name.startswith("__pkt_") for name in image.functions)


def test_code_size_decreases_with_soar():
    pac = compile_full("PAC")
    soar = compile_full("SOAR")
    pac_size = sum(i.code_size for i in pac.images.values())
    soar_size = sum(i.code_size for i in soar.images.values())
    assert soar_size < pac_size


# -- determinism -------------------------------------------------------------------


@pytest.mark.parametrize("app_name", ["l3switch", "firewall", "mpls"])
@pytest.mark.parametrize("level", ["BASE", "O1"])
def test_two_compiles_in_one_process_emit_identical_listings(app_name, level):
    """Registers and stack slots included: call-live reloads used to be
    minted in set (object address) order, which let two l3switch compiles
    swap a0/a1 and two Local Memory slots."""
    from repro.apps import get_app

    app = get_app(app_name)
    trace = app.make_trace(120, seed=5)

    def listing():
        result = compile_baker(app.source, options_for(level), trace)
        return [(name, [repr(insn) for insn in image.insns])
                for name, image in sorted(result.images.items())]

    assert listing() == listing()


# -- the sweep's 21 images ------------------------------------------------------------


@pytest.mark.parametrize("app_name", ["l3switch", "firewall", "mpls"])
@pytest.mark.parametrize("level", LEVEL_ORDER)
def test_no_jump_to_the_next_instruction_and_still_the_reference(app_name,
                                                               level):
    """Block layout: a block ending in ``br.always L`` right in front of
    ``L`` falls through. Both cores must execute such images alike
    (test_fastpath compares them at SWC), and every level must still
    forward what the IR interpreter forwards."""
    from repro.apps import get_app
    from repro.rts.system import verify_against_reference

    app = get_app(app_name)
    trace = app.make_trace(120, seed=5)
    result = compile_baker(app.source, options_for(level), trace)
    for image in result.images.values():
        jumps = [pc for pc, insn in enumerate(image.insns)
                 if isinstance(insn, isa.Br) and insn.cond == "always"]
        assert jumps
        assert not [pc for pc in jumps if image.insns[pc].resolved == pc + 1]
        # Some branch target is now also reached by falling into it.
        targets = {insn.resolved for insn in image.insns
                   if isinstance(insn, (isa.Br, isa.Bal))}
        assert any(not isinstance(image.insns[pc - 1], (isa.Br, isa.Rtn))
                   for pc in targets if pc > 0)
    assert verify_against_reference(result, trace, packets=40)


#: sha256 (first 16 hex digits) over every image of the 21 (app, level)
#: compiles the sweep makes, in ``LEVEL_ORDER``: entry, size and every
#: instruction with its resolved target. A change to what the code
#: generator emits restates it, and says so.
_SWEEP_LISTING_DIGEST = "33f1d84bcd5d4cd1"
#: sha256 (first 16 hex digits) over the same 21 compiles' ledgers: every
#: ``Decision.to_record()`` of each, in order. A change to what a pass
#: decides (or how it says so) restates it, and says so.
_SWEEP_LEDGER_DIGEST = "8ac9aac6280e4be7"


def test_sweep_listings_match_pinned_digest():
    """All 21 compiles run in one process, so every level after an app's
    first reuses that app's parsed program and reference run: neither
    the listings nor the ledgers may notice."""
    import hashlib
    import json

    from repro.apps import get_app

    h = hashlib.sha256()
    ledger = hashlib.sha256()
    for app_name in ("l3switch", "firewall", "mpls"):
        app = get_app(app_name)
        trace = app.make_trace(200, seed=5)
        for level in LEVEL_ORDER:
            result = compile_baker(app.source, options_for(level), trace)
            for name, image in sorted(result.images.items()):
                h.update(("%s %d %d\n" % (name, image.entry,
                                          image.code_size)).encode())
                for insn in image.insns:
                    h.update(("%r|%r\n" % (
                        insn, getattr(insn, "resolved", None))).encode())
            for decision in result.decisions:
                ledger.update((json.dumps(decision.to_record(), sort_keys=True,
                                          default=repr) + "\n").encode())
    assert h.hexdigest()[:16] == _SWEEP_LISTING_DIGEST
    assert ledger.hexdigest()[:16] == _SWEEP_LEDGER_DIGEST


@pytest.mark.parametrize("op", ["lshr", "ashr"])
def test_narrowing_shift_of_a_u64_is_a_codegen_error(op):
    """A u64 ``>>`` straight into a u32 (no pass emits one: conversions
    narrow with ``and``; the test rewrites ``and(lshr(x, 8), mask)`` into
    it) would take the low word alone, so lowering refuses it by name."""
    from repro.cg.assemble import generate_images
    from repro.ir import instructions as I

    src = ETHER_IPV4_PROTOCOLS + """
module m { ppf go(ether_pkt *ph) from rx {
  ipv4_pkt *iph = packet_decap(ph);
  iph->dst = ph->src >> 8;
  channel_put(tx, packet_encap(iph, ether));
} }"""
    trace = ipv4_trace(30, [0xC0A80101, 0xC0A80202], MACS, seed=21)
    result = compile_baker(src, options_for("SWC"), trace, codegen=False)
    narrowed = 0
    for bb in result.mod.functions["m.go"].blocks:
        for n, instr in enumerate(bb.instrs[1:], 1):
            shift = bb.instrs[n - 1]
            if isinstance(instr, I.BinOp) and instr.op == "and" \
                    and isinstance(shift, I.BinOp) and shift.op == "lshr" \
                    and instr.a is shift.dst:
                bb.instrs[n] = I.BinOp(op, instr.dst, shift.a, shift.b)
                narrowed += 1
    assert narrowed == 1
    with pytest.raises(CodegenError, match=r"a 32-bit %s of a 64-bit value "
                       r"reached code generation in m\.go" % op):
        generate_images(result)
