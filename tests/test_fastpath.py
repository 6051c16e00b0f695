"""Fast-path dispatch equivalence and the event-loop fixes that rode
along with it.

Covers:

* reference-vs-predecoded bit-identical equivalence on all three example
  apps (Tx signatures, cycle counts, per-ME executed_instrs/times,
  forwarding rate, access profile) and on masked stores;
* the removed engine values being refused by name, and ``--engine``
  being an unknown argument;
* ``IXP2400.run`` advancing ``now`` to the granted deadline when it
  exits early (repeated ``run_for`` drain loops must not re-grant the
  same window);
* the sampler catching up past *every* elapsed sample mark after a
  sparse event period;
* ``run_slice`` raising ``SimError`` (with thread states) instead of
  busy-spinning when no thread is ready and the next wake is not in the
  future;
* the error path leaving ``time``/``executed_instrs``/``pc`` exactly as
  they were before the failing instruction, in both cores, and
  unbindable instructions (missing symbol or ring, no counter slot)
  punting with a diagnostic;
* the fast paths of the core: a run cut by ``RUN_CAP`` continuing fused,
  bounds-checked one-call wide loads and stores, the wake-list arbiter
  slice by slice against the reference, and the slot counters behind
  ``Counters``.

"reference" is the handler-table interpreter in tests/reference_me.py;
"fast" is the product's one core.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.cg import isa
from repro.cg.assemble import MEImage
from repro.compiler import compile_baker
from repro.ixp.chip import IXP2400
from repro.ixp.counters import SLOT, Counters
from repro.ixp.memory import SIZES, MemorySystem
from repro.ixp.microengine import Microengine, SimError
from repro.options import options_for
from repro.rts.system import run_on_simulator
from tests import reference_me

APPS = ("l3switch", "firewall", "mpls")
MODES = ("reference", "fast")


def _mini_image(insns):
    image = MEImage(name="test")
    image.insns = insns
    image.label_index = {"main": 0}
    image.entry = 0
    return image


# -- equivalence ---------------------------------------------------------------------


_compiled = {}


def _compile(app_name):
    if app_name not in _compiled:
        app = get_app(app_name)
        trace = app.make_trace(200, seed=5)
        _compiled[app_name] = (
            compile_baker(app.source, options_for("SWC"), trace), trace)
    return _compiled[app_name]


def _signature(run):
    return (run.tx_signature(), run.sim_cycles,
            tuple(run.me_executed_instrs), tuple(run.me_times),
            tuple(run.me_idle_times),
            run.forwarding_gbps, run.me_utilization,
            run.rx_dropped_freelist, run.rx_dropped_ring_full,
            run.access_profile.row())


@pytest.mark.parametrize("app_name", APPS)
def test_fast_dispatch_bit_identical(app_name):
    result, trace = _compile(app_name)
    runs = {}
    for mode in MODES:
        with reference_me.core(mode):
            runs[mode] = run_on_simulator(result, trace, n_mes=4,
                                          warmup_packets=50,
                                          measure_packets=200)
    assert runs["fast"].tx_signature(), "run forwarded no packets"
    # idle_time feeds the stall profiler's exact idle residual, so the
    # two cores must agree on it to the bit, not just on busy time.
    assert runs["reference"].me_idle_times == runs["fast"].me_idle_times
    assert _signature(runs["reference"]) == _signature(runs["fast"])


def test_predecode_plan_reused_across_chips():
    # The decode plans capture no chip-owned objects, so a second run
    # (new chip, same symbol placement) must reuse the program instead
    # of rebuilding it.
    result, trace = _compile("l3switch")
    for _ in range(2):
        run_on_simulator(result, trace, n_mes=2, warmup_packets=10,
                         measure_packets=30)
    for image in result.images.values():
        assert len(image._decode_plans) == 1


def test_predecode_revalidates_rebound_symbol_same_chip():
    # Reusing a decoded program must revalidate symbol bindings: a
    # symbol rebound on the *same* chip object between runs used to be
    # served the stale program decoded against the old value.
    reg = isa.PReg("a", 0)
    image = _mini_image([isa.LoadSym(reg, isa.SymRef("g")), isa.Halt()])
    chip = IXP2400()
    chip.symbols["g"] = 100
    me1 = Microengine(0, image, chip, n_threads=1)
    me1.run_slice(100)
    assert me1.threads[0].get(reg) == 100

    chip.symbols["g"] = 2000
    me2 = Microengine(0, image, chip, n_threads=1)
    me2.run_slice(100)
    assert me2.threads[0].get(reg) == 2000


def test_predecode_revalidates_late_bound_symbol():
    # A symbol that was *missing* at decode time (recorded miss) and is
    # bound later on the same chip must trigger a re-decode, not reuse
    # of the punted plan.
    reg = isa.PReg("a", 0)
    image = _mini_image([isa.LoadSym(reg, isa.SymRef("g")), isa.Halt()])
    chip = IXP2400()
    prog1 = image.predecoded(chip)
    chip.symbols["g"] = 4242
    prog2 = image.predecoded(chip)
    assert prog2 is not prog1
    me = Microengine(0, image, chip, n_threads=1)
    me.run_slice(100)
    assert me.threads[0].get(reg) == 4242


def test_predecode_key_covers_only_the_names_the_image_uses():
    # The cache key is what a chip binds the image's own names to: a
    # binding the image never names shares the program, a rebinding of
    # one it does name gets its own.
    reg = isa.PReg("a", 0)
    image = _mini_image([isa.LoadSym(reg, isa.SymRef("g")), isa.Halt()])
    chips = [IXP2400() for _ in range(3)]
    for chip, g, other in zip(chips, (100, 100, 200), (1, 2, 1)):
        chip.symbols.update(g=g, other=other)
    first = image.predecoded(chips[0])
    assert image.predecoded(chips[1]) is first
    assert image.predecoded(chips[2]) is not first
    assert len(image._decode_plans) == 2
    me = Microengine(0, image, chips[2], n_threads=1)
    me.run_slice(100)
    assert me.threads[0].get(reg) == 200


def test_fast_dispatch_rejects_virtual_register():
    # Punted instructions fail lazily: decoding the image succeeds, the
    # diagnostic surfaces when a thread reaches the instruction.
    insns = [isa.Immed(isa.VReg(), 1), isa.Halt()]
    me = Microengine(0, _mini_image(insns), IXP2400(), n_threads=1)
    with pytest.raises(SimError, match="not a physical register"):
        me.run_slice(100)


# The ME has no divide instruction: a division reaches an ME only as the
# constant ir.eval folded it to, so that is the word both cores must agree on.
_INT_MIN_OVER_MINUS_ONE = """
module m { ppf go(ether_pkt *ph) from rx {
  int a = 0 - 2147483647 - 1; int b = 0 - 1; int q = a / b;
  u32 w = (u32) q; ph->type = w >> 16; ph->src = w & 0xffff;
  channel_put(tx, ph); } }"""


def test_signed_divide_int_min_by_minus_one_same_word_on_both_cores():
    from repro.cg.lower import CodegenError
    from repro.ir.eval import eval_binop
    from repro.ixp.rxtx import RxEngine, TxEngine
    from repro.profiler.trace import ipv4_trace
    from repro.rts.loader import load_system
    from tests.samples import ETHER_IPV4_PROTOCOLS

    src = ETHER_IPV4_PROTOCOLS + _INT_MIN_OVER_MINUS_ONE
    trace = ipv4_trace(4, [0xC0A80101], [0x0A0000000001 + n for n in range(3)], seed=2)
    with pytest.raises(CodegenError, match="no divide instruction"):
        compile_baker(src, options_for("BASE"), trace)  # nothing folds at BASE
    result = compile_baker(src, options_for("O1"), trace)
    word = eval_binop("div_s", 0x80000000, 0xFFFFFFFF, 32)
    assert word == 0x80000000  # wraps, does not trap
    for mode in MODES:
        chip = IXP2400(n_programmable_mes=1)
        with reference_me.core(mode):
            load_system(result, chip, n_mes=1)
        assert type(chip.mes[0]) is reference_me.CORES[mode]
        tx = TxEngine(chip)
        chip.attach_traffic(RxEngine(chip, trace, offered_gbps=1.0,
                                     max_packets=4, repeat=False), tx)
        chip.run_for(5e6, stop=lambda: tx.packets_out() >= 4)
        assert len(tx.records) == 4, mode
        for record in tx.records:
            src_mac, eth_type = record.payload[6:12], record.payload[12:14]
            got = int.from_bytes(eth_type, "big") << 16 | int.from_bytes(src_mac, "big")
            assert got == word, mode


def _masked_store_run(mode):
    a0, a1, a2, a3 = (isa.PReg("a", i) for i in range(4))
    insns = [
        isa.Immed(a0, 0x11223344),
        isa.Immed(a1, 0xAABBCCDD),
        isa.Immed(a2, 0b01101001),
        isa.Immed(a3, 4096),
        # Static mask: lanes 1, 2 of word 0 and lanes 0, 3 of word 1.
        isa.Mem("sram", "write", [a0, a1], isa.Imm(256), isa.Imm(8), 2,
                byte_mask=0b10010110),
        # Dynamic mask in a register; one DRAM quadword is two words.
        isa.Mem("dram", "write", [a1, a0], a3, isa.Imm(16), 1, byte_mask=a2),
        isa.Halt(),
    ]
    chip = IXP2400()
    for space in ("sram", "dram"):
        store = chip.memory.stores[space]
        store[:] = b"\xee" * len(store)
    me = reference_me.CORES[mode](0, _mini_image(insns), chip, n_threads=1)
    chip.add_me(me)
    chip.run(10_000.0)
    assert me.threads[0].halted
    return chip, me


def test_masked_stores_match_reference():
    (ref_chip, ref), (chip, me) = (_masked_store_run(mode) for mode in MODES)
    contents = {space: bytes(store)
                for space, store in chip.memory.stores.items()}
    sram, dram = contents["sram"], contents["dram"]
    assert sram[264:272] == bytes.fromhex("ee2233ee aaeeeedd")
    assert dram[4112:4120] == bytes.fromhex("aaeeeedd ee2233ee")
    assert sram.count(0xEE) == len(sram) - 4
    assert dram.count(0xEE) == len(dram) - 4
    assert contents == {space: bytes(store)
                        for space, store in ref_chip.memory.stores.items()}
    assert (me.time, me.executed_instrs, me.idle_time,
            me.threads[0].wake) == (ref.time, ref.executed_instrs,
                                    ref.idle_time, ref.threads[0].wake)
    assert (chip.memory.counters.snapshot()
            == ref_chip.memory.counters.snapshot())
    for name, ch in chip.memory.channels.items():
        other = ref_chip.memory.channels[name]
        assert (ch.next_free, ch.busy_time) == (other.next_free,
                                                other.busy_time)


# -- the removed engine values --------------------------------------------------------


def test_legacy_engine_value_is_refused_by_name(capsys):
    from repro.rts.loader import load_system
    from repro.sweep.__main__ import main as sweep_main

    result, trace = _compile("l3switch")
    for gone in ("legacy", "fastforward"):
        expected = ("unknown dispatch mode '%s'.*only legal value is 'fast'"
                    % gone)
        with pytest.raises(ValueError, match=expected):
            run_on_simulator(result, trace, dispatch=gone)
        with pytest.raises(ValueError, match=expected):
            load_system(result, IXP2400(n_programmable_mes=1),
                        dispatch=gone)
    with pytest.raises(SystemExit) as exit_info:
        sweep_main(["--engine", "fast"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


# -- IXP2400.run deadline accounting -------------------------------------------------


def test_run_advances_now_to_deadline_with_future_event():
    chip = IXP2400()
    fired = []
    chip.schedule(1000.0, lambda: fired.append(chip.now) and None)
    chip.run(400.0)
    assert chip.now == 400.0 and not fired
    # The window was granted: a second drain must not re-grant it.
    chip.run_for(400.0)
    assert chip.now == 800.0 and not fired
    chip.run_for(400.0)
    assert chip.now == 1200.0 and fired == [1000.0]


def test_run_advances_now_when_heap_drains():
    chip = IXP2400()
    chip.run(250.0)
    assert chip.now == 250.0
    chip.run_for(250.0)
    assert chip.now == 500.0


# -- sampler catch-up ----------------------------------------------------------------


class _GridSampler:
    def __init__(self, interval):
        self.interval = interval
        self.next_t = interval
        self.samples = []

    def tick(self, t):
        self.samples.append(t)
        self.next_t += self.interval


def test_sampler_catches_up_past_all_elapsed_marks():
    chip = IXP2400()
    chip.window = _GridSampler(100.0)  # the one observer run() pulls
    # One lonely event far in the future: every grid mark in between
    # must still be sampled when it finally dispatches.
    chip.schedule(1000.0, lambda: None)
    chip.run(2000.0)
    assert chip.window.samples == [100.0 * i for i in range(1, 11)]


# -- the one stall-attribution site --------------------------------------------------


def _profiled_thread(mode, insns):
    from repro.obs.profile import StallProfiler

    chip = IXP2400()
    # Attached before the ME exists: its rows are made on first use.
    prof = StallProfiler().attach(chip)
    me = reference_me.CORES[mode](0, _mini_image(insns), chip, n_threads=1)
    return me, prof


def _attribution(prof):
    """Thread 0 of ME 0's row as (exec cycles, waits, blocks), the two
    dicts keyed by category and holding only categories that blocked."""
    from repro.ixp.microengine import BLOCKS, WAIT_CATEGORIES

    acc = prof.rows[0][0]
    slots = [(cat, c) for c, cat in enumerate(WAIT_CATEGORIES)
             if acc[BLOCKS + c]]
    return (acc[0], {cat: acc[1 + c] for cat, c in slots},
            {cat: acc[BLOCKS + c] for cat, c in slots})


@pytest.mark.parametrize("mode", MODES)
def test_halt_reports_a_burst_and_no_block(mode):
    me, prof = _profiled_thread(
        mode, [isa.Immed(isa.PReg("a", 0), 7), isa.Halt()])
    assert me.run_slice(100.0) is None
    exec_cycles, waits, blocks = _attribution(prof)
    assert exec_cycles == me.time > 0
    assert (blocks, waits, me.threads[0].cause) == ({}, {}, None)


@pytest.mark.parametrize("mode", MODES)
def test_slice_deadline_reports_no_block_and_keeps_the_next_cause(mode):
    """ctx_arb, a long straight-line stretch cut by the slice deadline,
    then an SRAM read: the deadline stop reports a burst only (the
    thread's cause is still the stale ``ctx_arb``), and the read that
    follows the resume is attributed to ``mem_sram``."""
    from repro.ixp.microengine import CAUSE

    a0 = isa.PReg("a", 0)
    insns = ([isa.CtxArb()] + [isa.Immed(a0, i) for i in range(30)]
             + [isa.Mem("sram", "read", [a0], isa.Imm(256), isa.Imm(0), 1),
                isa.Halt()])
    me, prof = _profiled_thread(mode, insns)
    seen = []
    for _ in range(20):
        nxt = me.run_slice(12.0)
        seen.append((_attribution(prof)[2], me.resume_thread is not None))
        if nxt is None:
            break
        me.time = max(me.time, nxt)
    t = me.threads[0]
    exec_cycles, waits, blocks = _attribution(prof)
    assert t.halted
    # Some slice ended on the deadline with only the yield on record...
    assert ({"ctx_arb": 1}, True) in seen
    # ...and the run ends with exactly one block per blocking instruction.
    assert blocks == {"ctx_arb": 1, "mem_sram": 1}
    assert waits["ctx_arb"] == 1.0
    assert t.cause == CAUSE["mem_sram"]
    assert exec_cycles + me.idle_time == me.time


# -- stuck-scheduler detection -------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_run_slice_raises_instead_of_spinning(mode):
    me = reference_me.CORES[mode](0, _mini_image([isa.Halt()]), IXP2400(),
                                  n_threads=2)
    for t in me.threads:
        t.wake = math.nan  # never ready, never "in the future"
    with pytest.raises(SimError, match="scheduler stuck") as err:
        me.run_slice(400.0)
    # The message carries every thread's state for debugging.
    assert "t0 pc=" in str(err.value) and "t1 pc=" in str(err.value)


# -- error-path counter integrity ----------------------------------------------------

_A0, _A1 = isa.PReg("a", 0), isa.PReg("a", 1)

#: 1-word immed way past LM_WORDS, then a dynamic out-of-range index.
_LM_FAULT = ([isa.Immed(_A0, 0xFFFF), isa.LmRead(_A1, _A0, 0), isa.Halt()],
             "Local Memory index")


def _run_until_error(mode, insns, match):
    me = reference_me.CORES[mode](0, _mini_image(insns), IXP2400(),
                                  n_threads=1)
    with pytest.raises(SimError, match=match):
        me.run_slice(10_000.0)
    return me


@pytest.mark.parametrize("mode", MODES)
def test_error_path_preserves_counters(mode):
    me = _run_until_error(mode, *_LM_FAULT)
    t = me.threads[0]
    # Only the Immed was dispatched: its cycle is charged, the failing
    # LmRead's is not, and pc still points at the failing instruction.
    assert me.time == 1.0
    assert me.executed_instrs == 1
    assert t.pc == 1
    assert not t.halted
    if mode != "fast":
        return
    # Instructions the predecoder cannot bind fail the same clean way,
    # with a diagnostic naming ME, pc, instruction and reason. (The
    # reference keeps its historical AttributeError / KeyError here: it
    # is the oracle for semantics, not for diagnostics.)
    nowhere = isa.SymRef("ring.nowhere")
    for punted, reason in (
            (isa.Immed(isa.VReg(), 1), "not a physical register"),
            (isa.LoadSym(_A1, isa.SymRef("nowhere")),
             "unresolved symbol 'nowhere'"),
            (isa.RingGet(_A1, nowhere), "no ring 'ring.nowhere'"),
            (isa.RingPut(nowhere, _A0), "no ring 'ring.nowhere'"),
            (isa.Mem("sram", "read", [_A1], _A0, isa.Imm(0), 1,
                     category="bogus"),
             r"no access counter for \('sram', 'bogus'\)")):
        me = _run_until_error(mode, [isa.Immed(_A0, 7), punted, isa.Halt()],
                              r"ME0 pc=1: cannot execute .*: .*" + reason)
        t = me.threads[0]
        assert (me.time, me.executed_instrs, t.pc) == (1.0, 1, 1)
        assert t.get(_A0) == 7 and not t.halted


def test_error_path_identical_across_modes():
    ref, fast = (_run_until_error(mode, *_LM_FAULT) for mode in MODES)
    assert (ref.time, ref.executed_instrs, ref.threads[0].pc) == \
           (fast.time, fast.executed_instrs, fast.threads[0].pc)


def test_ring_named_in_plan_bindings():
    # A ring the chip lacked at decode is a recorded miss: creating it
    # later must re-decode instead of reusing the punted program.
    image = _mini_image([isa.RingGet(_A1, isa.SymRef("ring.q")),
                         isa.Halt()])
    chip = IXP2400()
    prog1 = image.predecoded(chip)
    chip.rings.create("ring.q").put(44)
    assert image.predecoded(chip) is not prog1
    me = Microengine(0, image, chip, n_threads=1)
    me.run_slice(100)
    assert me.threads[0].get(_A1) == 44


def _set_immed(insns):
    insns[0].value = 5


def _retarget_branch(insns):
    insns[1].resolved = 4


@pytest.mark.parametrize("edit,want", [(_set_immed, 5), (_retarget_branch, 3)])
def test_edit_after_decode_is_never_served_stale(edit, want):
    # a0 = 1, jump over "a0 = 2" to a halt; "a0 = 3" sits past it.
    image = _mini_image([isa.Immed(_A0, 1), isa.Br("always", "main"),
                         isa.Immed(_A0, 2), isa.Halt(),
                         isa.Immed(_A0, 3), isa.Halt()])
    image.insns[1].resolved = 3
    chip = IXP2400()
    first = Microengine(0, image, chip, n_threads=1)
    first.run_slice(100)
    assert first.threads[0].get(_A0) == 1
    edit(image.insns)
    for where in (chip, IXP2400()):  # a new ME on the same chip, a new chip
        me = Microengine(0, image, where, n_threads=1)
        me.run_slice(100)
        assert me.threads[0].get(_A0) == want


# -- the fast paths: full-length runs, wide accesses, the arbiter --------------------


def test_capped_run_continues_at_a_leader():
    # 80 Immeds and a Halt: each run stops at RUN_CAP (24) and the next
    # one starts fused where it stopped, so four dispatches run it all.
    insns = [isa.Immed(_A0, i) for i in range(80)] + [isa.Halt()]
    me = Microengine(0, _mini_image(insns), IXP2400(), n_threads=1)
    prog = me.image.predecoded(me.chip)
    starts = []

    def counted(step):
        def wrapper(me, t, deadline):
            starts.append(t.pc)
            return step(me, t, deadline)
        return wrapper

    me._prog = [counted(step) for step in prog]
    assert me.run_slice(10_000.0) is None
    assert starts == [0, 24, 48, 72]
    assert (me.executed_instrs, me.time) == (81, 81.0)
    assert me.threads[0].get(_A0) == 79


_OUT_OF_RANGE = dict(
    [("%s%d@%s" % (rw, units, where),
      isa.Mem("sram", rw, [isa.PReg("a", i) for i in range(units)],
              isa.Imm(addr), isa.Imm(0), units))
     for units in (2, 8) for rw in ("read", "write")
     for where, addr in (("-4", -4), ("end-4", SIZES["sram"] - 4))]
    + [("masked_write", isa.Mem("sram", "write", [_A0, _A1], isa.Imm(-4),
                                isa.Imm(0), 2, byte_mask=0x0F)),
       ("test_and_set", isa.TestAndSet(_A1, isa.Imm(-4))),
       ("release", isa.AtomicRelease(isa.Imm(-4)))])


@pytest.mark.parametrize("name", sorted(_OUT_OF_RANGE))
def test_out_of_range_access_matches_reference(name):
    """One ``struct`` call moves a wide access, and ``unpack_from`` would
    wrap a negative offset: the explicit bounds check must stay. After
    a fused Immed, both cores leave the failing access charged, and pc
    and the executed count as they were before it."""
    seen = []
    for mode in MODES:
        insns = [isa.Immed(isa.PReg("b", 0), 7), _OUT_OF_RANGE[name],
                 isa.Halt()]
        me = reference_me.CORES[mode](0, _mini_image(insns), IXP2400(),
                                      n_threads=1)
        with pytest.raises(IndexError, match="out of range"):
            me.run_slice(10_000.0)
        seen.append((me.time, me.executed_instrs, me.threads[0].pc))
    assert seen[0] == seen[1]
    assert seen[0][1:] == (1, 1)


_TINY_OPS = st.one_of(st.sampled_from(("ctx_arb", "sram", "ring", "halt",
                                       "loop")),
                      st.integers(min_value=1, max_value=30))


def _tiny_image(ops):
    """Straight-line stretches of Immeds (the int ops), yields, SRAM
    reads, ring gets, halts and a jump back to the entry."""
    insns = []
    for op in ops:
        if op == "ctx_arb":
            insns.append(isa.CtxArb())
        elif op == "sram":
            insns.append(isa.Mem("sram", "read", [_A1], _A0, isa.Imm(64), 1))
        elif op == "ring":
            insns.append(isa.RingGet(_A1, isa.SymRef("ring.q")))
        elif op == "halt":
            insns.append(isa.Halt())
        elif op == "loop":
            insns.append(isa.Br("always", "main"))
            insns[-1].resolved = 0
        else:
            insns += [isa.Immed(_A0, 4 * i) for i in range(op)]
    return _mini_image(insns + [isa.Halt()])


def _slices(mode, ops, n_threads, budgets):
    chip = IXP2400()
    ring = chip.rings.create("ring.q", capacity=4)
    for handle in (16, 32, 48):
        ring.put(handle)
    me = reference_me.CORES[mode](0, _tiny_image(ops), chip,
                                  n_threads=n_threads)
    seen = []
    for budget in budgets:
        nxt = me.run_slice(float(budget))
        seen.append((nxt, me.time, me.idle_time, me.executed_instrs,
                     me.rr_next,
                     [(t.pc, t.wake, t.halted) for t in me.threads]))
        if nxt is None:
            break
        me.time = max(me.time, nxt)
    return seen


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_TINY_OPS, min_size=1, max_size=8),
       n_threads=st.integers(min_value=1, max_value=8),
       budgets=st.lists(st.integers(min_value=1, max_value=400),
                        min_size=1, max_size=25))
def test_arbiter_and_runs_match_reference(ops, n_threads, budgets):
    """The wake-list arbiter and the fused runs against the handler-table
    core, slice by slice, over random tiny images and slice budgets."""
    assert (_slices("fast", ops, n_threads, budgets)
            == _slices("reference", ops, n_threads, budgets))


# -- slot counters --------------------------------------------------------------------


def test_counters_are_views_over_slots():
    c = Counters()
    assert c.snapshot() == {"accesses": Counter()}
    assert not c.accesses
    slot = SLOT[("sram", "app")]
    c.n_accesses[slot] += 1
    assert c.accesses == Counter({("sram", "app"): 1})


def test_counters_delta_is_counter_arithmetic():
    mem = MemorySystem()
    accesses = Counter()
    before = old_before = None
    for i, (space, cat, n) in enumerate(
            [("dram", "pkt", 2), ("sram", "app", 1), ("scratch", "pkt", 1),
             ("dram", "pkt", 16), ("sram", "pkt", 8), ("sram", "app", 1)]):
        if i == 2:
            before = mem.counters.snapshot()
            old_before = {"accesses": Counter(accesses)}
        mem.timed_access(0.0, space, n, cat)
        accesses[(space, cat)] += 1
    after = mem.counters.snapshot()
    assert after == {"accesses": accesses}
    assert Counters.delta(after, before) == Counters.delta(
        {"accesses": accesses}, old_before)


def test_sram_stack_frame_matches_the_reference_core():
    """A call chain deeper than a thread's Local Memory stack puts its
    last frames on the SRAM stack, whose per-thread base the core
    computes (``thread_stack_addr``); both cores must run it alike."""
    from repro.profiler.trace import ipv4_trace
    from tests.samples import ETHER_IPV4_PROTOCOLS

    src = ETHER_IPV4_PROTOCOLS + """
u32 f3(u32 x) { return x * 3 + 1; }
u32 f2(u32 x) { return f3(x + 2) ^ x; }
u32 f1(u32 x) { return f2(x + 1) + x; }
u32 f0(u32 x) { return f1(x ^ 5) - x; }
module m { ppf go(ether_pkt *ph) from rx {
  ph->type = f0(ph->type) & 0xffff;
  channel_put(tx, ph);
} }"""
    trace = ipv4_trace(30, [0xC0A80101], [0x0A0000000001, 0x0A0000000002,
                                          0x0A0000000003], seed=21)
    result = compile_baker(src, options_for("BASE", stack_opt=False), trace)
    assert any(isinstance(insn, isa.ThreadStackAddr)
               for image in result.images.values() for insn in image.insns)
    runs = {}
    for mode in MODES:
        with reference_me.core(mode):
            runs[mode] = run_on_simulator(result, trace, n_mes=2,
                                          warmup_packets=5,
                                          measure_packets=20)
    assert runs["fast"].tx_signature(), "run forwarded no packets"
    assert _signature(runs["reference"]) == _signature(runs["fast"])
