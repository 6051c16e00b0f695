"""The IR interpreter's generated code: every class has an emitter or a
meaning, error paths keep their type and message (and stay lazy),
per-block charging of fuel / profile counts / source lines, whole-run
digests pinned from the interpreter it replaced, and freedom from
reference cycles."""

import gc
import hashlib
import weakref

import pytest

from repro.apps import get_app
from repro.baker import types as T
from repro.ir import instructions as I
from repro.ir.module import IRFunction
from repro.ir.values import Const
from repro.profiler import interpreter as interp_mod
from repro.profiler.interpreter import InterpError, Interpreter, run_reference
from repro.profiler.trace import ipv4_trace
from tests.ir_helpers import lower
from tests.samples import ETHER_IPV4_PROTOCOLS, MINI_FORWARDER, PASSTHROUGH

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# -- (a) completeness ---------------------------------------------------------------


def test_every_instruction_class_has_an_emitter_or_a_meaning():
    abstract = {I.PktInstr, I.PktAccess, I.PktWords}
    concrete = {c for c in _subclasses(I.Instr) if c not in abstract}
    assert concrete == set(I.INSTR_CLASSES)
    terminators = {c for c in concrete if c.is_terminator}
    emitted, meant = set(interp_mod._EMITTERS), set(interp_mod._MEANINGS)
    assert not emitted & meant
    assert emitted | meant == concrete - terminators
    fn = IRFunction("f", "func")
    entry = fn.new_block()
    for term in (I.Jump(entry), I.Branch(Const(1), entry, entry), I.Ret()):
        assert type(term) in terminators
        assert interp_mod._Source(fn).terminator(term) is not None


def test_unknown_instruction_and_terminator_are_interp_errors():
    class Mystery(I.Instr):
        pass

    mod = lower(PASSTHROUGH)
    fn = IRFunction("f", "func")
    mod.functions["f"] = fn
    bb = fn.new_block()
    bb.append(Mystery())
    bb.terminate(I.Ret())
    with pytest.raises(InterpError, match="cannot interpret"):
        Interpreter(mod).call("f", [])
    bb.instrs.clear()
    bb.terminator = Mystery()
    with pytest.raises(InterpError, match="bad terminator"):
        Interpreter(mod).call("f", [])


def test_uninterpretable_block_that_never_runs_does_not_raise():
    class Mystery(I.Instr):
        pass

    mod = lower(PASSTHROUGH)
    fn = IRFunction("f", "func", T.U32)
    mod.functions["f"] = fn
    go = fn.new_temp(T.BOOL, "go")
    fn.params.append(go)
    entry, good, bad_instr, bad_term = (fn.new_block() for _ in range(4))
    entry.terminate(I.Branch(go, good, bad_instr))
    good.terminate(I.Ret(Const(7)))
    bad_instr.append(Mystery())
    bad_instr.terminate(I.Jump(bad_term))
    bad_term.terminator = Mystery()
    interp = Interpreter(mod)
    assert interp.call("f", [1]) == 7
    with pytest.raises(InterpError, match="cannot interpret"):
        interp.call("f", [0])
    bad_instr.instrs.clear()
    with pytest.raises(InterpError, match="bad terminator"):
        Interpreter(mod).call("f", [0])


# -- (b) error paths ----------------------------------------------------------------


def test_infinite_loop_exhausts_fuel():
    src = (ETHER_IPV4_PROTOCOLS + "module m { ppf p(ether_pkt *ph) from rx "
           "{ while (true) { } channel_put(tx, ph); } }")
    interp = Interpreter(lower(src), fuel=10_000)
    with pytest.raises(InterpError, match="fuel exhausted"):
        interp.run_trace(ipv4_trace(1, [1], MACS))
    assert interp.fuel <= 0


def _function(mod, build, ret_type=T.U32):
    """Add a hand-built one-block function ``f`` to ``mod``."""
    fn = IRFunction("f", "func", ret_type)
    mod.functions["f"] = fn
    build(fn, fn.new_block())
    return fn


def test_use_of_undefined_temp():
    mod = lower(PASSTHROUGH)

    def build(fn, bb):
        ghost, out = fn.new_temp(T.U32, "ghost"), fn.new_temp(T.U32)
        bb.append(I.BinOp("add", out, ghost, Const(1)))
        bb.terminate(I.Ret(out))

    _function(mod, build)
    with pytest.raises(InterpError, match="use of undefined temp %0<ghost>"):
        Interpreter(mod).call("f", [])

    def build_branch(fn, bb):
        bb.terminate(I.Branch(fn.new_temp(T.BOOL, "cond"), bb, bb))

    _function(mod, build_branch)
    with pytest.raises(InterpError, match="use of undefined temp"):
        Interpreter(mod).call("f", [])


def test_undefined_temp_never_assigned_or_assigned_on_another_path():
    mod = lower(PASSTHROUGH)

    def never_assigned(fn, bb):
        bb.terminate(I.Ret(fn.new_temp(T.U32, "nowhere")))

    _function(mod, never_assigned)
    with pytest.raises(InterpError, match="use of undefined temp %0<nowhere>"):
        Interpreter(mod).call("f", [])

    # Assigned in a block this call does not run: read before written.
    fn = IRFunction("f", "func", T.U32)
    mod.functions["f"] = fn
    go, late = fn.new_temp(T.BOOL, "go"), fn.new_temp(T.U32, "late")
    fn.params.append(go)
    entry, setter, join = fn.new_block(), fn.new_block(), fn.new_block()
    entry.terminate(I.Branch(go, setter, join))
    setter.append(I.Assign(late, Const(5)))
    setter.terminate(I.Jump(join))
    join.terminate(I.Ret(late))
    interp = Interpreter(mod)
    assert interp.call("f", [1]) == 5
    with pytest.raises(InterpError, match="use of undefined temp %1<late>"):
        interp.call("f", [0])


GLOBAL_TABLE = ("u32 tbl[4] = { 1, 2, 3, 4 };"
                "u32 get(u32 i) { return tbl[i]; }"
                "void set(u32 i) { tbl[i] = 9; }" + PASSTHROUGH)


def test_out_of_bounds_global_access():
    interp = Interpreter(lower(GLOBAL_TABLE))
    assert interp.call("get", [3]) == 4
    with pytest.raises(InterpError, match="out-of-bounds load of tbl at 16"):
        interp.call("get", [4])
    with pytest.raises(InterpError, match="out-of-bounds store of tbl at 16"):
        interp.call("set", [4])
    # A faulting load is not a profiled load.
    assert interp.profile.gstat("tbl").loads == 1


def test_faulting_wide_global_load_is_not_profiled():
    mod = lower(GLOBAL_TABLE)

    def build(offset):
        def builder(fn, bb):
            words = [fn.new_temp(T.U32), fn.new_temp(T.U32)]
            bb.append(I.LoadGWords(words, "tbl", Const(offset), 2))
            out = fn.new_temp(T.U32)
            bb.append(I.BinOp("add", out, words[0], words[1]))
            bb.terminate(I.Ret(out))
        return builder

    _function(mod, build(8))
    interp = Interpreter(mod)
    assert interp.call("f", []) == 3 + 4
    stat = interp.profile.gstat("tbl")
    assert stat.loads == 1
    _function(mod, build(12))
    faulted = Interpreter(mod)
    with pytest.raises(InterpError, match="out-of-bounds load of tbl at 16"):
        faulted.call("f", [])
    stat = faulted.profile.gstat("tbl")
    assert stat.loads == 0


def test_out_of_bounds_local_access():
    src = ("u32 get(u32 i) { u32 buf[2]; return buf[i]; }"
           "void set(u32 i) { u32 buf[2]; buf[i] = 1; }" + PASSTHROUGH)
    interp = Interpreter(lower(src))
    for name in ("get", "set"):
        with pytest.raises(InterpError,
                           match="%s: out-of-bounds local access" % name):
            interp.call(name, [2])


def test_division_by_zero_message():
    interp = Interpreter(lower(
        "u32 f(u32 a) { return 10 / a; } int g(int a) { return 10 % a; }"
        + PASSTHROUGH))
    for name in ("f", "g"):
        with pytest.raises(InterpError, match="division by zero"):
            interp.call(name, [0])


def test_ordered_compare_of_packet_handles():
    from repro.profiler.hostpackets import HostPacket

    mod = lower(PASSTHROUGH)

    def build(op):
        def builder(fn, bb):
            a, b = fn.new_temp(T.RAW_PACKET, "a"), fn.new_temp(T.RAW_PACKET, "b")
            fn.params.extend([a, b])
            out = fn.new_temp(T.BOOL)
            bb.append(I.Cmp(op, out, a, b))
            bb.terminate(I.Ret(out))
        return builder

    p, q = HostPacket(b"x"), HostPacket(b"x")
    _function(mod, build("lt_u"), T.BOOL)
    with pytest.raises(InterpError,
                       match="ordered comparison of packet handles"):
        Interpreter(mod).call("f", [p, q])
    # Equality of handles is identity, not payload.
    _function(mod, build("eq"), T.BOOL)
    assert Interpreter(mod).call("f", [p, p]) == 1
    assert Interpreter(mod).call("f", [p, q]) == 0
    _function(mod, build("ne"), T.BOOL)
    assert Interpreter(mod).call("f", [p, q]) == 1


# -- (c) profile counts and line attribution, pinned from the ladder interpreter ----


def _mini_run():
    interp = Interpreter(lower(MINI_FORWARDER))
    interp.run_inits()
    trace = ipv4_trace(40, [0xC0A80101, 0xC0A80202], MACS, seed=3)
    return interp, interp.run_trace(trace).profile


def test_profile_counts_match_the_per_instruction_interpreter():
    """Values recorded from the isinstance-ladder interpreter this one
    replaced, which charged every instruction to its line as it ran:
    charging per block, and lines once per block run at the end of the
    trace, must not move a single count."""
    interp, profile = _mini_run()
    assert profile.hot_lines(6) == [
        ("<baker>:45", 200), ("<baker>:35", 120), ("<baker>:44", 120),
        ("<baker>:58", 120), ("<baker>:60", 120), ("<baker>:50", 80)]
    assert sum(profile.line_instrs.values()) == 1200
    assert dict(profile.ppf_instrs) == {"l3_switch.l2_clsfr": 640,
                                        "l3_switch.l3_fwdr": 880}
    assert interp.fuel == 49_998_478
    assert (profile.packets_out, profile.packets_dropped) == (40, 0)


#: sha256 (first 16 hex digits) of everything one reference run leaves
#: behind -- every ProfileData field, the final global image and the Tx
#: payloads -- for each app on its 200-packet seed-5 trace, recorded from
#: the closure-per-instruction interpreter the generated code replaced,
#: and restated once when the per-offset load counts left the profile
#: (the same rows without them hash alike on the interpreter before).
_RUN_DIGESTS = {"l3switch": "29751b3783b2b870", "firewall": "0d66fcef0f226b1f",
                "mpls": "2d7b0cf5c61db004"}


def _run_digest(name):
    app = get_app(name)
    interp = Interpreter(lower(app.source))
    interp.run_inits()
    result = interp.run_trace(app.make_trace(200, seed=5))
    p = result.profile
    rows = [
        (p.packets_in, p.packets_out, p.packets_dropped),
        sorted(p.ppf_invocations.items()), sorted(p.ppf_instrs.items()),
        sorted(p.channel_puts.items()), sorted(p.func_invocations.items()),
        sorted(p.line_instrs.items()),
        sorted((g, s.loads, s.stores) for g, s in p.global_stats.items()),
        sorted(interp.globals.image().items()),
        result.tx_payloads(),
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(_RUN_DIGESTS))
def test_reference_run_matches_pinned_digest(name):
    assert _run_digest(name) == _RUN_DIGESTS[name]


def test_init_blocks_stay_out_of_the_profile():
    interp = Interpreter(lower(MINI_FORWARDER))
    fuel = interp.fuel
    interp.run_inits()
    assert interp.fuel < fuel
    assert not interp.profile.line_instrs and not interp.profile.func_invocations
    # An empty trace charges no line the init blocks ran.
    assert not interp.run_trace(ipv4_trace(0, [0xC0A80101], MACS)).profile.line_instrs


# -- generated code is per instance and cycle-free ----------------------------------


def test_decoded_blocks_belong_to_the_instance_not_the_ir():
    mod = lower("u32 f(u32 a) { return a + 1; }" + PASSTHROUGH)
    assert Interpreter(mod).call("f", [1]) == 2
    add = next(i for i in mod.functions["f"].all_instrs()
               if isinstance(i, I.BinOp))
    add.op = "sub"  # what a pass does between two interpretations
    assert Interpreter(mod).call("f", [1]) == 0


def test_interpreter_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        mod = lower(MINI_FORWARDER)
        interp = Interpreter(mod)
        interp.run_inits()
        interp.run_trace(ipv4_trace(5, [0xC0A80101], MACS, seed=3))
        probes = [weakref.ref(interp), weakref.ref(interp.globals)]
        del interp
        assert [p() for p in probes] == [None, None]
        result = run_reference(mod, ipv4_trace(5, [0xC0A80101], MACS, seed=3))
        assert result.profile.packets_out == 5
    finally:
        gc.enable()
