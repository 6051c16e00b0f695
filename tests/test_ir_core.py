"""Unit tests for IR containers, CFG utilities, dominators."""

import pytest

from repro.baker import types as T
from repro.ir import instructions as I
from repro.ir.cfg import (
    compute_cfg,
    remove_unreachable,
    reverse_postorder,
    simplify_cfg,
)
from repro.ir.callgraph import CallGraph
from repro.ir.dominators import dominator_tree
from repro.ir.module import IRFunction
from repro.ir.values import Const, Temp
from repro.ir.verifier import IRVerifyError, verify_function, verify_module
from tests.ir_helpers import build_diamond, build_loop, lower
from tests.samples import MINI_FORWARDER


# -- instruction protocol -------------------------------------------------------


def test_uses_and_defs():
    t0 = Temp(0, T.U32)
    t1 = Temp(1, T.U32)
    t2 = Temp(2, T.U32)
    instr = I.BinOp("add", t2, t0, t1)
    assert instr.defs() == [t2]
    assert instr.uses() == [t0, t1]


def test_replace_uses_scalar_and_list():
    t0, t1, t2 = Temp(0, T.U32), Temp(1, T.U32), Temp(2, T.U32)
    call = I.Call(t2, "f", [t0, t1, Const(3)])
    call.replace_uses({t0: Const(7)})
    assert call.args[0] == Const(7)
    assert call.args[1] is t1


def test_const_equality_and_hash():
    assert Const(1) == Const(1)
    assert Const(1) != Const(2)
    assert len({Const(1), Const(1), Const(2)}) == 2


def test_wide_load_defs_are_lists():
    t0, t1 = Temp(0, T.U32), Temp(1, T.U32)
    ph = Temp(2, T.RAW_PACKET)
    wide = I.PktLoadWords([t0, t1], ph, 0, 2)
    assert wide.defs() == [t0, t1]
    assert wide.uses() == [ph]


def test_packet_access_model_states_bits_and_direction_once():
    ph, v = Temp(0, T.RAW_PACKET), Temp(1, T.U32)
    accesses = [
        (I.PktLoadField(v, ph, "ipv4", "ihl", 4, 4), False, 4, 4),
        (I.PktStoreField(ph, "ipv4", "ttl", 64, 8, v), True, 64, 8),
        (I.PktLoadWords([v, v], ph, 12, 2), False, 96, 64),
        (I.PktStoreWords(ph, 2, 1, [v], [0b1111]), True, 16, 32),
    ]
    for access, stores, bit_off, bit_width in accesses:
        assert isinstance(access, I.PktAccess)
        assert (access.stores, access.bit_off, access.bit_width,
                access.bit_end) == (stores, bit_off, bit_width, bit_off + bit_width)

    wide = I.PktLoadWords([v], ph, 12, 1)
    wide.c_offset_bits = 112
    wide.rebase(6)
    assert (wide.byte_off, wide.bit_off, wide.c_offset_bits) == (18, 144, 64)
    wide.rebase(-4)
    assert (wide.byte_off, wide.c_offset_bits) == (14, 96)
    with pytest.raises(ValueError, match="starts on a byte"):
        wide.bit_off = 115
    assert wide.byte_off == 14


# -- CFG --------------------------------------------------------------------------


def test_compute_cfg_diamond():
    fn, bbs = build_diamond()
    compute_cfg(fn)
    assert set(bbs["entry"].succs) == {bbs["left"], bbs["right"]}
    assert set(bbs["join"].preds) == {bbs["left"], bbs["right"]}


def test_reverse_postorder_starts_at_entry():
    fn, bbs = build_loop()
    compute_cfg(fn)
    order = reverse_postorder(fn)
    assert order[0] is bbs["entry"]
    assert set(order) == set(fn.blocks)


def test_remove_unreachable():
    fn, bbs = build_diamond()
    orphan = fn.new_block("orphan")
    orphan.terminate(I.Ret(None))
    assert remove_unreachable(fn) == 1
    assert orphan not in fn.blocks


def test_simplify_constant_branch():
    fn = IRFunction("f", "func", T.U32)
    entry = fn.new_block("entry")
    a = fn.new_block("a")
    b = fn.new_block("b")
    entry.terminate(I.Branch(Const(1), a, b))
    a.terminate(I.Ret(Const(1)))
    b.terminate(I.Ret(Const(2)))
    simplify_cfg(fn)
    assert b not in fn.blocks
    # entry merged with a
    assert isinstance(fn.entry.terminator, I.Ret)


def test_simplify_merges_straightline():
    fn = IRFunction("f", "func", T.U32)
    entry = fn.new_block("entry")
    mid = fn.new_block("mid")
    t = fn.new_temp(T.U32)
    entry.terminate(I.Jump(mid))
    mid.append(I.Assign(t, Const(4)))
    mid.terminate(I.Ret(t))
    simplify_cfg(fn)
    assert len(fn.blocks) == 1
    assert len(fn.entry.instrs) == 1


# -- dominators ----------------------------------------------------------------------


def test_dominators_diamond():
    fn, bbs = build_diamond()
    dom = dominator_tree(fn)
    assert dom.idom[bbs["left"]] is bbs["entry"]
    assert dom.idom[bbs["right"]] is bbs["entry"]
    assert dom.idom[bbs["join"]] is bbs["entry"]
    assert dom.dominates(bbs["entry"], bbs["join"])
    assert not dom.dominates(bbs["left"], bbs["join"])


def test_dominators_loop():
    fn, bbs = build_loop()
    dom = dominator_tree(fn)
    assert dom.idom[bbs["body"]] is bbs["head"]
    assert dom.idom[bbs["exit"]] is bbs["head"]
    assert dom.dominates(bbs["head"], bbs["body"])


def test_dominates_is_reflexive():
    fn, bbs = build_diamond()
    dom = dominator_tree(fn)
    for bb in fn.blocks:
        assert dom.dominates(bb, bb)
        assert not dom.strictly_dominates(bb, bb)


# -- verifier / callgraph ------------------------------------------------------------


def test_verifier_accepts_lowered_module():
    mod = lower(MINI_FORWARDER)
    verify_module(mod)


def test_verifier_rejects_unterminated():
    fn = IRFunction("f", "func")
    fn.new_block("entry")
    with pytest.raises(IRVerifyError):
        verify_function(fn)


def test_verifier_rejects_undefined_temp():
    fn = IRFunction("f", "func", T.U32)
    entry = fn.new_block("entry")
    ghost = Temp(99, T.U32)
    entry.terminate(I.Ret(ghost))
    with pytest.raises(IRVerifyError):
        verify_function(fn)


def test_verifier_rejects_dangling_block():
    fn = IRFunction("f", "func")
    entry = fn.new_block("entry")
    other = IRFunction("g", "func").new_block("foreign")
    other.terminate(I.Ret(None))
    entry.terminate(I.Jump(other))
    with pytest.raises(IRVerifyError):
        verify_function(fn)


def test_callgraph_topological_order():
    mod = lower(MINI_FORWARDER)
    cg = CallGraph(mod)
    order = cg.topological()
    assert order.index("mix") < order.index("l3_switch.l3_fwdr")


def test_callgraph_callers():
    mod = lower(MINI_FORWARDER)
    cg = CallGraph(mod)
    assert "l3_switch.l3_fwdr" in cg.callers["mix"]
