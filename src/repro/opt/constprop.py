"""Constant folding and propagation.

Works on the non-SSA IR using the single-definition property: a temp
defined exactly once by a constant is a constant everywhere (uses are
always dominated by the definition in lowered code). Folding uses the
same arithmetic as the interpreter (:mod:`repro.ir.eval`), so it can
never change observable behavior.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

from repro.baker import types as T
from repro.ir import instructions as I
from repro.ir.eval import EvalError, eval_binop, eval_cmp
from repro.ir.module import IRFunction
from repro.ir.values import Const, Operand, Temp


def _bits_of(type_: T.Type) -> int:
    if isinstance(type_, T.IntType):
        return type_.bits
    if type_.is_bool:
        return 1
    return 32


def _fold(instr: I.Instr) -> Optional[Const]:
    """Fold a BinOp/Cmp/Assign with all-constant operands."""
    if isinstance(instr, I.BinOp) and isinstance(instr.a, Const) and isinstance(instr.b, Const):
        try:
            value = eval_binop(instr.op, instr.a.value, instr.b.value, _bits_of(instr.dst.type))
        except EvalError:
            return None  # preserve runtime division-by-zero
        return Const(value, instr.dst.type)
    if isinstance(instr, I.Cmp) and isinstance(instr.a, Const) and isinstance(instr.b, Const):
        bits = max(_bits_of(instr.a.type), _bits_of(instr.b.type))
        return Const(eval_cmp(instr.op, instr.a.value, instr.b.value, bits), T.BOOL)
    return None


def _simplify_algebraic(instr: I.BinOp) -> Optional[Operand]:
    """x+0, x-0, x*1, x*0, x&0, x|0, x^0, x<<0, x>>0 -> simpler operand."""
    a, b, op = instr.a, instr.b, instr.op
    if isinstance(b, Const):
        v = b.value
        if v == 0 and op in ("add", "sub", "or", "xor", "shl", "lshr", "ashr"):
            return a
        if v == 0 and op in ("mul", "and"):
            return Const(0, instr.dst.type)
        if v == 1 and op in ("mul", "div_u", "div_s"):
            return a
    if isinstance(a, Const):
        v = a.value
        if v == 0 and op in ("add", "or", "xor"):
            return b
        if v == 0 and op in ("mul", "and"):
            return Const(0, instr.dst.type)
        if v == 1 and op == "mul":
            return b
    return None


def run(fn: IRFunction) -> bool:
    changed_any = False
    while True:
        changed = False

        # 1. Fold instructions with constant operands; simplify identities.
        for bb in fn.blocks:
            for idx, instr in enumerate(bb.instrs):
                folded = _fold(instr)
                if folded is not None:
                    bb.instrs[idx] = _retag(I.Assign(instr.dst, folded), instr)
                    changed = True
                    continue
                if isinstance(instr, I.BinOp):
                    simpler = _simplify_algebraic(instr)
                    if simpler is not None:
                        bb.instrs[idx] = _retag(I.Assign(instr.dst, simpler), instr)
                        changed = True

        # 2. Propagate single-def constant temps into their uses.
        def_counts: Counter = Counter()
        const_defs: Dict[Temp, Const] = {}
        for instr in fn.all_instrs():
            for d in instr.defs():
                def_counts[d] += 1
        for instr in fn.all_instrs():
            if isinstance(instr, I.Assign) and isinstance(instr.src, Const):
                if def_counts[instr.dst] == 1:
                    const_defs[instr.dst] = instr.src
        for p in fn.params:
            const_defs.pop(p, None)
        if const_defs:
            for instr in fn.all_instrs():
                if any(u in const_defs for u in instr.uses()):
                    instr.replace_uses(const_defs)
                    changed = True

        changed_any = changed_any or changed
        if not changed:
            return changed_any


def _retag(new: I.Instr, old: I.Instr) -> I.Instr:
    new.copy_annotations_from(old)
    return new
