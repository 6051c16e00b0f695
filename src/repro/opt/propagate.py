"""Scalar rewriting: constant/copy propagation, folding and local value
numbering, the -O1 "typical scalar optimizations" in one pass.

Two steps, repeated until neither changes anything:

* **Global**: a temp defined exactly once (parameters count as one
  definition) by ``dst = c`` or ``dst = src`` with ``src`` itself defined
  once is that operand everywhere it is used; chains are resolved and
  every use rewritten, the copy left for DCE. This relies on the
  single-definition property of the non-SSA IR: uses of such a temp are
  always dominated by its definition in lowered code.
* **Per block**, one forward walk that
  - substitutes the block-local copies still valid (which also covers
    the multi-definition "variable" temps the Baker lowerer produces for
    mutable locals); a copy is dropped when its destination or its
    source is redefined;
  - folds constant operands through :mod:`repro.ir.eval`, the
    interpreter's own arithmetic (so folding can never change
    observable behaviour; division by zero is left for run time), and
    the algebraic identities ``x+0``, ``x*1``, ``x*0`` ...;
  - value-numbers arithmetic, comparisons, global/local loads, packet
    field loads and metadata loads. Loads are versioned so that stores,
    calls, lock operations and packet mutations invalidate exactly what
    they may affect: a ``StoreG``/``StoreL`` bumps that one global or
    array; a call or lock op bumps everything (calls may store
    anywhere); a packet store, and whatever moves, hands on or releases
    a packet (the IR's packet effects), bumps the packet version (all
    packet loads go -- handle aliasing is possible after copies).

The value numbering is the paper's "redundancy elimination" at -O1; it
is what removes the duplicated application SRAM accesses visible in
Table 1 between BASE and -O1.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from typing import Dict, Optional, Tuple

from repro.baker import types as T
from repro.ir import instructions as I
from repro.ir.eval import EvalError, bits_of, eval_binop, eval_cmp
from repro.ir.module import BasicBlock, IRFunction
from repro.ir.values import Const, Operand, Temp

_COMMUTATIVE = ("add", "mul", "and", "or", "xor")
_PACKET = "%packet"  # the packet's version; no global or array is named so


def run(fn: IRFunction) -> bool:
    changed_any = False
    while True:
        changed = _global_step(fn)
        for bb in fn.blocks:
            if _walk_block(bb):
                changed = True
        if not changed:
            return changed_any
        changed_any = True


def _substitute(instr: I.Instr, mapping: Dict[Temp, Operand]) -> bool:
    before = instr.uses()
    if not any(u in mapping for u in before if isinstance(u, Temp)):
        return False
    instr.replace_uses(mapping)
    return instr.uses() != before


def _global_step(fn: IRFunction) -> bool:
    def_counts: Counter = Counter(fn.params)
    for instr in fn.all_instrs():
        def_counts.update(instr.defs())
    mapping: Dict[Temp, Operand] = {}
    for instr in fn.all_instrs():
        if (isinstance(instr, I.Assign) and def_counts[instr.dst] == 1
                and (isinstance(instr.src, Const)
                     or def_counts[instr.src] == 1)):
            mapping[instr.dst] = instr.src
    if not mapping:
        return False

    def resolve(t: Operand) -> Operand:  # a->b, b->c => a->c
        seen = set()
        while t in mapping and t not in seen:
            seen.add(t)
            t = mapping[t]
        return t

    flat = {k: resolve(k) for k in mapping}
    changed = False
    for instr in fn.all_instrs():
        if _substitute(instr, flat):
            changed = True
    return changed


def _fold(instr: I.Instr) -> Optional[Operand]:
    """What a BinOp/Cmp with constant operands, or a BinOp that is an
    algebraic identity, computes; None when it must stay."""
    if not isinstance(instr, (I.BinOp, I.Cmp)):
        return None
    a, b = instr.a, instr.b
    if isinstance(a, Const) and isinstance(b, Const):
        if isinstance(instr, I.Cmp):
            bits = max(bits_of(a.type), bits_of(b.type))
            return Const(eval_cmp(instr.op, a.value, b.value, bits), T.BOOL)
        try:
            return Const(eval_binop(instr.op, a.value, b.value,
                                    bits_of(instr.dst.type)), instr.dst.type)
        except EvalError:
            return None  # preserve runtime division-by-zero
    if isinstance(instr, I.Cmp):
        return None
    op = instr.op
    if isinstance(b, Const):
        if b.value == 0 and op in ("add", "sub", "or", "xor", "shl", "lshr", "ashr"):
            return a
        if b.value == 0 and op in ("mul", "and"):
            return Const(0, instr.dst.type)
        if b.value == 1 and op in ("mul", "div_u", "div_s"):
            return a
    if isinstance(a, Const):
        if a.value == 0 and op in ("add", "or", "xor"):
            return b
        if a.value == 0 and op in ("mul", "and"):
            return Const(0, instr.dst.type)
        if a.value == 1 and op == "mul":
            return b
    return None


def _walk_block(bb: BasicBlock) -> bool:
    changed = False
    copies: Dict[Temp, Operand] = {}
    vn: Dict[Temp, int] = {}
    fresh = count()
    table: Dict[Tuple, Temp] = {}
    # Load versions per global, "@array" and the packet; every key also
    # holds versions[""], which calls and lock ops bump.
    versions: Counter = Counter()

    def number(op: Operand) -> Tuple:
        if isinstance(op, Const):
            return ("c", op.value)
        if op not in vn:
            vn[op] = next(fresh)
        return ("t", vn[op])

    def version(name: str) -> Tuple[int, int]:
        return versions[""], versions[name]

    def key_of(instr: I.Instr) -> Optional[Tuple]:
        if isinstance(instr, I.BinOp):
            a, b = number(instr.a), number(instr.b)
            if instr.op in _COMMUTATIVE and b < a:
                a, b = b, a  # canonical order
            return ("bin", instr.op, a, b, str(instr.dst.type))
        if isinstance(instr, I.Cmp):
            return ("cmp", instr.op, number(instr.a), number(instr.b))
        if isinstance(instr, I.LoadG):
            return ("lg", instr.g, number(instr.offset), instr.width,
                    version(instr.g))
        if isinstance(instr, I.LoadL):
            return ("ll", instr.array, number(instr.offset), instr.width,
                    version("@" + instr.array))
        if isinstance(instr, I.PktLoadField):
            return ("pf", number(instr.ph), instr.proto, instr.field,
                    instr.bit_off, version(_PACKET))
        if isinstance(instr, I.MetaLoad):
            return ("ml", number(instr.ph), instr.word, version(_PACKET))
        if isinstance(instr, I.PktLength):
            return ("pl", number(instr.ph), version(_PACKET))
        return None

    def redefine(d: Temp) -> None:
        copies.pop(d, None)
        for k in [k for k, v in copies.items() if v is d]:
            del copies[k]
        for k in [k for k, v in table.items() if v is d]:
            del table[k]

    for idx, instr in enumerate(bb.instrs):
        if copies and _substitute(instr, copies):
            changed = True
        value = _fold(instr)
        key = None if value is not None else key_of(instr)
        repeated = key in table
        if repeated:
            value = table[key]
        if value is not None:
            new = I.Assign(instr.dst, value)
            new.copy_annotations_from(instr)
            bb.instrs[idx] = instr = new
            changed = True

        if isinstance(instr, I.StoreG):
            versions[instr.g] += 1
        elif isinstance(instr, I.StoreL):
            versions["@" + instr.array] += 1
        elif isinstance(instr, (I.Call, I.LockAcquire, I.LockRelease)):
            versions[""] += 1
        elif (instr.touches_packet or isinstance(instr, I.MetaStore)
              or isinstance(instr, I.PktAccess) and instr.stores):
            versions[_PACKET] += 1

        for d in instr.defs():
            redefine(d)
            # A repeated computation's result shares the value number of
            # the one it repeats.
            vn[d] = number(value)[1] if repeated else next(fresh)
        if isinstance(instr, I.Assign) and instr.src is not instr.dst:
            copies[instr.dst] = instr.src
        if key is not None and not repeated:
            table[key] = instr.dst
    if copies and bb.terminator is not None:
        if _substitute(bb.terminator, copies):
            changed = True
    return changed
