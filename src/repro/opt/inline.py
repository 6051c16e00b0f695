"""Function inlining.

The paper's -O2 level "inlines base packet handling routines"; it also
relies on aggressive inlining of support functions to merge stack frames
(section 5.4). Baker forbids recursion, so inlining processes the call
graph callees-first and always terminates.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional

from repro.ir import instructions as I
from repro.ir.callgraph import CallGraph
from repro.ir.module import BasicBlock, IRFunction, IRModule, LocalArray
from repro.ir.values import Const, Operand, Temp
from repro.obs import ledger as obs_ledger

# Functions at or below this size are always inlined at -O2; larger ones
# are inlined only when they have a single call site.
DEFAULT_SIZE_LIMIT = 80


def clone_instr(instr: I.Instr, temp_map: Dict[Temp, Temp],
                block_map: Dict[BasicBlock, BasicBlock],
                new_temp: Callable[[Temp], Temp]) -> I.Instr:
    """Deep-copy one instruction, remapping temps and block references."""

    def map_temp(t: Temp) -> Temp:
        if t not in temp_map:
            temp_map[t] = new_temp(t)
        return temp_map[t]

    def map_operand(v):
        if isinstance(v, Temp):
            return map_temp(v)
        return v

    dup = copy.copy(instr)
    for attr in list(dup._uses) + list(dup._defs):
        v = getattr(dup, attr)
        if v is None:
            continue
        if isinstance(v, list):
            setattr(dup, attr, [map_operand(x) for x in v])
        else:
            setattr(dup, attr, map_operand(v))
    if isinstance(dup, I.Jump):
        dup.target = block_map[dup.target]
    elif isinstance(dup, I.Branch):
        dup.then_bb = block_map[dup.then_bb]
        dup.else_bb = block_map[dup.else_bb]
    return dup


def _inline_one_call(caller: IRFunction, bb: BasicBlock, index: int,
                     call: I.Call, callee: IRFunction) -> None:
    """Splice ``callee`` in place of ``bb.instrs[index]``."""
    # Split the block after the call.
    cont = caller.new_block("inl_cont")
    cont.instrs = bb.instrs[index + 1 :]
    cont.terminator = bb.terminator
    bb.instrs = bb.instrs[:index]
    bb.terminator = None

    # Clone callee local arrays under fresh names.
    array_map: Dict[str, str] = {}
    for name, arr in callee.local_arrays.items():
        fresh = "%s.inl%d" % (name, len(caller.local_arrays))
        caller.local_arrays[fresh] = LocalArray(fresh, arr.element, arr.length)
        array_map[name] = fresh

    temp_map: Dict[Temp, Temp] = {}
    block_map: Dict[BasicBlock, BasicBlock] = {}
    for cbb in callee.blocks:
        block_map[cbb] = caller.new_block("inl_%s" % cbb.label)

    def new_temp(t: Temp) -> Temp:
        return caller.new_temp(t.type, t.hint)

    # Bind arguments.
    for param, arg in zip(callee.params, call.args):
        pt = temp_map.setdefault(param, new_temp(param))
        bb.append(I.Assign(pt, arg))
    bb.terminate(I.Jump(block_map[callee.entry]))

    for cbb in callee.blocks:
        target = block_map[cbb]
        for instr in cbb.instrs:
            dup = clone_instr(instr, temp_map, block_map, new_temp)
            if isinstance(dup, (I.LoadL, I.StoreL)):
                dup.array = array_map[dup.array]
            target.append(dup)
        term = cbb.terminator
        if isinstance(term, I.Ret):
            if call.dst is not None and term.value is not None:
                value: Operand = term.value
                if isinstance(value, Temp):
                    value = temp_map.setdefault(value, new_temp(value))
                target.append(I.Assign(call.dst, value))
            elif call.dst is not None:
                target.append(I.Assign(call.dst, Const(0)))
            target.terminate(I.Jump(cont))
        else:
            target.terminate(clone_instr(term, temp_map, block_map, new_temp))


def run(mod: IRModule,
        should_inline: Optional[Callable[[IRFunction, CallGraph], bool]] = None,
        size_limit: int = DEFAULT_SIZE_LIMIT) -> bool:
    """Inline eligible calls across the whole module. Returns True if any
    call was inlined."""
    cg = CallGraph(mod)

    if should_inline is None:
        def should_inline(callee: IRFunction, cg: CallGraph = cg) -> bool:  # type: ignore
            if callee.kind == "init":
                return False
            # PPFs become direct callees after aggregation merges their
            # input channel; inlining them completes the merge.
            if callee.kind == "ppf":
                return True
            if callee.instr_count() <= size_limit:
                return True
            return len(cg.callers.get(callee.name, ())) == 1

    rejected_pairs = set()  # ledger noise control only; never affects inlining

    changed = False
    # Callees-first order means by the time we inline f into g, f already
    # contains its own inlined callees (single pass suffices).
    for name in cg.topological():
        caller = mod.functions.get(name)
        if caller is None:
            continue
        again = True
        while again:
            again = False
            for bb in list(caller.blocks):
                for idx, instr in enumerate(bb.instrs):
                    if not isinstance(instr, I.Call):
                        continue
                    callee = mod.functions.get(instr.func)
                    if callee is None or callee is caller:
                        continue
                    if not should_inline(callee):
                        pair = (caller.name, callee.name)
                        if pair not in rejected_pairs:
                            rejected_pairs.add(pair)
                            obs_ledger.record(
                                "inline", "%s->%s" % pair, "rejected",
                                reason="init functions are never inlined"
                                       if callee.kind == "init" else
                                       "callee too large with multiple "
                                       "call sites",
                                callee_size=callee.instr_count(),
                                size_limit=size_limit,
                                call_sites=len(cg.callers.get(
                                    callee.name, ())))
                        continue
                    obs_ledger.record(
                        "inline", "%s->%s" % (caller.name, callee.name),
                        "inlined",
                        reason="ppf merge" if callee.kind == "ppf"
                               else "under size limit or single caller",
                        callee_size=callee.instr_count(),
                        callee_kind=callee.kind)
                    _inline_one_call(caller, bb, idx, instr, callee)
                    changed = True
                    again = True
                    break
                if again:
                    break
    return changed
