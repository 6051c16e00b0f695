"""Common subexpression / redundancy elimination (local value numbering).

Per-block value numbering over arithmetic, comparisons, global/local
loads, packet field loads and metadata loads. Memory-dependent values are
versioned so that stores, calls, lock operations and packet mutations
invalidate exactly what they may affect:

* a ``StoreG`` bumps the version of that one global;
* a call / lock op bumps every version (calls may store anywhere);
* a packet store, and whatever moves, hands on or releases a packet
  (the IR's packet effects), bumps the packet version (all packet
  loads are invalidated -- handle aliasing is possible after copies).

This pass is the paper's "redundancy elimination" at -O1; it is what
removes the duplicated application SRAM accesses visible in Table 1
between BASE and -O1.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.ir import instructions as I
from repro.ir.module import IRFunction
from repro.ir.values import Const, Operand, Temp


def run(fn: IRFunction) -> bool:
    changed = False
    for bb in fn.blocks:
        vn: Dict[Temp, int] = {}
        next_vn = [0]
        mem_version: Dict[str, int] = {}
        pkt_version = [0]
        table: Dict[Tuple, Temp] = {}

        def number(op: Operand):
            if isinstance(op, Const):
                return ("c", op.value)
            if op not in vn:
                vn[op] = next_vn[0]
                next_vn[0] += 1
            return ("t", vn[op])

        def invalidate_result(t: Temp) -> None:
            for key in [k for k, v in table.items() if v is t]:
                table.pop(key)

        def bump_all() -> None:
            for g in list(mem_version):
                mem_version[g] += 1
            pkt_version[0] += 1
            # Any still-cached memory keys are stale now:
            for key in [k for k in table if k[0] in ("lg", "ll", "pf", "ml", "pl")]:
                table.pop(key)

        new_instrs = []
        for instr in bb.instrs:
            key = None
            if isinstance(instr, I.BinOp):
                a, b = number(instr.a), number(instr.b)
                if instr.op in ("add", "mul", "and", "or", "xor") and b < a:
                    a, b = b, a  # commutative canonical order
                key = ("bin", instr.op, a, b, str(instr.dst.type))
            elif isinstance(instr, I.Cmp):
                key = ("cmp", instr.op, number(instr.a), number(instr.b))
            elif isinstance(instr, I.LoadG):
                ver = mem_version.setdefault(instr.g, 0)
                key = ("lg", instr.g, number(instr.offset), instr.width, ver)
            elif isinstance(instr, I.LoadL):
                ver = mem_version.setdefault("@" + instr.array, 0)
                key = ("ll", instr.array, number(instr.offset), instr.width, ver)
            elif isinstance(instr, I.PktLoadField):
                key = ("pf", number(instr.ph), instr.proto, instr.field,
                       instr.bit_off, pkt_version[0])
            elif isinstance(instr, I.MetaLoad):
                key = ("ml", number(instr.ph), instr.word, pkt_version[0])
            elif isinstance(instr, I.PktLength):
                key = ("pl", number(instr.ph), pkt_version[0])

            if key is not None and key in table:
                prev = table[key]
                dst = instr.defs()[0]
                replacement = I.Assign(dst, prev)
                replacement.copy_annotations_from(instr)
                new_instrs.append(replacement)
                changed = True
                # dst gets the same value number as prev.
                invalidate_result(dst)
                vn[dst] = _fresh(vn, next_vn, prev)
                continue

            new_instrs.append(instr)

            # Effects: invalidate what this instruction may change.
            if isinstance(instr, I.StoreG):
                mem_version[instr.g] = mem_version.get(instr.g, 0) + 1
                for k in [k for k in table if k[0] == "lg" and k[1] == instr.g]:
                    table.pop(k)
            elif isinstance(instr, I.StoreL):
                name = "@" + instr.array
                mem_version[name] = mem_version.get(name, 0) + 1
                for k in [k for k in table if k[0] == "ll" and k[1] == instr.array]:
                    table.pop(k)
            elif isinstance(instr, (I.Call, I.LockAcquire, I.LockRelease)):
                bump_all()
            elif (instr.touches_packet or isinstance(instr, I.MetaStore)
                  or isinstance(instr, I.PktAccess) and instr.stores):
                pkt_version[0] += 1
                for k in [k for k in table if k[0] in ("pf", "ml", "pl")]:
                    table.pop(k)

            # New definitions: fresh value numbers; record computed keys.
            for d in instr.defs():
                invalidate_result(d)
                vn[d] = next_vn[0]
                next_vn[0] += 1
            if key is not None:
                table[key] = instr.defs()[0]
        bb.instrs = new_instrs
    return changed


def _fresh(vn: Dict[Temp, int], next_vn, t: Temp) -> int:
    if t not in vn:
        vn[t] = next_vn[0]
        next_vn[0] += 1
    return vn[t]
