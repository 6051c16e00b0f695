"""Global register allocation with the dual-bank constraint.

The ME's 32 GPRs are split into two banks of 16; an ALU instruction with
two register source operands must read one operand from each bank (paper
section 4.1, and Zhuang & Pande's PLDI'03 problem). The allocator:

1. normalizes the LIR so branches only end blocks;
2. homes every value live across a call into a stack slot (calls clobber
   all GPRs under our convention -- this is where the paper's stack
   traffic at BASE/-O1 comes from);
3. builds an interference graph over virtual registers plus precolored
   physical nodes;
4. colors greedily in decreasing-degree order, *preferring* a bank that
   differs from already-colored bank-conflict partners;
5. spills on demand (stack slots + short reload ranges) and retries;
6. fixes any residual same-bank ALU pairs with a reserved-register move.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.cg import abi
from repro.obs import ledger as obs_ledger
from repro.cg.isa import (
    Alu, Bal, Br, Cmp, Imm, Insn, LIRBlock, LIRFunction, Mov, PReg, Reg,
    Rtn, StackRead, StackWrite, VReg, N_PER_BANK,
)


class RegAllocError(Exception):
    pass


ALL_COLORS: List[PReg] = [PReg("a", i) for i in range(N_PER_BANK)] + [
    PReg("b", i) for i in range(N_PER_BANK)
]
USABLE = [c for c in ALL_COLORS if c not in abi.RESERVED]

#: Spill-and-retry rounds before allocation gives up.
MAX_ROUNDS = 8


def _ends_block(insn: Insn) -> bool:
    return isinstance(insn, (Br, Rtn))


def normalize(fn: LIRFunction) -> None:
    """Split blocks so control transfers appear only as the final
    instruction of a block (lowering emits mid-block branches freely)."""
    new_blocks: List[LIRBlock] = []
    for bb in fn.blocks:
        cur = LIRBlock(bb.label)
        new_blocks.append(cur)
        for idx, insn in enumerate(bb.insns):
            cur.insns.append(insn)
            if _ends_block(insn) and idx != len(bb.insns) - 1:
                cur = LIRBlock("%s__split%d" % (bb.label, idx))
                new_blocks.append(cur)
    fn.blocks = new_blocks


def _build_cfg(fn: LIRFunction) -> Dict[str, List[str]]:
    labels = {bb.label: i for i, bb in enumerate(fn.blocks)}
    succs: Dict[str, List[str]] = {}
    for i, bb in enumerate(fn.blocks):
        out: List[str] = []
        last = bb.insns[-1] if bb.insns else None
        if isinstance(last, Br):
            out.append(last.target)
            if last.cond != "always" and i + 1 < len(fn.blocks):
                out.append(fn.blocks[i + 1].label)
        elif isinstance(last, Rtn):
            pass
        elif i + 1 < len(fn.blocks):
            out.append(fn.blocks[i + 1].label)
        succs[bb.label] = [t for t in out if t in labels]
    return succs


def _liveness(fn: LIRFunction, succs: Dict[str, List[str]]):
    """Backward liveness over VRegs and PRegs together. Each block is
    summarized once as live_in = used | (live_out - defined), ``used``
    being its upward-exposed reads; the fixed point iterates on sets."""
    live_in: Dict[str, Set[Reg]] = {bb.label: set() for bb in fn.blocks}
    live_out: Dict[str, Set[Reg]] = {bb.label: set() for bb in fn.blocks}
    used: Dict[str, Set[Reg]] = {}
    defined: Dict[str, Set[Reg]] = {}
    for bb in fn.blocks:
        use: Set[Reg] = set()
        kill: Set[Reg] = set()
        for insn in reversed(bb.insns):
            for d in insn.writes():
                use.discard(d)
                kill.add(d)
            for u in insn.reads():
                if isinstance(u, (VReg, PReg)):
                    use.add(u)
        used[bb.label], defined[bb.label] = use, kill
    changed = True
    while changed:
        changed = False
        for bb in reversed(fn.blocks):
            out: Set[Reg] = set()
            for s in succs[bb.label]:
                out |= live_in[s]
            live_out[bb.label] = out
            live = (out - defined[bb.label]) | used[bb.label]
            if live != live_in[bb.label]:
                live_in[bb.label] = live
                changed = True
    return live_in, live_out


# -- call-live homing -----------------------------------------------------------------


def home_call_live(fn: LIRFunction) -> None:
    """Values live across a ``bal`` get a frame slot; defs write through,
    post-call uses reload. (The called routine may clobber every GPR.)"""
    if not any(isinstance(i, Bal) for i in fn.all_insns()):
        return
    succs = _build_cfg(fn)
    _, live_out = _liveness(fn, succs)

    call_live: Set[VReg] = set()
    for bb in fn.blocks:
        live = set(live_out[bb.label])
        for insn in reversed(bb.insns):
            defs = insn.writes()
            for d in defs:
                live.discard(d)
            if isinstance(insn, Bal):
                call_live.update(v for v in live if isinstance(v, VReg))
            for u in insn.reads():
                if isinstance(u, (VReg, PReg)):
                    live.add(u)
    if not call_live:
        return

    slots: Dict[VReg, int] = {}
    for v in sorted(call_live, key=lambda r: r.id):
        slots[v] = fn.frame_slots
        fn.frame_slots += 1
    obs_ledger.record(
        "regalloc", fn.name, "call_live_homed",
        reason="values live across a call get frame slots "
               "(calls clobber all GPRs)",
        slots=len(slots))

    for bb in fn.blocks:
        fresh: Dict[VReg, VReg] = {}  # currently valid in-register copies
        out: List[Insn] = []
        for insn in bb.insns:
            # Reload stale uses into short-lived copies, in vreg-id order:
            # set order follows object addresses, so it would make the
            # copies' ids (hence their colors) differ from compile to compile.
            reads = {u for u in insn.reads() if isinstance(u, VReg) and u in call_live}
            mapping: Dict[VReg, VReg] = {}
            for u in sorted(reads, key=lambda r: r.id):
                if u in fresh:
                    mapping[u] = fresh[u]
                else:
                    copy = VReg(u.hint + ".rl")
                    out.append(StackRead(copy, slots[u]))
                    fresh[u] = copy
                    mapping[u] = copy
            orig_defs = [d for d in insn.writes() if isinstance(d, VReg)]
            if mapping:
                insn.map_regs(
                    lambda r: mapping.get(r, r) if isinstance(r, VReg) else r
                )
            out.append(insn)
            # Write-through every definition of a call-live value (the
            # def may have been renamed by the use-mapping above).
            for d in orig_defs:
                if d in call_live:
                    written = mapping.get(d, d)
                    out.append(StackWrite(slots[d], written))
                    fresh[d] = written
            if isinstance(insn, Bal):
                fresh.clear()
        bb.insns = out


# -- interference & coloring -----------------------------------------------------------


def _conflict_partners(fn: LIRFunction) -> Dict[Reg, Set[Reg]]:
    """Pairs of registers read together by one ALU/cmp instruction, which
    therefore want different banks."""
    partners: Dict[Reg, Set[Reg]] = defaultdict(set)
    for insn in fn.all_insns():
        if isinstance(insn, (Alu, Cmp)):
            a, b = insn.a, insn.b
            if isinstance(a, (VReg, PReg)) and isinstance(b, (VReg, PReg)) and a is not b:
                partners[a].add(b)
                partners[b].add(a)
    return partners


def simplify_order(vregs: Set[VReg], adj: Dict[Reg, Set[Reg]],
                   unspillable: Set[VReg], k: int = len(USABLE)) -> List[VReg]:
    """Chaitin-Briggs simplify: the order in which the virtual registers
    leave the interference graph. Each step removes the node of least
    (degree, id) among those with fewer than ``k`` remaining neighbours
    (it is trivially colorable); when there is none, it optimistically
    removes the node of greatest (degree, -id), spillable nodes first.

    Degrees only fall, so each step's node comes off one of two heaps
    whose entries are pushed at every degree change and are live while
    their node remains at that degree: O((V + E) log V), where a scan of
    the remaining nodes per step was O(V^2)."""
    nbrs = {v: [n for n in adj[v] if isinstance(n, VReg)] for v in vregs}
    degree = {v: len(ns) for v, ns in nbrs.items()}  # the remaining nodes
    low: List[Tuple[int, int, VReg]] = []  # (degree, id, v), degree < k
    high: List[Tuple[bool, int, int, VReg]] = []  # (unspillable, -degree, id, v)

    def push(v: VReg, d: int) -> None:
        if d < k:
            heapq.heappush(low, (d, v.id, v))
        else:
            heapq.heappush(high, (v in unspillable, -d, v.id, v))

    for v, d in degree.items():
        push(v, d)
    stack: List[VReg] = []
    while degree:
        while low and degree.get(low[0][2]) != low[0][0]:
            heapq.heappop(low)
        if low:
            v = heapq.heappop(low)[2]
        else:
            while True:
                _, neg, _, v = heapq.heappop(high)
                if degree.get(v) == -neg:
                    break
        del degree[v]
        stack.append(v)
        for n in nbrs[v]:
            d = degree.get(n)
            if d is not None:
                degree[n] = d - 1
                push(n, d - 1)
    return stack


def allocate_function(fn: LIRFunction) -> None:
    """Run register allocation in place (virtual -> physical registers)."""
    normalize(fn)
    home_call_live(fn)
    unspillable: Set[VReg] = set()

    for round_no in range(MAX_ROUNDS):
        succs = _build_cfg(fn)
        live_in, live_out = _liveness(fn, succs)

        # Interference graph.
        adj: Dict[Reg, Set[Reg]] = defaultdict(set)
        vregs: Set[VReg] = set()
        for bb in fn.blocks:
            live: Set[Reg] = set(live_out[bb.label])
            for insn in reversed(bb.insns):
                defs = insn.writes()
                # Defs of one instruction interfere with each other and
                # with everything live after it.
                for d in defs:
                    if isinstance(d, VReg):
                        vregs.add(d)
                    for other in live:
                        if other is not d:
                            adj[d].add(other)
                            adj[other].add(d)
                    for d2 in defs:
                        if d2 is not d:
                            adj[d].add(d2)
                            adj[d2].add(d)
                for d in defs:
                    live.discard(d)
                for u in insn.reads():
                    if isinstance(u, (VReg, PReg)):
                        live.add(u)
                        if isinstance(u, VReg):
                            vregs.add(u)

        partners = _conflict_partners(fn)
        coloring: Dict[VReg, PReg] = {}

        def color_of(r: Reg) -> Optional[PReg]:
            if isinstance(r, PReg):
                return r
            return coloring.get(r)

        # Select: color in reverse removal order.
        to_spill: List[VReg] = []
        for v in reversed(simplify_order(vregs, adj, unspillable)):
            taken = {color_of(n) for n in adj[v]}
            taken.discard(None)
            partner_banks = {
                color_of(p).bank for p in partners.get(v, ()) if color_of(p) is not None
            }
            preferred = None
            fallback = None
            for c in USABLE:
                if c in taken:
                    continue
                if fallback is None:
                    fallback = c
                if c.bank not in partner_banks:
                    preferred = c
                    break
            choice = preferred or fallback
            if choice is None:
                to_spill.append(v)
                continue
            coloring[v] = choice

        if not to_spill:
            _rewrite(fn, coloring)
            _fix_bank_conflicts(fn)
            return
        # Prefer spilling long-lived original values; the short-range
        # reload copies minted by earlier spills must not re-spill (that
        # thrashes), so they are only chosen when nothing else is left.
        candidates = [v for v in to_spill if v not in unspillable]
        if not candidates:
            candidates = to_spill[:1]
        for victim in candidates:
            obs_ledger.record("regalloc", fn.name, "spilled",
                              reason="no color available for %s" % victim.hint,
                              round=round_no, uncolorable=len(to_spill))
            unspillable.update(_spill(fn, victim))
    obs_ledger.record(
        "regalloc", fn.name, "failed",
        reason="allocation did not converge", rounds=MAX_ROUNDS)
    raise RegAllocError("register allocation did not converge for %s" % fn.name)


def _rewrite(fn: LIRFunction, coloring: Dict[VReg, PReg]) -> None:
    def sub(r: Reg) -> Reg:
        if isinstance(r, VReg):
            return coloring[r]
        return r

    for insn in fn.all_insns():
        insn.map_regs(sub)


def _spill(fn: LIRFunction, victim: VReg) -> List[VReg]:
    """Give ``victim`` a frame slot; each def stores, each use reloads
    into a fresh short-lived vreg. Returns the copies created (the
    caller marks them unspillable)."""
    slot = fn.frame_slots
    fn.frame_slots += 1
    copies: List[VReg] = [victim]
    for bb in fn.blocks:
        out: List[Insn] = []
        for insn in bb.insns:
            wrote_victim = any(d is victim for d in insn.writes())
            uses_victim = any(u is victim for u in insn.reads())
            copy = None
            if uses_victim:
                copy = VReg(victim.hint + ".sp")
                copies.append(copy)
                out.append(StackRead(copy, slot))
                insn.map_regs(lambda r: copy if r is victim else r)
            out.append(insn)
            if wrote_victim:
                out.append(StackWrite(slot, copy if uses_victim else victim))
        bb.insns = out
    return copies


def _fix_bank_conflicts(fn: LIRFunction) -> None:
    """Residual ALU/cmp instructions whose two register sources share a
    bank get one operand moved through the reserved fixup register of the
    opposite bank."""
    for bb in fn.blocks:
        out: List[Insn] = []
        for insn in bb.insns:
            if isinstance(insn, (Alu, Cmp)):
                a, b = insn.a, insn.b
                if (isinstance(a, PReg) and isinstance(b, PReg)
                        and a.bank == b.bank and a != b):
                    fix = abi.FIXUP_B if a.bank == "a" else abi.FIXUP_A
                    out.append(Mov(fix, b))
                    insn.b = fix
            out.append(insn)
        bb.insns = out
