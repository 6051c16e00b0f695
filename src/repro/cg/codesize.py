"""Code size estimation (paper Figure 5: IPA "Estimate code sizes").

Aggregation must reject merges whose combined code would overflow an
ME's 4096-instruction store *before* code generation runs, so this
module predicts the ME instruction count of an IR function under a given
option set. The packet-primitive costs mirror the paper's measurements
(a generic packet data access costs ``38 + 5*words`` instructions;
static-offset resolution removes "more than half" of that).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.ir import instructions as I
from repro.ir.module import IRFunction, IRModule
from repro.options import CompilerOptions

# Baseline expansion: ordinary ALU/branch IR maps nearly 1:1 onto the ME
# ISA, plus register shuffling.
_SIMPLE_FACTOR = 1.4

# Generic (unresolved-offset) packet data access: paper section 5.3.
GENERIC_ACCESS_BASE = 38
GENERIC_ACCESS_PER_WORD = 5
STATIC_ACCESS_BASE = 12
CALL_OVERHEAD = 6
ENCAP_COST = 14  # metadata head/len read-modify-write
SYNC_COST = 10
META_ACCESS_COST = 6
CHANNEL_PUT_COST = 12
LOCK_COST = 10
DISPATCH_LOOP_COST = 30


def estimate_instr(instr: I.Instr, opts: CompilerOptions) -> float:
    """Estimated ME instructions for one IR instruction."""
    if isinstance(instr, I.PktAccess):
        words = (instr.bit_width + 31) // 32
        static = opts.soar and instr.c_offset_bits is not None
        base = STATIC_ACCESS_BASE if static else GENERIC_ACCESS_BASE
        cost = base + GENERIC_ACCESS_PER_WORD * words
        if not opts.inline:
            # BASE/-O1 call an out-of-line access helper.
            cost = CALL_OVERHEAD + 4
        return cost
    if isinstance(instr, (I.PktEncap, I.PktDecap)):
        return ENCAP_COST if opts.inline else CALL_OVERHEAD + 4
    if isinstance(instr, I.PktSyncHead):
        return SYNC_COST
    if isinstance(instr, (I.MetaLoad, I.MetaStore, I.PktLength)):
        return META_ACCESS_COST
    if isinstance(instr, (I.PktCopy, I.PktCreate, I.PktDrop, I.PktAdjust)):
        return 20 if opts.inline else CALL_OVERHEAD + 4
    if isinstance(instr, I.ChanPut):
        return CHANNEL_PUT_COST
    if isinstance(instr, I.Call):
        return CALL_OVERHEAD + len(instr.args)
    if isinstance(instr, (I.LockAcquire, I.LockRelease)):
        return LOCK_COST
    if isinstance(instr, (I.LoadG, I.LoadGWords, I.StoreG, I.LoadL, I.StoreL)):
        return 3
    return _SIMPLE_FACTOR


def estimate_function(fn: IRFunction, opts: CompilerOptions) -> int:
    """Estimated ME instruction-store footprint of one function."""
    total = 0.0
    for instr in fn.all_instrs():
        total += estimate_instr(instr, opts)
    return int(total) + 2  # entry/exit glue


def estimate_closure(mod: IRModule, roots: Iterable[str],
                     opts: CompilerOptions) -> int:
    """Footprint of a set of entry functions plus everything they call
    (each callee counted once -- code is shared within an ME), plus the
    dispatch loop and, at BASE/-O1, the shared out-of-line packet helper
    bodies."""
    from repro.ir.callgraph import CallGraph

    cg = CallGraph(mod)
    seen: Set[str] = set()
    total = DISPATCH_LOOP_COST
    stack = list(roots)
    uses_packet_prims = False
    while stack:
        name = stack.pop()
        if name in seen or name not in mod.functions:
            continue
        seen.add(name)
        fn = mod.functions[name]
        total += estimate_function(fn, opts)
        for instr in fn.all_instrs():
            if isinstance(instr, I.PktInstr):
                uses_packet_prims = True
        stack.extend(cg.callees.get(name, ()))
    if uses_packet_prims and not opts.inline:
        total += 300  # shared generic packet-handling helper bodies
    return total


def record_budget_fit(subject: str, code_size: int, budget: int,
                      estimate: Optional[int] = None) -> None:
    """Ledger hook: how an assembled image compares against the control
    store (and how good the pre-codegen estimate was)."""
    from repro.obs import ledger as obs_ledger

    obs_ledger.record(
        "codesize", subject,
        "fits" if code_size <= budget else "overflows",
        reason="%d of %d control-store words used" % (code_size, budget),
        code_size=code_size, budget=budget, estimate=estimate,
        headroom=budget - code_size)
