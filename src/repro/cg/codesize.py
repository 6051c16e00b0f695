"""Code size estimation (paper Figure 5: IPA "Estimate code sizes").

Aggregation must reject merges whose combined code would overflow an
ME's 4096-instruction store *before* code generation runs, so this
module predicts the ME instruction count of an IR function under a given
option set. The packet-primitive costs mirror the paper's measurements
(a generic packet data access costs ``38 + 5*words`` instructions).

It prices IR as aggregation sees it: scalar-optimized and inlined, but
before PAC, SOAR and PHR. So no access has a resolved offset, no head
sync and no combined global read exists yet, and the estimate overstates
the code that those passes go on to shrink.
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
CALL_OVERHEAD = 6
ENCAP_COST = 14  # metadata head/len read-modify-write
META_ACCESS_COST = 6
CHANNEL_PUT_COST = 12
LOCK_COST = 10
DISPATCH_LOOP_COST = 30


def estimate_instr(instr: I.Instr, opts: CompilerOptions) -> float:
    """Estimated ME instructions for one IR instruction."""
    if isinstance(instr, I.PktAccess):
        if not opts.inline:
            # BASE/-O1 call an out-of-line access helper.
            return CALL_OVERHEAD + 4
        words = (instr.bit_width + 31) // 32
        return GENERIC_ACCESS_BASE + GENERIC_ACCESS_PER_WORD * words
    if isinstance(instr, (I.PktEncap, I.PktDecap)):
        return ENCAP_COST
    if isinstance(instr, (I.MetaLoad, I.MetaStore, I.PktLength)):
        return META_ACCESS_COST
    if isinstance(instr, (I.PktCopy, I.PktCreate, I.PktDrop, I.PktAdjust)):
        return 20
    if isinstance(instr, I.ChanPut):
        return CHANNEL_PUT_COST
    if isinstance(instr, I.Call):
        return CALL_OVERHEAD + len(instr.args)
    if isinstance(instr, (I.LockAcquire, I.LockRelease)):
        return LOCK_COST
    if isinstance(instr, (I.LoadG, I.StoreG, I.LoadL, I.StoreL)):
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
    dispatch loop and, when some function of the closure calls the
    out-of-line packet routines (:func:`repro.cg.pktlower.calls_helpers`),
    their shared bodies."""
    from repro.cg.pktlower import calls_helpers
    from repro.ir.callgraph import CallGraph

    cg = CallGraph(mod)
    seen: Set[str] = set()
    total = DISPATCH_LOOP_COST
    stack = list(roots)
    helpers = False
    while stack:
        name = stack.pop()
        if name in seen or name not in mod.functions:
            continue
        seen.add(name)
        fn = mod.functions[name]
        total += estimate_function(fn, opts)
        helpers = helpers or calls_helpers(opts, fn)
        stack.extend(cg.callees.get(name, ()))
    if helpers:
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
