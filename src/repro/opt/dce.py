"""Dead code elimination.

Removes side-effect-free instructions whose results are never used
(including loads, which are idempotent in Baker's memory model). A
self-assignment ``%t = %t`` uses its own destination, so it is never
dead and stays. Iterates to fixpoint since removing one dead instruction
can kill the operands feeding it.
"""

from __future__ import annotations

from collections import Counter

from repro.ir.module import IRFunction
from repro.ir.values import Temp


def run(fn: IRFunction) -> bool:
    use_counts: Counter = Counter(
        u for instr in fn.all_instrs() for u in instr.uses()
        if isinstance(u, Temp))
    changed_any = False
    while True:
        # Backwards, so a chain of dead instructions goes in one sweep: a
        # removal gives back its operands' uses before their definitions
        # are seen.
        changed = False
        for bb in reversed(fn.blocks):
            kept = []
            for instr in reversed(bb.instrs):
                defs = instr.defs()
                if (not instr.side_effects and defs
                        and all(use_counts[d] == 0 for d in defs)):
                    use_counts.subtract(u for u in instr.uses()
                                        if isinstance(u, Temp))
                    changed = True
                else:
                    kept.append(instr)
            kept.reverse()
            bb.instrs = kept
        changed_any = changed_any or changed
        if not changed:
            return changed_any
