"""A small generic dataflow framework.

Problems supply per-block transfer functions and a meet over lattice
values; the solver runs a worklist to fixpoint. :mod:`repro.ir.liveness`
is the only client: SOAR runs its own worklist and nothing under
``repro.opt`` imports this module.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterable, List, TypeVar

from repro.ir.cfg import compute_cfg, reverse_postorder
from repro.ir.module import BasicBlock, IRFunction

L = TypeVar("L")  # lattice value type


class DataflowProblem(Generic[L]):
    """Subclass and override; direction is 'forward' or 'backward'."""

    direction = "forward"

    def boundary(self, fn: IRFunction) -> L:
        """Value at the entry (forward) or exits (backward)."""
        raise NotImplementedError

    def initial(self, fn: IRFunction) -> L:
        """Optimistic initial value for interior blocks."""
        raise NotImplementedError

    def meet(self, a: L, b: L) -> L:
        raise NotImplementedError

    def transfer(self, bb: BasicBlock, value: L) -> L:
        raise NotImplementedError

    def equal(self, a: L, b: L) -> bool:
        return a == b


class DataflowResult(Generic[L]):
    def __init__(self, inp: Dict[BasicBlock, L], out: Dict[BasicBlock, L]):
        self.inp = inp
        self.out = out


def solve(problem: DataflowProblem[L], fn: IRFunction) -> DataflowResult[L]:
    compute_cfg(fn)
    order = reverse_postorder(fn)
    forward = problem.direction == "forward"
    if not forward:
        order = list(reversed(order))

    inp: Dict[BasicBlock, L] = {}
    out: Dict[BasicBlock, L] = {}
    boundary = problem.boundary(fn)
    for bb in order:
        inp[bb] = problem.initial(fn)
        out[bb] = problem.initial(fn)

    work: List[BasicBlock] = list(order)
    in_work = set(work)
    while work:
        bb = work.pop(0)
        in_work.discard(bb)
        if forward:
            neighbors = [p for p in bb.preds if p in out]
            if neighbors:
                acc = out[neighbors[0]]
                for p in neighbors[1:]:
                    acc = problem.meet(acc, out[p])
            else:
                acc = boundary
            inp[bb] = acc
            new_out = problem.transfer(bb, acc)
            if not problem.equal(new_out, out[bb]):
                out[bb] = new_out
                for succ in bb.succs:
                    if succ not in in_work and succ in inp:
                        work.append(succ)
                        in_work.add(succ)
        else:
            neighbors = [s for s in bb.succs if s in inp]
            if neighbors:
                acc = inp[neighbors[0]]
                for s in neighbors[1:]:
                    acc = problem.meet(acc, inp[s])
            else:
                acc = boundary
            out[bb] = acc
            new_in = problem.transfer(bb, acc)
            if not problem.equal(new_in, inp[bb]):
                inp[bb] = new_in
                for pred in bb.preds:
                    if pred not in in_work and pred in out:
                        work.append(pred)
                        in_work.add(pred)
    return DataflowResult(inp, out)
