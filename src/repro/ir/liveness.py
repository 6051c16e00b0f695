"""Liveness analysis over IR temps (backward may-analysis)."""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from repro.ir.cfg import compute_cfg
from repro.ir.dataflow import DataflowProblem, solve
from repro.ir.module import BasicBlock, IRFunction
from repro.ir.values import Temp


class _Liveness(DataflowProblem[FrozenSet[Temp]]):
    direction = "backward"

    def boundary(self, fn: IRFunction) -> FrozenSet[Temp]:
        return frozenset()

    def initial(self, fn: IRFunction) -> FrozenSet[Temp]:
        return frozenset()

    def meet(self, a: FrozenSet[Temp], b: FrozenSet[Temp]) -> FrozenSet[Temp]:
        return a | b

    def transfer(self, bb: BasicBlock, live_out: FrozenSet[Temp]) -> FrozenSet[Temp]:
        live: Set[Temp] = set(live_out)
        for instr in reversed(list(bb.all_instrs())):
            for d in instr.defs():
                live.discard(d)
            for u in instr.uses():
                if isinstance(u, Temp):
                    live.add(u)
        return frozenset(live)


class LivenessInfo:
    """Block-level live-in/live-out sets."""

    def __init__(self, fn: IRFunction):
        compute_cfg(fn)
        result = solve(_Liveness(), fn)
        self.fn = fn
        self.live_in: Dict[BasicBlock, FrozenSet[Temp]] = result.inp
        self.live_out: Dict[BasicBlock, FrozenSet[Temp]] = result.out


def liveness(fn: IRFunction) -> LivenessInfo:
    return LivenessInfo(fn)
