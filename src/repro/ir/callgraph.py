"""Static call graph over an IRModule (Baker forbids recursion, so the
graph is a DAG; used by inlining, code-size estimation and stack layout)."""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.instructions import Call
from repro.ir.module import IRFunction, IRModule


class CallGraph:
    def __init__(self, mod: IRModule):
        self.mod = mod
        self.callees: Dict[str, List[str]] = {}
        self.callers: Dict[str, Set[str]] = {name: set() for name in mod.functions}
        for name, fn in mod.functions.items():
            seen: List[str] = []
            for instr in fn.all_instrs():
                if isinstance(instr, Call) and instr.func not in seen:
                    seen.append(instr.func)
            self.callees[name] = seen
            for callee in seen:
                if callee in self.callers:
                    self.callers[callee].add(name)

    def topological(self) -> List[str]:
        """Functions ordered callees-first (valid because no recursion)."""
        visited: Set[str] = set()
        order: List[str] = []

        def visit(name: str) -> None:
            if name in visited:
                return
            visited.add(name)
            for callee in self.callees.get(name, ()):
                visit(callee)
            order.append(name)

        for name in self.mod.functions:
            visit(name)
        return order

    def transitive_callees(self, name: str) -> Set[str]:
        out: Set[str] = set()
        stack = list(self.callees.get(name, ()))
        while stack:
            n = stack.pop()
            if n in out:
                continue
            out.add(n)
            stack.extend(self.callees.get(n, ()))
        return out
