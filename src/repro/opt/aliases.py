"""Packet-handle alias classes.

A packet handle *is* the SRAM address of the packet's metadata block, so
copying a handle, or encapsulating/decapsulating through it, yields a
value that refers to the same underlying packet (same head pointer).
Baker's type-alias-free pointer rule means the only sources of handles
are: PPF parameters, ``packet_copy``, ``packet_create``, and derivations
of existing handles -- so a simple union-find per function gives exact
must-alias classes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baker import types as T
from repro.ir import instructions as I
from repro.ir.module import IRFunction
from repro.ir.values import Temp


class AliasClasses:
    """Union-find over packet-typed temps of one function."""

    def __init__(self, fn: IRFunction):
        self.parent: Dict[Temp, Temp] = {}
        for t in fn.params:
            if t.type.is_packet:
                self.parent[t] = t
        # Where packets come from: parameters, and below the results of
        # packet_copy / packet_create / calls (see one_packet).
        self._origins: List[Temp] = list(self.parent)
        for instr in fn.all_instrs():
            for d in instr.defs():
                if d.type.is_packet:
                    self.parent.setdefault(d, d)
            for u in instr.uses():
                if isinstance(u, Temp) and u.type.is_packet:
                    self.parent.setdefault(u, u)
        for instr in fn.all_instrs():
            if isinstance(instr, I.Assign) and isinstance(instr.src, Temp) \
                    and instr.dst.type.is_packet:
                self._union(instr.dst, instr.src)
            elif instr.renames and isinstance(instr.src, Temp):
                self._union(instr.dst, instr.src)
            elif isinstance(instr, (I.PktCopy, I.PktCreate, I.Call)):
                # Their results intentionally stay in their own class.
                self._origins.extend(d for d in instr.defs() if d.type.is_packet)

    def _find(self, t: Temp) -> Temp:
        root = t
        while self.parent[root] is not root:
            root = self.parent[root]
        while self.parent[t] is not root:
            self.parent[t], t = root, self.parent[t]
        return root

    def _union(self, a: Temp, b: Temp) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra is not rb:
            self.parent[ra] = rb

    def class_of(self, t: Temp) -> Temp:
        """Canonical representative of the temp's alias class."""
        return self._find(t)

    def classes(self) -> List[Temp]:
        return sorted({self._find(t) for t in self.parent}, key=lambda t: t.id)

    def same(self, a: Temp, b: Temp) -> bool:
        return self._find(a) is self._find(b)

    def one_packet(self, cls: Temp) -> bool:
        """False when a handle variable joined packets of different
        origin (say the parameter on one path, its ``packet_copy`` on
        another): the class then stands for either, and a fact about one
        packet -- its buffer address, its head -- is not a fact about the
        class."""
        return sum(1 for t in self._origins if self._find(t) is cls) <= 1


def packet_handles(instr: I.Instr) -> List[Temp]:
    """The packet handles ``instr`` acts through, in operand order --
    for a call, every packet argument, not only the first."""
    return [u for u in instr.uses() if isinstance(u, Temp) and u.type.is_packet]


def mutates_class(instr: I.Instr, aliases: AliasClasses, cls: Temp) -> bool:
    """True if ``instr`` changes the head/extent of packets in class
    ``cls`` or releases them (making later combined access unsound)."""
    return (instr.moves_head or instr.moves_tail or instr.releases) and any(
        aliases.same(ph, cls) for ph in packet_handles(instr))
