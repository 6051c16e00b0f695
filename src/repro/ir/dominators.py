"""Dominator and post-dominator trees (Cooper-Harvey-Kennedy)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.cfg import compute_cfg, reverse_postorder
from repro.ir.module import BasicBlock, IRFunction


class DomTree:
    """Immediate-dominator tree over the blocks of one function.

    ``idom[entry] is entry`` by convention; unreachable blocks are absent.
    """

    def __init__(self, idom: Dict[BasicBlock, BasicBlock], order: List[BasicBlock]):
        self.idom = idom
        self.order = order  # reverse postorder
        self._index = {bb: i for i, bb in enumerate(order)}
        self.children: Dict[BasicBlock, List[BasicBlock]] = {bb: [] for bb in order}
        for bb in order:
            parent = idom.get(bb)
            if parent is not None and parent is not bb:
                self.children[parent].append(bb)

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        node: Optional[BasicBlock] = b
        while node is not None:
            if node is a:
                return True
            parent = self.idom.get(node)
            if parent is node:
                return False
            node = parent
        return False

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)


def _build(order: List[BasicBlock], preds_of) -> Dict[BasicBlock, BasicBlock]:
    index = {bb: i for i, bb in enumerate(order)}
    idom: Dict[BasicBlock, Optional[BasicBlock]] = {bb: None for bb in order}
    entry = order[0]
    idom[entry] = entry

    def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for bb in order[1:]:
            new_idom: Optional[BasicBlock] = None
            for pred in preds_of(bb):
                if pred not in index:
                    continue  # unreachable pred
                if idom[pred] is not None:
                    new_idom = pred if new_idom is None else intersect(pred, new_idom)
            if new_idom is not None and idom[bb] is not new_idom:
                idom[bb] = new_idom
                changed = True
    return {bb: d for bb, d in idom.items() if d is not None}


def dominator_tree(fn: IRFunction) -> DomTree:
    compute_cfg(fn)
    order = reverse_postorder(fn)
    return DomTree(_build(order, lambda bb: bb.preds), order)
