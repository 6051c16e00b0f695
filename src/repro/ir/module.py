"""IR containers: basic blocks, functions and the module."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.baker import types as T
from repro.baker.symbols import GlobalSymbol
from repro.ir.instructions import Instr, Jump, Ret
from repro.ir.values import Temp

if TYPE_CHECKING:  # semantic folds constants through repro.ir.eval
    from repro.baker.semantic import CheckedProgram


class BasicBlock:
    """A straight-line instruction sequence ending in one terminator.

    ``instrs`` excludes the terminator, which is stored separately in
    ``terminator`` so passes can iterate body instructions without
    worrying about control flow edges.
    """

    def __init__(self, label: str):
        self.label = label
        self.instrs: List[Instr] = []
        self.terminator: Optional[Instr] = None
        # Filled by cfg.compute_cfg():
        self.preds: List["BasicBlock"] = []
        self.succs: List["BasicBlock"] = []

    def append(self, instr: Instr) -> None:
        assert self.terminator is None, "appending to a terminated block"
        assert not instr.is_terminator
        self.instrs.append(instr)

    def terminate(self, instr: Instr) -> None:
        assert instr.is_terminator
        if self.terminator is None:
            self.terminator = instr

    @property
    def terminated(self) -> bool:
        return self.terminator is not None

    def all_instrs(self) -> Iterator[Instr]:
        yield from self.instrs
        if self.terminator is not None:
            yield self.terminator

    def successors(self) -> List["BasicBlock"]:
        if self.terminator is None:
            return []
        return self.terminator.successors()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return "<bb %s>" % self.label


@dataclass
class LocalArray:
    """A stack-allocated local array (word-granular layout)."""

    name: str
    element: T.Type
    length: int

    @property
    def size_bytes(self) -> int:
        return self.element.size_bytes() * self.length


class IRFunction:
    """One function, PPF or init body in IR form."""

    def __init__(
        self,
        name: str,
        kind: str,  # 'func' | 'ppf' | 'init'
        ret_type: T.Type = T.VOID,
        module: Optional[str] = None,
    ):
        assert kind in ("func", "ppf", "init")
        self.name = name
        self.kind = kind
        self.ret_type = ret_type
        self.module = module
        self.params: List[Temp] = []
        self.blocks: List[BasicBlock] = []
        self.local_arrays: Dict[str, LocalArray] = {}
        self.input_channels: List[str] = []  # PPFs only
        # PPFs only: opt.phr.PacketStatePlan when the code generator is to
        # keep the packet parameter's metadata in registers.
        self.packet_state = None
        self._next_temp = 0
        self._next_label = 0

    # -- construction helpers -------------------------------------------------

    def new_temp(self, type_: T.Type, hint: str = "") -> Temp:
        t = Temp(self._next_temp, type_, hint)
        self._next_temp += 1
        return t

    def new_block(self, hint: str = "bb") -> BasicBlock:
        bb = BasicBlock("%s%d" % (hint, self._next_label))
        self._next_label += 1
        self.blocks.append(bb)
        return bb

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def all_instrs(self) -> Iterator[Instr]:
        for bb in self.blocks:
            yield from bb.all_instrs()

    def instr_count(self) -> int:
        return sum(1 for _ in self.all_instrs())

    def ensure_terminated(self) -> None:
        """Give any fall-off blocks an explicit return (void functions)."""
        for bb in self.blocks:
            if bb.terminator is None:
                bb.terminate(Ret(None))

    def __repr__(self) -> str:
        return "<IRFunction %s (%s)>" % (self.name, self.kind)


class IRModule:
    """The whole-program IR: all functions plus the front-end tables the
    mid-end needs (globals, protocols, channels, metadata layout)."""

    def __init__(self, checked: CheckedProgram):
        self.checked = checked
        self.functions: Dict[str, IRFunction] = {}
        self.globals: Dict[str, GlobalSymbol] = dict(checked.globals)
        self.protocols = checked.protocols
        self.channels = checked.channels
        self.meta_fields = checked.meta_fields
        self.meta_words = checked.meta_words
        self.locks = list(checked.locks)

    def add(self, fn: IRFunction) -> None:
        assert fn.name not in self.functions, fn.name
        self.functions[fn.name] = fn

    def ppfs(self) -> List[IRFunction]:
        return [f for f in self.functions.values() if f.kind == "ppf"]

    def funcs(self) -> List[IRFunction]:
        return [f for f in self.functions.values() if f.kind == "func"]

    def inits(self) -> List[IRFunction]:
        return [f for f in self.functions.values() if f.kind == "init"]

    def __repr__(self) -> str:
        return "<IRModule %d functions>" % len(self.functions)
