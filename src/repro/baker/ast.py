"""AST node definitions for Baker.

Nodes are plain dataclasses. Every node carries a source location for
diagnostics. Expression nodes gain a ``type`` attribute during semantic
analysis; name nodes gain a resolved ``symbol``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.baker.source import SourceLocation
from repro.baker.types import Type


@dataclass
class Node:
    loc: SourceLocation


# -- Type expressions (resolved to repro.baker.types during semantics) ------


@dataclass
class TypeExpr(Node):
    """A syntactic type: either a base-type keyword, a struct name, or a
    packet-handle type ``<proto>_pkt *`` (is_packet=True)."""

    name: str
    is_packet: bool = False


# -- Expressions -------------------------------------------------------------


@dataclass
class Expr(Node):
    type: Optional[Type] = field(default=None, init=False)


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class Name(Expr):
    """A possibly-qualified identifier (``ident`` or ``module.ident``).

    Qualification is represented by the parser folding ``a.b`` into a
    Member node; semantic analysis rewrites module-qualified references
    back into Name nodes with ``qualifier`` set.
    """

    ident: str
    qualifier: Optional[str] = None
    symbol: Optional[object] = None  # repro.baker.symbols.Symbol


@dataclass
class Unary(Expr):
    op: str  # '-', '~', '!'
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: str  # '+','-','*','/','%','&','|','^','<<','>>','==','!=','<','<=','>','>=','&&','||'
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Ternary(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]


@dataclass
class Cast(Expr):
    target: TypeExpr = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Call(Expr):
    """A call to a user function or a builtin (``channel_put`` etc.).

    ``callee`` may be qualified (``module.func``) for cross-module support
    functions.
    """

    callee: str = ""
    qualifier: Optional[str] = None
    args: List[Expr] = field(default_factory=list)
    symbol: Optional[object] = None


@dataclass
class Index(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class Member(Expr):
    """``base.name`` (struct field / module qualification) or
    ``base->name`` (packet protocol field / ``->meta``)."""

    base: Expr = None  # type: ignore[assignment]
    name: str = ""
    arrow: bool = False


@dataclass
class SizeofExpr(Expr):
    """``sizeof(type-or-protocol-name)``; resolved to a constant."""

    name: str = ""


# -- Statements ---------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class LocalDecl(Stmt):
    type_expr: TypeExpr = None  # type: ignore[assignment]
    name: str = ""
    array_len: Optional[int] = None
    init: Optional[Expr] = None
    symbol: Optional[object] = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class Assign(Stmt):
    """``target op= value``; ``op`` is None for plain assignment, else the
    binary operator text ('+', '<<', ...)."""

    target: Expr = None  # type: ignore[assignment]
    op: Optional[str] = None
    value: Expr = None  # type: ignore[assignment]


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class DoWhile(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Critical(Stmt):
    """``critical (lockname) { ... }`` -- an explicitly identified critical
    section, the only concurrency construct Baker exposes (paper section 2)."""

    lock_name: str = ""
    body: Stmt = None  # type: ignore[assignment]


# -- Declarations -------------------------------------------------------------


@dataclass
class FieldDecl(Node):
    name: str = ""
    width_bits: int = 0


@dataclass
class ProtocolDecl(Node):
    name: str = ""
    fields: List[FieldDecl] = field(default_factory=list)
    demux: Optional[Expr] = None


@dataclass
class VarFieldDecl(Node):
    """A typed field inside ``struct`` or ``metadata`` blocks."""

    type_expr: TypeExpr = None  # type: ignore[assignment]
    name: str = ""
    array_len: Optional[int] = None


@dataclass
class StructDecl(Node):
    name: str = ""
    fields: List[VarFieldDecl] = field(default_factory=list)


@dataclass
class MetadataDecl(Node):
    fields: List[VarFieldDecl] = field(default_factory=list)


@dataclass
class ConstDecl(Node):
    type_expr: TypeExpr = None  # type: ignore[assignment]
    name: str = ""
    value: Expr = None  # type: ignore[assignment]


@dataclass
class GlobalDecl(Node):
    """A module-level or program-level variable. Program globals live in
    SRAM (only SWC's generation words are placed in Scratch; no pass
    moves a table there); ``shared`` marks data mutated from multiple
    aggregates (disables SWC caching)."""

    type_expr: TypeExpr = None  # type: ignore[assignment]
    name: str = ""
    array_len: Optional[int] = None
    init: Optional[List[Expr]] = None
    shared: bool = False
    module: Optional[str] = None


@dataclass
class Param(Node):
    type_expr: TypeExpr = None  # type: ignore[assignment]
    name: str = ""


@dataclass
class FuncDecl(Node):
    ret_type: TypeExpr = None  # type: ignore[assignment]
    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: Block = None  # type: ignore[assignment]
    module: Optional[str] = None


@dataclass
class PpfDecl(Node):
    """A packet processing function: consumes packets of protocol
    ``param_type`` from the channels in ``from_channels``."""

    name: str = ""
    param_type: TypeExpr = None  # type: ignore[assignment]
    param_name: str = ""
    from_channels: List[str] = field(default_factory=list)
    body: Block = None  # type: ignore[assignment]
    module: Optional[str] = None


@dataclass
class ChannelDecl(Node):
    names: List[str] = field(default_factory=list)
    module: Optional[str] = None


@dataclass
class InitDecl(Node):
    """Module initialization code; runs once on the XScale at boot."""

    body: Block = None  # type: ignore[assignment]
    module: Optional[str] = None


@dataclass
class ModuleDecl(Node):
    name: str = ""
    channels: List[ChannelDecl] = field(default_factory=list)
    ppfs: List[PpfDecl] = field(default_factory=list)
    funcs: List[FuncDecl] = field(default_factory=list)
    globals: List[GlobalDecl] = field(default_factory=list)
    consts: List[ConstDecl] = field(default_factory=list)
    inits: List[InitDecl] = field(default_factory=list)


@dataclass
class Program(Node):
    protocols: List[ProtocolDecl] = field(default_factory=list)
    metadata: Optional[MetadataDecl] = None
    structs: List[StructDecl] = field(default_factory=list)
    consts: List[ConstDecl] = field(default_factory=list)
    globals: List[GlobalDecl] = field(default_factory=list)
    funcs: List[FuncDecl] = field(default_factory=list)
    modules: List[ModuleDecl] = field(default_factory=list)
