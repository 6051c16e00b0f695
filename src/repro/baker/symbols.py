"""Symbols and scopes for Baker name resolution."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baker.source import SourceLocation
from repro.baker.types import Protocol, StructType, Type


class SymbolKind(enum.Enum):
    CONST = "const"
    GLOBAL = "global"
    LOCAL = "local"
    PARAM = "param"
    FUNC = "func"
    PPF = "ppf"
    CHANNEL = "channel"
    PROTOCOL = "protocol"
    STRUCT = "struct"
    MODULE = "module"


@dataclass
class Symbol:
    kind: SymbolKind
    name: str
    type: Optional[Type] = None
    loc: Optional[SourceLocation] = None
    # Fully qualified name ("module.name" for module members).
    qualified: str = ""

    def __post_init__(self) -> None:
        if not self.qualified:
            self.qualified = self.name


@dataclass
class ConstSymbol(Symbol):
    value: int = 0


@dataclass
class GlobalSymbol(Symbol):
    """A global variable. ``memory`` is 'sram' for every program global;
    SWC creates its generation words with 'scratch'. ``shared`` disables
    SWC caching."""

    shared: bool = False
    module: Optional[str] = None
    init_values: Optional[List[int]] = None
    memory: str = "sram"
    address: Optional[int] = None  # assigned at link/load time


@dataclass
class LocalSymbol(Symbol):
    is_param: bool = False


@dataclass
class FuncSymbol(Symbol):
    param_types: List[Type] = field(default_factory=list)
    ret_type: Optional[Type] = None
    module: Optional[str] = None
    decl: Optional[object] = None  # ast.FuncDecl


@dataclass
class PpfSymbol(Symbol):
    module: Optional[str] = None
    decl: Optional[object] = None  # ast.PpfDecl
    input_channels: List[str] = field(default_factory=list)  # qualified names


@dataclass
class ChannelSymbol(Symbol):
    module: Optional[str] = None
    builtin: bool = False
    # Filled during wiring analysis:
    producers: List[str] = field(default_factory=list)  # qualified PPF names
    consumer: Optional[str] = None  # qualified PPF name


@dataclass
class ProtocolSymbol(Symbol):
    protocol: Optional[Protocol] = None


@dataclass
class StructSymbol(Symbol):
    struct: Optional[StructType] = None


class Scope:
    """A lexical scope; lookup walks outward through ``parent``."""

    def __init__(self, parent: Optional["Scope"] = None, name: str = ""):
        self.parent = parent
        self.name = name
        self._symbols: Dict[str, Symbol] = {}

    def declare(self, symbol: Symbol) -> Optional[Symbol]:
        """Declare ``symbol``; returns the previous same-name symbol in
        *this* scope if one exists (caller reports the duplicate)."""
        prev = self._symbols.get(symbol.name)
        self._symbols[symbol.name] = symbol
        return prev

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            sym = scope._symbols.get(name)
            if sym is not None:
                return sym
            scope = scope.parent
        return None

    def lookup_local(self, name: str) -> Optional[Symbol]:
        return self._symbols.get(name)

    def symbols(self) -> List[Symbol]:
        return list(self._symbols.values())
