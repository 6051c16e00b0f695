"""The Baker type system.

Baker is deliberately small: 32/64-bit integers (the IXP is a 32-bit
machine; 64-bit values exist to model wide protocol fields such as MAC
addresses), booleans, fixed-size arrays, plain structs, packet handles and
channel references. There are no general pointers: packet handles are the
only pointer-like values, which keeps the language type-alias free (paper
section 2.3) and makes alias analysis trivial.

Memory layout notes
-------------------
Global and struct layout is *word-granular*: every scalar field occupies at
least one 32-bit word (u64 occupies two). This mirrors how hand-written IXP
code lays out application state -- SRAM and Scratch are word-addressed and
sub-word stores would require read-modify-write sequences. Sub-word types
(`u8`, `u16`) therefore only affect value range, not packing; dense bit
packing exists solely inside packets, where protocol fields may have
arbitrary bit widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

WORD_BYTES = 4


class Type:
    """Base class for Baker types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def is_bool(self) -> bool:
        return isinstance(self, BoolType)

    @property
    def is_scalar(self) -> bool:
        return isinstance(self, (IntType, BoolType))

    @property
    def is_packet(self) -> bool:
        return isinstance(self, PacketType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    def size_bytes(self) -> int:
        """Size of this type in word-granular storage (bytes)."""
        raise NotImplementedError("type %s has no storage size" % self)

    def size_words(self) -> int:
        return (self.size_bytes() + WORD_BYTES - 1) // WORD_BYTES


@dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    """An integer type. ``bits`` is the value width; storage is a word
    (two words for widths above 32)."""

    bits: int
    signed: bool

    def __str__(self) -> str:
        if self.signed:
            return "int" if self.bits == 32 else "i%d" % self.bits
        return "u%d" % self.bits

    def size_bytes(self) -> int:
        return 8 if self.bits > 32 else 4

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1


@dataclass(frozen=True)
class BoolType(Type):
    def __str__(self) -> str:
        return "bool"

    def size_bytes(self) -> int:
        return 4


@dataclass(frozen=True)
class PacketType(Type):
    """A packet handle whose current (outermost visible) protocol is
    ``protocol``; ``None`` means a raw handle of unknown protocol."""

    protocol: Optional[str]

    def __str__(self) -> str:
        return "%s_pkt*" % (self.protocol or "raw")


@dataclass(frozen=True)
class ChannelType(Type):
    def __str__(self) -> str:
        return "channel"


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type
    length: int

    def __str__(self) -> str:
        return "%s[%d]" % (self.element, self.length)

    def size_bytes(self) -> int:
        return self.element.size_bytes() * self.length


@dataclass
class StructField:
    name: str
    type: Type
    offset_bytes: int = 0


@dataclass
class StructType(Type):
    """A named struct; field offsets are word-granular, assigned in
    declaration order by :func:`layout_struct`."""

    name: str
    fields: List[StructField] = field(default_factory=list)
    _size_bytes: int = 0

    def __str__(self) -> str:
        return "struct %s" % self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and other.name == self.name

    def size_bytes(self) -> int:
        return self._size_bytes

    def field_by_name(self, name: str) -> Optional[StructField]:
        for f in self.fields:
            if f.name == name:
                return f
        return None


def layout_struct(struct: StructType) -> StructType:
    """Assign word-granular offsets to every field and set total size."""
    offset = 0
    for f in struct.fields:
        f.offset_bytes = offset
        offset += f.type.size_bytes()
    struct._size_bytes = offset
    return struct


# Canonical singletons ------------------------------------------------------

VOID = VoidType()
BOOL = BoolType()
INT = IntType(32, True)
U8 = IntType(8, False)
U16 = IntType(16, False)
U32 = IntType(32, False)
U64 = IntType(64, False)
CHANNEL = ChannelType()
RAW_PACKET = PacketType(None)

BASE_TYPES: Dict[str, Type] = {
    "void": VOID,
    "bool": BOOL,
    "int": INT,
    "uint": U32,
    "u8": U8,
    "u16": U16,
    "u32": U32,
    "u64": U64,
}


def integer_for_bits(bits: int) -> IntType:
    """The narrowest unsigned Baker value type holding a ``bits``-wide
    protocol field."""
    if bits <= 8:
        return U8
    if bits <= 16:
        return U16
    if bits <= 32:
        return U32
    if bits <= 64:
        return U64
    raise ValueError("protocol fields wider than 64 bits are not supported")


def common_arith_type(a: Type, b: Type) -> Type:
    """Usual-arithmetic-conversion analogue for Baker.

    Booleans promote to int; the result is 64-bit if either side is, and
    unsigned if either side is unsigned.
    """
    if a.is_bool:
        a = INT
    if b.is_bool:
        b = INT
    assert isinstance(a, IntType) and isinstance(b, IntType)
    bits = 64 if (a.bits > 32 or b.bits > 32) else 32
    signed = a.signed and b.signed
    return IntType(bits, signed)


def assignable(dst: Type, src: Type) -> bool:
    """Whether a value of ``src`` may be assigned to storage of ``dst``."""
    if dst == src:
        return True
    if dst.is_scalar and src.is_scalar:
        return True  # integer conversions are implicit (masked on store)
    if dst.is_packet and src.is_packet:
        dp, sp = dst.protocol, src.protocol  # type: ignore[union-attr]
        return dp is None or sp is None or dp == sp
    return False


@dataclass
class ProtocolField:
    """A named bit-field inside a protocol header."""

    name: str
    width_bits: int
    offset_bits: int = 0

    @property
    def value_type(self) -> IntType:
        return integer_for_bits(self.width_bits)


@dataclass
class Protocol:
    """A Baker ``protocol`` declaration: ordered bit-fields plus a demux
    expression giving the header size in bytes (evaluated per packet)."""

    name: str
    fields: List[ProtocolField] = field(default_factory=list)
    demux_expr: Optional[object] = None  # ast.Expr, evaluated over fields
    demux_const_bytes: Optional[int] = None  # set when demux is constant

    def field_by_name(self, name: str) -> Optional[ProtocolField]:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def assign_offsets(self) -> None:
        offset = 0
        for f in self.fields:
            f.offset_bits = offset
            offset += f.width_bits
