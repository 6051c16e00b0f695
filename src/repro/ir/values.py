"""IR values: virtual registers (temps) and constants.

The IR is a typed three-address code. Operands are either :class:`Temp`
(virtual registers, unlimited supply per function) or :class:`Const`.
Types are shared with the Baker front-end (:mod:`repro.baker.types`);
packet handles and channel references are first-class value types so
packet primitives can remain analyzable IR operations.
"""

from __future__ import annotations

from typing import Union

from repro.baker import types as T


class Value:
    """Base class for IR operands."""

    type: T.Type


class Temp(Value):
    """A virtual register. Identity-based equality; ``id`` is unique within
    its function. ``hint`` carries a source-level name for readability."""

    __slots__ = ("id", "type", "hint")

    def __init__(self, id: int, type: T.Type, hint: str = ""):
        self.id = id
        self.type = type
        self.hint = hint

    def __repr__(self) -> str:
        if self.hint:
            return "%%%d<%s>" % (self.id, self.hint)
        return "%%%d" % self.id


class Const(Value):
    """An integer constant (also used for bool). Values are stored as
    arbitrary-precision ints; consumers mask to the type width."""

    __slots__ = ("value", "type")

    def __init__(self, value: int, type: T.Type = T.U32):
        self.value = value
        self.type = type

    def __repr__(self) -> str:
        if self.value >= 4096 or self.value < 0:
            return "#%#x" % self.value
        return "#%d" % self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other.value == self.value and other.type == self.type

    def __hash__(self) -> int:
        return hash((self.value, str(self.type)))


Operand = Union[Temp, Const]
