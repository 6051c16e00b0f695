"""Shared evaluation semantics for IR arithmetic.

Both the functional interpreter and the constant folder evaluate through
:func:`binop_fn` / :func:`cmp_fn` at the width :func:`bits_of` gives,
so compile-time folding can never disagree with runtime evaluation. The
interpreter binds the returned function into its decoded instruction
once; the folder goes through the :func:`eval_binop` / :func:`eval_cmp`
conveniences.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.baker import types as T


class EvalError(ArithmeticError):
    pass


def bits_of(type_: T.Type) -> int:
    """The width a value of ``type_`` is evaluated at (handles: 32)."""
    if isinstance(type_, T.IntType):
        return type_.bits
    if type_.is_bool:
        return 1
    return 32


def to_signed(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    value &= (1 << bits) - 1
    return value - (1 << bits) if value & sign else value


@lru_cache(maxsize=None)
def binop_fn(op: str, bits: int) -> Callable[[int, int], int]:
    """``f(a, b)`` evaluating BinOp ``op``; the result is masked to
    ``bits``. Signed division truncates toward zero and wraps
    (INT_MIN / -1 == INT_MIN, the C-on-IXP behaviour)."""
    mask = (1 << bits) - 1
    shift = bits - 1

    def div_u(a: int, b: int) -> int:
        if b == 0:
            raise EvalError("division by zero")
        return ((a & mask) // (b & mask)) & mask

    def rem_u(a: int, b: int) -> int:
        if b == 0:
            raise EvalError("division by zero")
        return ((a & mask) % (b & mask)) & mask

    def div_s(a: int, b: int) -> int:
        sa, sb = to_signed(a, bits), to_signed(b, bits)
        if sb == 0:
            raise EvalError("division by zero")
        q = abs(sa) // abs(sb)
        return (-q if (sa < 0) != (sb < 0) else q) & mask

    def rem_s(a: int, b: int) -> int:
        sa, sb = to_signed(a, bits), to_signed(b, bits)
        if sb == 0:
            raise EvalError("division by zero")
        r = abs(sa) % abs(sb)
        return (-r if sa < 0 else r) & mask

    table = {
        "add": lambda a, b: (a + b) & mask,
        "sub": lambda a, b: (a - b) & mask,
        "mul": lambda a, b: (a * b) & mask,
        "and": lambda a, b: a & b & mask,
        "or": lambda a, b: (a | b) & mask,
        "xor": lambda a, b: (a ^ b) & mask,
        "shl": lambda a, b: (a << (b & shift)) & mask,
        "lshr": lambda a, b: (a & mask) >> (b & shift),
        "ashr": lambda a, b: (to_signed(a, bits) >> (b & shift)) & mask,
        "div_u": div_u, "rem_u": rem_u, "div_s": div_s, "rem_s": rem_s,
    }
    if op not in table:
        raise EvalError("unknown binop %r" % op)
    return table[op]


@lru_cache(maxsize=None)
def cmp_fn(op: str, bits: int) -> Callable[[int, int], int]:
    """``f(a, b)`` evaluating Cmp ``op`` to 0/1; ``bits`` is the width
    used for signed reinterpretation."""
    if op == "eq":
        return lambda a, b: int(a == b)
    if op == "ne":
        return lambda a, b: int(a != b)
    base = op[:2]
    if op.endswith("_s"):
        # Flipping the sign bit maps two's-complement order onto
        # unsigned order, which saves two to_signed calls per compare.
        mask, sign = (1 << bits) - 1, 1 << (bits - 1)
        table = {
            "lt": lambda a, b: int(((a & mask) ^ sign) < ((b & mask) ^ sign)),
            "le": lambda a, b: int(((a & mask) ^ sign) <= ((b & mask) ^ sign)),
            "gt": lambda a, b: int(((a & mask) ^ sign) > ((b & mask) ^ sign)),
            "ge": lambda a, b: int(((a & mask) ^ sign) >= ((b & mask) ^ sign)),
        }
    else:
        table = {
            "lt": lambda a, b: int(a < b),
            "le": lambda a, b: int(a <= b),
            "gt": lambda a, b: int(a > b),
            "ge": lambda a, b: int(a >= b),
        }
    if base not in table:
        raise EvalError("unknown cmp %r" % op)
    return table[base]


def eval_binop(op: str, a: int, b: int, bits: int) -> int:
    """Evaluate a BinOp; result is masked to ``bits``."""
    return binop_fn(op, bits)(a, b)


def eval_cmp(op: str, a: int, b: int, bits: int) -> int:
    """Evaluate a Cmp; ``bits`` is the width used for signed reinterpretation."""
    return cmp_fn(op, bits)(a, b)
