"""The functional profiler: a whole-system IR interpreter.

Paper section 4.1: *"the Function Profiler, which takes a user-supplied
packet trace, simulates the network application by interpreting the IR
nodes. During simulation, the Functional profiler collects global data
structure access frequencies, CC utilizations and relative PPF execution
times."*

The interpreter is also the compiler's semantic oracle: its transmitted
packets are the reference output that optimized code (and the ME
simulator) must reproduce, and it can execute post-optimization IR
(including PAC/SOAR/SWC forms) so every pass can be differentially
tested.

Execution is generated code (DESIGN.md section 5): the first time an
``Interpreter`` calls an IR function it writes the function out as one
Python function -- temps are Python locals, blocks are arms of one
dispatch -- and execs it; code objects are cached by their source text,
because one process interprets the same lowered module again and again
(under other traces and by other interpreters: the reference run of one
program over one trace happens once, :func:`reference_run`).
Fuel and profile counters are charged per block; each block counts its
executions, which :meth:`Interpreter.run_trace` charges to Baker source
lines (``profile.line_instrs``) once, at the end. Generated functions
belong to the ``Interpreter`` instance, never to the IR, which passes
mutate between runs; they take the interpreter as an argument instead of
capturing it, so generated code forms no reference cycle.
"""

from __future__ import annotations

import builtins
import re
from collections import Counter, deque
from functools import lru_cache
from operator import setitem
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Tuple

from repro.baker import types as T
from repro.baker.lowering import lower_program
from repro.baker.semantic import CheckedProgram
from repro.ir import instructions as I
from repro.ir.eval import EvalError, binop_fn, bits_of, cmp_fn
from repro.ir.module import BasicBlock, IRFunction, IRModule
from repro.ir.values import Const, Temp
from repro.profiler.hostpackets import HostPacket
from repro.profiler.stats import ProfileData
from repro.profiler.trace import Trace

_U32 = 0xFFFFFFFF


class InterpError(RuntimeError):
    pass


class GlobalMemory:
    """Byte-addressed big-endian storage for every global variable.

    Each global is ``size`` bytes at ``base`` in a byte store
    (``places[name] = (store, base, size)``), and every access is checked
    against its own ``size``. The profiler gives each global a bytearray
    holding its initializer; :meth:`on_chip` places them where the loader
    put them in simulated SRAM/Scratch, for the XScale and the control
    plane.
    """

    def __init__(self, mod: IRModule):
        self.places: Dict[str, Tuple[bytearray, int, int]] = {}
        for name, sym in mod.globals.items():
            size = sym.type.size_bytes()
            buf = bytearray(size)
            if sym.init_values:
                elem = sym.type.element if isinstance(sym.type, T.ArrayType) else sym.type
                esize = elem.size_bytes()
                for i, v in enumerate(sym.init_values):
                    buf[i * esize : (i + 1) * esize] = (v & ((1 << (esize * 8)) - 1)).to_bytes(
                        esize, "big"
                    )
            self.places[name] = (buf, 0, size)

    @classmethod
    def on_chip(cls, mod: IRModule, memory, layout) -> "GlobalMemory":
        """The globals of ``mod`` in a chip's ``memory`` (a
        :class:`repro.ixp.memory.MemorySystem`), at the addresses of the
        loader's ``layout``."""
        placed = cls.__new__(cls)
        placed.places = {
            name: (memory.stores[layout.global_space[name]],
                   layout.global_addr[name], sym.type.size_bytes())
            for name, sym in mod.globals.items()}
        return placed

    def image(self) -> Dict[str, bytes]:
        """Every global's current bytes."""
        return {name: bytes(store[base : base + size])
                for name, (store, base, size) in self.places.items()}

    def load(self, g: str, offset: int, width: int) -> int:
        store, base, size = self.places[g]
        if offset < 0 or offset + width > size:
            raise InterpError("out-of-bounds load of %s at %d" % (g, offset))
        return int.from_bytes(store[base + offset : base + offset + width], "big")

    def store(self, g: str, offset: int, value: int, width: int) -> None:
        store, base, size = self.places[g]
        if offset < 0 or offset + width > size:
            raise InterpError("out-of-bounds store of %s at %d" % (g, offset))
        store[base + offset : base + offset + width] = \
            (value & ((1 << (width * 8)) - 1)).to_bytes(width, "big")


class SystemResult:
    """Outcome of interpreting a trace through the whole program."""

    def __init__(self, tx: List[HostPacket], profile: ProfileData):
        self.tx = tx
        self.profile = profile

    def tx_payloads(self) -> List[bytes]:
        return [p.payload() for p in self.tx]

    def tx_signature(self) -> List[bytes]:
        """Order-insensitive signature for differential testing."""
        return sorted(self.tx_payloads())


# -- generate: one Python function per IR function --------------------------------
#
# The first time an Interpreter calls an IRFunction it writes the function
# out as Python source, ``def f(it, args)``, and execs it. Temps are Python
# locals, local arrays are bytearray locals, and the blocks are arms of a
# binary dispatch tree on a block index ``b`` inside one ``while True``.
# ``it`` is the running Interpreter, reached late so subclasses can swap
# ``globals``, ``profile`` and the packet/channel hooks. The classes that
# dominate execution (BinOp, Cmp, Assign, LoadG, PktLoadField, LoadL,
# StoreL) are written inline by their ``_EMITTERS`` row; every other class
# states its meaning as a function of operand *values* (``_MEANINGS``) and
# the arm calls it. Everything the text does not spell as a literal -- an
# instruction, a meaning, an arithmetic helper, the hit list -- is a
# global of the generated function, so equal texts share one code object.

def _mask(dst: Temp) -> int:
    return (1 << bits_of(dst.type)) - 1


def _call(it, i: I.Call, args):
    result = it._exec_function(it.mod.functions[i.func], args)
    return 0 if result is None else result


def _load_g_words(it, i: I.LoadGWords, off):
    words = [it.globals.load(i.g, off + n * 4, 4) for n in range(i.nwords)]
    it.profile.gstat(i.g).loads += 1
    return words


def _store_g(it, i: I.StoreG, off, value):
    it.globals.store(i.g, off, value, i.width)
    it.profile.gstat(i.g).stores += 1


def _pkt_load_words(it, i: I.PktLoadWords, pkt):
    raw = pkt.load_bytes(i.byte_off, i.nwords * 4)
    return [int.from_bytes(raw[n * 4 : n * 4 + 4], "big") for n in range(i.nwords)]


def _pkt_store_words(it, i: I.PktStoreWords, pkt, values):
    for n, word in enumerate(values):
        data = (word & _U32).to_bytes(4, "big")
        for b in range(4):
            if i.byte_masks[n] & (1 << (3 - b)):  # bit 3 = most-significant byte
                pkt.store_bytes(i.byte_off + n * 4 + b, data[b : b + 1])


def _pkt_encap(it, i: I.PktEncap, pkt):
    pkt.encap(i.header_bytes)
    return pkt


def _pkt_decap(it, i: I.PktDecap, pkt, delta=None):
    pkt.decap(i.header_bytes if delta is None else delta)
    return pkt


def _pkt_sync_head(it, i: I.PktSyncHead, pkt):
    if i.delta_bytes >= 0:
        pkt.decap(i.delta_bytes)
    else:
        pkt.encap(-i.delta_bytes)


def _chan_put(it, i: I.ChanPut, pkt):
    it.profile.channel_puts[i.channel] += 1
    it._emit_channel(i.channel, pkt)


_MEANINGS: Dict[type, Callable[..., object]] = {
    I.Call: _call, I.LoadGWords: _load_g_words, I.StoreG: _store_g,
    I.PktStoreField: lambda it, i, pkt, value: pkt.store_bits(i.bit_off, i.bit_width, value),
    I.PktLoadWords: _pkt_load_words, I.PktStoreWords: _pkt_store_words,
    I.MetaLoad: lambda it, i, pkt: pkt.meta.get(i.word, 0),
    I.MetaStore: lambda it, i, pkt, value: setitem(pkt.meta, i.word, value & _U32),
    I.PktEncap: _pkt_encap, I.PktDecap: _pkt_decap,
    I.PktCopy: lambda it, i, pkt: pkt.copy(),
    I.PktDrop: lambda it, i, pkt: it._drop_packet(pkt),
    I.PktCreate: lambda it, i, length: it._new_packet(i.header_bytes + length),
    I.PktLength: lambda it, i, pkt: pkt.length,
    I.PktAdjust: lambda it, i, pkt, amount: getattr(pkt, i.op)(amount),
    I.PktSyncHead: _pkt_sync_head, I.ChanPut: _chan_put,
    # Locks: the functional model is single-threaded.
    I.LockAcquire: lambda it, i: None, I.LockRelease: lambda it, i: None,
    I.LmLoad: lambda it, i, index: it.local_mem.get(index, 0),
    I.LmStore: lambda it, i, index, value: setitem(it.local_mem, index, value & _U32),
    I.LoadResident: lambda it, i, index: it.globals.load(
        i.g, ((index + i.word) * 4) & _U32, i.width),
    I.LmFill: lambda it, i: it.local_mem.update(
        (i.replica + k, it.globals.load(i.g, k * 4, 4)) for k in range(i.words)),
}


class _Source:
    """The text of one IR function's generated Python function, and the
    objects that text names: temps get ``t<n>``, local arrays ``a<n>``,
    other objects ``K<n>``, each numbered in order of first mention, and
    blocks their dispatch index in order of first reference from the
    entry (so a block no terminator reaches is never written)."""

    def __init__(self, fn: IRFunction):
        self.fn = fn
        self.temps: Dict[Temp, str] = {}
        self.arrays = {name: ("a%d" % n, arr.size_bytes)
                       for n, (name, arr) in enumerate(fn.local_arrays.items())}
        self.objects: Dict[int, Tuple[str, object]] = {}
        self.blocks: List[BasicBlock] = []
        self.index: Dict[BasicBlock, int] = {}

    def temp(self, t: Temp) -> str:
        name = self.temps.get(t)
        if name is None:
            name = self.temps[t] = "t%d" % len(self.temps)
        return name

    def val(self, x) -> str:
        """The expression of an operand (or list of operands)."""
        if isinstance(x, list):
            return "[%s]" % ", ".join(self.val(e) for e in x)
        if isinstance(x, Const):
            return "(%d)" % x.value if x.value < 0 else "%d" % x.value
        return self.temp(x)

    def obj(self, o: object) -> str:
        got = self.objects.get(id(o))
        if got is None:
            got = self.objects[id(o)] = ("K%d" % len(self.objects), o)
        return got[0]

    def block(self, bb: BasicBlock) -> int:
        k = self.index.get(bb)
        if k is None:
            k = self.index[bb] = len(self.blocks)
            self.blocks.append(bb)
        return k

    def arm(self, bb: BasicBlock, k: int) -> List[str]:
        """Block ``k``'s arm. An instruction or terminator with no meaning
        makes the arm one ``raise``: a block that never runs never raises."""
        body = []
        for instr in bb.instrs:
            emit = _EMITTERS.get(type(instr))
            if emit is not None:
                body += emit(self, instr)
            elif type(instr) in _MEANINGS:
                body += self.generic(instr, _MEANINGS[type(instr)])
            else:
                return ["raise IE(%r)" % ("cannot interpret %r" % instr)]
        end = self.terminator(bb.terminator)
        if end is None:
            return ["raise IE(%r)" % ("bad terminator %r" % bb.terminator)]
        # The whole block (terminator included) is charged up front.
        return ["H[%d] += 1" % k, "fu -= %d" % (len(bb.instrs) + 1),
                "if fu <= 0:",
                "    raise IE('interpreter fuel exhausted (infinite loop?)')"] + body + end

    def terminator(self, term) -> Optional[List[str]]:
        kind = type(term)
        if kind is I.Jump:
            return ["b = %d" % self.block(term.target)]
        if kind is I.Branch:
            if isinstance(term.cond, Const):
                taken = term.then_bb if term.cond.value != 0 else term.else_bb
                return ["b = %d" % self.block(taken)]
            return ["b = %d if %s != 0 else %d" % (
                self.block(term.then_bb), self.val(term.cond), self.block(term.else_bb))]
        if kind is I.Ret:
            return ["return %s" % ("None" if term.value is None else self.val(term.value))]
        return None

    def generic(self, i: I.Instr, meaning: Callable[..., object]) -> List[str]:
        """``meaning(it, i, *operand values)``, operands in the class's
        ``_uses`` order (None: optional, absent). What it returns goes to
        ``dst`` (an int wrapped to the temp's width, a packet handle as
        is) or word by word to ``dsts``. A Call hands the fuel to its
        callee and takes back what is left."""
        operands = [getattr(i, attr) for attr in i._uses]
        args = ["it", self.obj(i)] + [self.val(x) for x in operands if x is not None]
        call = "%s(%s)" % (self.obj(meaning), ", ".join(args))
        dsts = i.defs()
        if not dsts:
            lines = [call]
        elif "dsts" in i._defs:
            lines = ["_w = " + call] + ["%s = _w[%d] & %#x" % (self.temp(d), n, _mask(d))
                                         for n, d in enumerate(dsts)]
        else:
            (dst,) = dsts
            lines = ["_v = " + call, "%s = _v & %#x if isinstance(_v, int) else _v"
                     % (self.temp(dst), _mask(dst))]
        if type(i) is I.Call:
            lines = ["it.fuel = fu", "try:", "    " + lines[0],
                     "finally:", "    fu = it.fuel"] + lines[1:]
        return lines

    def text(self) -> str:
        """Write every reachable block; return the function's source."""
        self.block(self.fn.entry)
        arms = []
        while len(arms) < len(self.blocks):
            arms.append(self.arm(self.blocks[len(arms)], len(arms)))
        head = ["def f(it, args):"]
        if self.fn.params:
            head.append("    %s, = args" % ", ".join(self.temp(p) for p in self.fn.params))
        head += ["    %s = bytearray(%d)" % place for place in self.arrays.values()]
        head += ["    fu = it.fuel", "    b = 0", "    try:", "        while True:"]
        return "\n".join(head + _dispatch(arms, 0, len(arms), " " * 12)
                         + ["    finally:", "        it.fuel = fu", ""])


def _dispatch(arms: List[List[str]], lo: int, hi: int, indent: str) -> List[str]:
    """Arms ``lo``..``hi - 1`` as a binary tree of ``if b < mid``."""
    if hi - lo == 1:
        return [indent + line for line in arms[lo]]
    mid = (lo + hi) // 2
    inner = indent + "    "
    return ([indent + "if b < %d:" % mid] + _dispatch(arms, lo, mid, inner)
            + [indent + "else:"] + _dispatch(arms, mid, hi, inner))


# -- inline emitters ------------------------------------------------------------------

def _emit_binop(src: _Source, i: I.BinOp) -> List[str]:
    bits = bits_of(i.dst.type)
    mask, shift = (1 << bits) - 1, bits - 1
    a, b = src.val(i.a), src.val(i.b)
    if isinstance(i.b, Const):
        amount = "%d" % (i.b.value & shift)
    else:
        amount = "(%s & %d)" % (b, shift)
    expr = {
        "add": "(%s + %s) & %#x" % (a, b, mask),
        "sub": "(%s - %s) & %#x" % (a, b, mask),
        "mul": "(%s * %s) & %#x" % (a, b, mask),
        "and": "%s & %s & %#x" % (a, b, mask),
        "or": "(%s | %s) & %#x" % (a, b, mask),
        "xor": "(%s ^ %s) & %#x" % (a, b, mask),
        "shl": "(%s << %s) & %#x" % (a, amount, mask),
        "lshr": "(%s & %#x) >> %s" % (a, mask, amount),
    }.get(i.op)
    if expr is None:  # ashr, div, rem
        expr = "%s(%s, %s)" % (src.obj(binop_fn(i.op, bits)), a, b)
    return ["%s = %s" % (src.temp(i.dst), expr)]


_CMP_OPS = {"eq": "==", "ne": "!=", "lt_u": "<", "le_u": "<=", "gt_u": ">", "ge_u": ">="}


def _emit_cmp(src: _Source, i: I.Cmp) -> List[str]:
    if i.op not in ("eq", "ne") and (i.a.type.is_packet or i.b.type.is_packet):
        return ["raise IE('ordered comparison of packet handles')"]
    # eq/ne need no packet case: handles compare by identity (same
    # metadata address), which is what == on them does.
    a, b = src.val(i.a), src.val(i.b)
    if i.op in _CMP_OPS:
        expr = "1 if %s %s %s else 0" % (a, _CMP_OPS[i.op], b)
    else:
        bits = max(bits_of(i.a.type), bits_of(i.b.type))
        expr = "%s(%s, %s)" % (src.obj(cmp_fn(i.op, bits)), a, b)
    return ["%s = %s" % (src.temp(i.dst), expr)]


def _emit_assign(src: _Source, i: I.Assign) -> List[str]:
    dst, value, mask = src.temp(i.dst), src.val(i.src), _mask(i.dst)
    if isinstance(i.src, Const):
        return ["%s = %d" % (dst, i.src.value & mask)]
    if i.src.type.is_packet or i.dst.type.is_packet:
        return ["%s = %s" % (dst, value)]  # a packet handle passes through unmasked
    return ["%s = %s & %#x" % (dst, value, mask)]


def _emit_load_g(src: _Source, i: I.LoadG) -> List[str]:
    return ["%s = it.globals.load(%r, %s, %d) & %#x" % (src.temp(i.dst), i.g, src.val(i.offset),
                                                        i.width, _mask(i.dst)),
            "it.profile.gstat(%r).loads += 1" % i.g]


def _emit_pkt_load_field(src: _Source, i: I.PktLoadField) -> List[str]:
    # The handle is parenthesized so that a constant one still parses.
    return ["%s = (%s).load_bits(%d, %d) & %#x" % (src.temp(i.dst), src.val(i.ph), i.bit_off,
                                                   i.bit_width, _mask(i.dst))]


def _emit_local(src: _Source, i) -> List[str]:
    """LoadL / StoreL, after the bounds check against the array's size."""
    if i.array not in src.arrays:
        return ["raise IE(%r)" % ("cannot interpret %r" % i)]
    array, size = src.arrays[i.array]
    off, width = src.val(i.offset), i.width
    fault = "raise IE(%r)" % ("%s: out-of-bounds local access" % src.fn.name)
    if isinstance(i.offset, Const):
        lines = [] if 0 <= i.offset.value <= size - width else [fault]
    else:
        lines = ["if %s < 0 or %s > %d:" % (off, off, size - width), "    " + fault]
    where = "%s[%s:%s + %d]" % (array, off, off, width)
    if isinstance(i, I.LoadL):
        return lines + ["%s = int.from_bytes(%s, 'big') & %#x"
                        % (src.temp(i.dst), where, _mask(i.dst))]
    return lines + ["%s = (%s & %#x).to_bytes(%d, 'big')"
                    % (where, src.val(i.value), (1 << (width * 8)) - 1, width)]


_EMITTERS: Dict[type, Callable[[_Source, I.Instr], List[str]]] = {
    I.Assign: _emit_assign, I.BinOp: _emit_binop, I.Cmp: _emit_cmp, I.LoadG: _emit_load_g,
    I.PktLoadField: _emit_pkt_load_field, I.LoadL: _emit_local, I.StoreL: _emit_local,
}


@lru_cache(maxsize=1024)
def _code_of(text: str) -> CodeType:
    """The code object of a generated function, cached by its text: every
    level of one source lowers to the same module, and every reference
    run lowers it again, so one process interprets the same text many
    times over."""
    module = compile(text, "<interpreter>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


class Interpreter:
    """Interprets an IRModule; reusable across traces (but not across
    edits of the module: generated functions are kept for the instance's
    life)."""

    def __init__(self, mod: IRModule, fuel: int = 50_000_000):
        self.mod = mod
        self.globals = GlobalMemory(mod)
        self.profile = ProfileData()
        self.fuel = fuel
        self._ppf_by_channel: Dict[str, str] = {}
        for fn in mod.ppfs():
            for chan in fn.input_channels:
                self._ppf_by_channel[chan] = fn.name
        self._queue: deque = deque()
        self.tx: List[HostPacket] = []
        # Local Memory (one logical ME for functional runs).
        self.local_mem: Dict[int, int] = {}
        # fn -> (generated function, hits per block, instructions per
        # source line per block, temp of each local name)
        self._code: Dict[IRFunction, tuple] = {}

    # -- public API ---------------------------------------------------------------

    def run_inits(self) -> None:
        """Execute every module init block (the paper runs these on the
        XScale at boot). Boot-time activity is excluded from the profile:
        the functional profiler measures the packet trace only."""
        saved = self.profile
        self.profile = ProfileData()
        try:
            for fn in self.mod.inits():
                self._exec_function(fn, [])
        finally:
            self.profile = saved
            self._charge_lines(None)

    def run_trace(self, trace: Trace) -> SystemResult:
        """Feed every trace packet through rx and drain all channels."""
        rx_consumer = self._ppf_by_channel.get("rx")
        if rx_consumer is None:
            raise InterpError("no PPF consumes 'rx'")
        for tp in trace:
            self.profile.packets_in += 1
            pkt = HostPacket(tp.data, rx_port=tp.rx_port)
            self._deliver(rx_consumer, pkt)
            while self._queue:
                chan, qpkt = self._queue.popleft()
                self._deliver(self._ppf_by_channel[chan], qpkt)
        self._charge_lines(self.profile.line_instrs)
        return SystemResult(self.tx, self.profile)

    def call(self, name: str, args: List[object]) -> object:
        """Call one function directly (unit-testing convenience)."""
        return self._exec_function(self.mod.functions[name], list(args))

    # -- dispatch -----------------------------------------------------------------

    def _deliver(self, ppf_name: str, pkt: HostPacket) -> None:
        """Run one PPF on one packet, charging it the instructions (the
        fuel) the delivery consumed, callees included."""
        fn = self.mod.functions[ppf_name]
        self.profile.ppf_invocations[ppf_name] += 1
        fuel = self.fuel
        try:
            self._exec_function(fn, [pkt])
        finally:
            self.profile.ppf_instrs[ppf_name] += fuel - self.fuel

    # -- execution ---------------------------------------------------------------------

    def _generate(self, fn: IRFunction) -> tuple:
        src = _Source(fn)
        code = _code_of(src.text())
        hits = [0] * len(src.blocks)
        names = {"__builtins__": builtins, "IE": InterpError, "H": hits}
        names.update(src.objects.values())
        lines = [tuple(Counter((i.loc.filename, i.loc.line)
                               for i in bb.instrs if i.loc is not None).items())
                 for bb in src.blocks]
        entry = self._code[fn] = (FunctionType(code, names), hits, lines,
                                  {name: t for t, name in src.temps.items()})
        return entry

    def _charge_lines(self, line_instrs: Optional[Counter]) -> None:
        """Charge every block's runs since the last call to its source
        lines in ``line_instrs`` (None: discard them)."""
        for _, hits, lines, _ in self._code.values():
            for k, runs in enumerate(hits):
                if runs:
                    if line_instrs is not None:
                        for where, n in lines[k]:
                            line_instrs[where] += runs * n
                    hits[k] = 0

    def _exec_function(self, fn: IRFunction, args: List[object]) -> object:
        if len(args) != len(fn.params):
            raise InterpError("%s: expected %d args" % (fn.name, len(fn.params)))
        self.profile.func_invocations[fn.name] += 1
        run, _, _, temps = self._code.get(fn) or self._generate(fn)
        try:
            return run(self, args)
        except NameError as exc:
            # An unassigned temp: a local read before it is written, or a
            # name no line of the function assigns (so Python reads a global).
            name = re.search(r"'(\w+)'", str(exc))
            if name is None or name.group(1) not in temps:
                raise
            raise InterpError("use of undefined temp %r" % temps[name.group(1)]) from None
        except EvalError as exc:
            raise InterpError(str(exc)) from None
        except (ValueError, IndexError) as exc:
            # A packet fault (HostPacket: past the buffer, no headroom).
            raise InterpError("%s: %s" % (fn.name, exc)) from None

    # -- integration hooks (overridden by the simulated-XScale executor) -----------

    def _emit_channel(self, channel: str, pkt) -> None:
        if channel == "tx":
            self.profile.packets_out += 1
            self.tx.append(pkt)
        else:
            self._queue.append((channel, pkt))

    def _drop_packet(self, pkt) -> None:
        pkt.dropped = True
        self.profile.packets_dropped += 1

    def _new_packet(self, size: int):
        return HostPacket(bytes(size))


def run_reference(mod: IRModule, trace: Trace) -> SystemResult:
    """Convenience: init globals, run init blocks, feed the trace."""
    interp = Interpreter(mod)
    interp.run_inits()
    return interp.run_trace(trace)


def reference_run(checked: CheckedProgram, trace: Trace,
                  lowered: Optional[IRModule] = None) -> SystemResult:
    """``run_reference(lower_program(checked), trace)``, once per process.

    The profile is taken from the unoptimized program (paper section
    4.1), so every optimization level of one source over one trace has
    the same reference run: the compiler's profile and the oracle's
    expected Tx. The last few runs are kept, keyed by the checked program
    (by identity: ``repro.baker.parse_and_check`` hands out one object
    per text and filename) and by the trace's contents (every packet's
    ``data`` and ``rx_port``), so a rebuilt trace with equal packets is a
    hit and one changed byte is not. ``lowered``, if given, must be a
    ``lower_program(checked)`` no pass has touched yet; a miss interprets
    it instead of lowering again. The result is shared by every caller
    with the same key: read it, never mutate it."""
    key = (checked, tuple((bytes(p.data), p.rx_port) for p in trace.packets))
    run = _reference_runs.pop(key, None)
    if run is None:
        run = run_reference(lowered if lowered is not None
                            else lower_program(checked), trace)
    _reference_runs[key] = run  # newest last
    if len(_reference_runs) > _REFERENCE_RUNS_KEPT:
        del _reference_runs[next(iter(_reference_runs))]
    return run


#: How many reference runs a process keeps (a constant, not a knob).
_REFERENCE_RUNS_KEPT = 8
_reference_runs: Dict[tuple, SystemResult] = {}
