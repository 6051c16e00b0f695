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

Execution is threaded code (DESIGN.md section 5): the first time a basic
block runs it is decoded into closures ``op(interp, env)`` with everything
static settled once, and fuel and profile counters are charged per block;
each block counts its executions, which :meth:`Interpreter.run_trace`
charges to Baker source lines (``profile.line_instrs``) once, at the end.
Decoded blocks belong to the ``Interpreter`` instance, never to the IR,
which passes mutate between runs; the closures take the interpreter as an
argument instead of capturing it, so decoded code forms no reference cycle.
"""

from __future__ import annotations

from collections import Counter, deque
from operator import setitem
from typing import Callable, Dict, List, Optional, Tuple

from repro.baker import types as T
from repro.ir import instructions as I
from repro.ir.eval import EvalError, binop_fn, cmp_fn
from repro.ir.module import BasicBlock, IRFunction, IRModule
from repro.ir.values import Const, Operand, Temp
from repro.profiler.hostpackets import HostPacket
from repro.profiler.stats import ProfileData
from repro.profiler.trace import Trace

_U32 = 0xFFFFFFFF


class InterpError(RuntimeError):
    pass


def _bits_of(type_: T.Type) -> int:
    if isinstance(type_, T.IntType):
        return type_.bits
    if type_.is_bool:
        return 1
    return 32


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


# -- decode: one closure per instruction -----------------------------------------
#
# A decoder takes (instr, fn) and returns ``op(it, env)``: ``it`` is the
# running Interpreter (reached late, so subclasses can swap ``globals`` and
# the packet/channel hooks), ``env`` maps Temps to values and local-array
# names to their bytearrays. The classes that dominate execution (BinOp,
# Cmp, Assign, LoadG, PktLoadField: over 90 % of interpreted instructions)
# have their own closures; every other class states its meaning as a
# function of operand *values* and ``_generic`` does the plumbing.

Env = Dict[object, object]
Op = Callable[["Interpreter", Env], None]


def _mask(dst: Temp) -> int:
    return (1 << _bits_of(dst.type)) - 1


def _getter(x) -> Callable[[Env], object]:
    """``env -> value`` of an operand (or list of operands)."""
    if isinstance(x, list):
        gets = [_getter(e) for e in x]
        return lambda env: [get(env) for get in gets]
    if isinstance(x, Const):
        k = x.value
        return lambda env: k
    return lambda env: env[x]


def _apply(f: Callable[[object, object], object], dst: Temp,
           a: Operand, b: Operand) -> Op:
    """``env[dst] = f(a, b)``, specialised for the two common operand
    shapes: temp-temp and temp-constant."""
    if isinstance(a, Const):
        get_a, get_b = _getter(a), _getter(b)

        def op(it, env):
            env[dst] = f(get_a(env), get_b(env))
    elif isinstance(b, Const):
        kb = b.value

        def op(it, env):
            env[dst] = f(env[a], kb)
    else:
        def op(it, env):
            env[dst] = f(env[a], env[b])
    return op


def _binop(i: I.BinOp, fn) -> Op:
    return _apply(binop_fn(i.op, _bits_of(i.dst.type)), i.dst, i.a, i.b)


def _cmp(i: I.Cmp, fn) -> Op:
    if i.op not in ("eq", "ne") and (i.a.type.is_packet or i.b.type.is_packet):
        def op(it, env):
            raise InterpError("ordered comparison of packet handles")
        return op
    # eq/ne need no packet case: handles compare by identity (same
    # metadata address), which is what == on them does.
    bits = max(_bits_of(i.a.type), _bits_of(i.b.type))
    return _apply(cmp_fn(i.op, bits), i.dst, i.a, i.b)


def _assign(i: I.Assign, fn) -> Op:
    dst, src, mask = i.dst, i.src, _mask(i.dst)
    if isinstance(src, Const):
        k = src.value & mask

        def op(it, env):
            env[dst] = k
    else:
        def op(it, env):
            v = env[src]  # a packet handle passes through unmasked
            env[dst] = v & mask if isinstance(v, int) else v
    return op


def _load_g(i: I.LoadG, fn) -> Op:
    dst, g, width, mask, offset = i.dst, i.g, i.width, _mask(i.dst), _getter(i.offset)

    def op(it, env):
        off = offset(env)
        env[dst] = it.globals.load(g, off, width) & mask
        stat = it.profile.gstat(g)
        stat.loads += 1
        stat.load_offsets[off] += 1
    return op


def _pkt_load_field(i: I.PktLoadField, fn) -> Op:
    dst, ph, bit_off, bit_width, mask = i.dst, i.ph, i.bit_off, i.bit_width, _mask(i.dst)

    def op(it, env):
        env[dst] = env[ph].load_bits(bit_off, bit_width) & mask
    return op


def _local(i, fn) -> Op:
    """LoadL / StoreL: the activation's arrays live in ``env`` under
    their names."""
    array, width, offset = i.array, i.width, _getter(i.offset)

    def locate(env):
        buf, off = env[array], offset(env)
        if off < 0 or off + width > len(buf):
            raise InterpError("%s: out-of-bounds local access" % fn.name)
        return buf, off

    if isinstance(i, I.LoadL):
        dst, mask = i.dst, _mask(i.dst)

        def op(it, env):
            buf, off = locate(env)
            env[dst] = int.from_bytes(buf[off : off + width], "big") & mask
    else:
        value, vmask = _getter(i.value), (1 << (width * 8)) - 1

        def op(it, env):
            buf, off = locate(env)
            buf[off : off + width] = (value(env) & vmask).to_bytes(width, "big")
    return op


def _generic(meaning: Callable[..., object]) -> Callable[[I.Instr, IRFunction], Op]:
    """Decoder for a class whose semantics is ``meaning(it, instr,
    *operand values)``, operands in the class's ``_uses`` order. What it
    returns goes to the instruction's ``dst`` (an int wrapped to the
    temp's width, a packet handle as is) or word by word to its ``dsts``."""
    def decode(i: I.Instr, fn) -> Op:
        operands = [getattr(i, attr) for attr in i._uses]
        gets = [_getter(x) for x in operands if x is not None]  # None: optional, absent
        dsts = [(dst, _mask(dst)) for dst in i.defs()]
        if not dsts:
            def op(it, env):
                meaning(it, i, *[get(env) for get in gets])
        elif "dsts" in i._defs:
            def op(it, env):
                words = meaning(it, i, *[get(env) for get in gets])
                for (dst, mask), word in zip(dsts, words):
                    env[dst] = word & mask
        else:
            (dst, mask), = dsts

            def op(it, env):
                v = meaning(it, i, *[get(env) for get in gets])
                env[dst] = v & mask if isinstance(v, int) else v
        return op
    return decode


def _call(it, i: I.Call, args):
    result = it._exec_function(it.mod.functions[i.func], args)
    return 0 if result is None else result


def _load_g_words(it, i: I.LoadGWords, off):
    stat = it.profile.gstat(i.g)
    stat.loads += 1
    stat.load_offsets[off] += 1
    return [it.globals.load(i.g, off + n * 4, 4) for n in range(i.nwords)]


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


def _cam_write(it, i: I.CamWrite, entry, key):
    entry &= 0xF
    it.cam_tags[entry] = key & _U32
    it._cam_touch(entry)


def _cam_clear(it, i: I.CamClear):
    it.cam_tags = [None] * 16
    it.cam_lru = list(range(16))


_DECODERS: Dict[type, Callable[[I.Instr, IRFunction], Op]] = {
    I.Assign: _assign, I.BinOp: _binop, I.Cmp: _cmp, I.LoadG: _load_g,
    I.PktLoadField: _pkt_load_field, I.LoadL: _local, I.StoreL: _local,
}
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
    I.CamLookup: lambda it, i, key: it._cam_lookup(key),
    I.CamWrite: _cam_write, I.CamClear: _cam_clear,
    I.LmLoad: lambda it, i, index: it.local_mem.get(index, 0),
    I.LmStore: lambda it, i, index, value: setitem(it.local_mem, index, value & _U32),
}
_DECODERS.update((cls, _generic(meaning)) for cls, meaning in _MEANINGS.items())

# Decoded terminators: (kind, x, y, z).
_JUMP, _BRANCH, _RET = range(3)


def _decode_terminator(term: I.Instr) -> Tuple[int, object, object, object]:
    kind = type(term)
    if kind is I.Jump:
        return _JUMP, term.target, None, None
    if kind is I.Branch:
        if isinstance(term.cond, Const):
            taken = term.then_bb if term.cond.value != 0 else term.else_bb
            return _JUMP, taken, None, None
        return _BRANCH, term.cond, term.then_bb, term.else_bb
    if kind is I.Ret:
        value = (lambda env: None) if term.value is None else _getter(term.value)
        return _RET, value, None, None
    raise InterpError("bad terminator %r" % term)


class Interpreter:
    """Interprets an IRModule; reusable across traces (but not across
    edits of the module: decoded blocks are kept for the instance's life)."""

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
        self._current_ppf: Optional[str] = None
        # ME-local structures (single logical ME for functional runs).
        self.cam_tags: List[Optional[int]] = [None] * 16
        self.cam_lru: List[int] = list(range(16))
        self.local_mem: Dict[int, int] = {}
        self._code: Dict[BasicBlock, tuple] = {}

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
        fn = self.mod.functions[ppf_name]
        self.profile.ppf_invocations[ppf_name] += 1
        prev = self._current_ppf
        self._current_ppf = ppf_name
        try:
            self._exec_function(fn, [pkt])
        finally:
            self._current_ppf = prev

    # -- execution ---------------------------------------------------------------------

    def _decode_block(self, fn: IRFunction, bb: BasicBlock) -> tuple:
        ops = []
        for instr in bb.instrs:
            decoder = _DECODERS.get(type(instr))
            if decoder is None:
                raise InterpError("cannot interpret %r" % instr)
            ops.append(decoder(instr, fn))
        lines = Counter((i.loc.filename, i.loc.line)
                        for i in bb.instrs if i.loc is not None)
        # (ops, instructions per run, [runs since the last _charge_lines],
        #  instructions per source line, decoded terminator...)
        block = self._code[bb] = (tuple(ops), len(ops) + 1, [0],
                                  tuple(lines.items())
                                  ) + _decode_terminator(bb.terminator)
        return block

    def _charge_lines(self, line_instrs: Optional[Counter]) -> None:
        """Charge every block's runs since the last call to its source
        lines in ``line_instrs`` (None: discard them)."""
        for _, _, hits, lines, *_ in self._code.values():
            if hits[0] and line_instrs is not None:
                for where, n in lines:
                    line_instrs[where] += hits[0] * n
            hits[0] = 0

    def _exec_function(self, fn: IRFunction, args: List[object]) -> object:
        if len(args) != len(fn.params):
            raise InterpError("%s: expected %d args" % (fn.name, len(fn.params)))
        self.profile.func_invocations[fn.name] += 1
        env: Env = dict(zip(fn.params, args))
        for name, arr in fn.local_arrays.items():
            env[name] = bytearray(arr.size_bytes)
        code = self._code
        executed = 0
        bb = fn.entry
        try:
            while True:
                ops, count, hits, _, kind, x, y, z = code.get(bb) or self._decode_block(fn, bb)
                # The whole block (terminator included) is charged up front.
                executed += count
                hits[0] += 1
                self.fuel = fuel = self.fuel - count
                if fuel <= 0:
                    raise InterpError("interpreter fuel exhausted (infinite loop?)")
                for op in ops:
                    op(self, env)
                if kind == _BRANCH:
                    bb = y if env[x] != 0 else z
                elif kind == _JUMP:
                    bb = x
                else:
                    return x(env)
        except KeyError as exc:
            if exc.args and isinstance(exc.args[0], Temp):
                raise InterpError("use of undefined temp %r" % exc.args[0]) from None
            raise
        except EvalError as exc:
            raise InterpError(str(exc)) from None
        finally:
            if self._current_ppf is not None:
                self.profile.ppf_instrs[self._current_ppf] += executed

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

    # -- helpers ---------------------------------------------------------------------

    def _cam_lookup(self, key: int) -> int:
        key &= _U32
        for entry, tag in enumerate(self.cam_tags):
            if tag == key:
                self._cam_touch(entry)
                return (entry << 1) | 1
        # Miss: the reported LRU victim becomes MRU (MEv2 behavior).
        lru = self.cam_lru[0]
        self._cam_touch(lru)
        return lru << 1

    def _cam_touch(self, entry: int) -> None:
        self.cam_lru.remove(entry)
        self.cam_lru.append(entry)


def run_reference(mod: IRModule, trace: Trace) -> SystemResult:
    """Convenience: init globals, run init blocks, feed the trace."""
    interp = Interpreter(mod)
    interp.run_inits()
    return interp.run_trace(trace)
