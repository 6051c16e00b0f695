"""SOAR: static offset and alignment resolution (paper section 5.3.2).

Determines, per packet access, the *static* byte offset of the handle's
head relative to the start of packet data (``c_offset``) and the static
*alignment* of the head (``c_alignment``), via flow analysis over
``packet_encap`` / ``packet_decap`` / handle creation:

* at handles entering via Rx:     c_offset = 0, c_alignment = quadword;
* at ``packet_encap``:            c_offset -= header size;
* at ``packet_decap``:            c_offset += header size
  (unknown when the demux is packet-dependent);
* at control-flow joins:          values must agree, else ``-offset``
  (represented here as ``None``).

The analysis is interprocedural across PPFs: the value entering a PPF is
the join over every producer's value at its ``channel_put`` site, solved
to fixpoint over the channel graph. Handles born from ``packet_create``
/ ``packet_copy`` are seeded directly at their definition; this forward
seeding subsumes the paper's separate backward propagation passes
(steps 4 and 7), which exist to recover offsets for exactly those
non-Rx packets.

Results are recorded as ``c_offset_bits`` / ``c_alignment`` annotations
on every packet instruction; the packet lowering stage and PHR consume
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.ir import instructions as I
from repro.ir.cfg import compute_cfg, reverse_postorder
from repro.ir.module import IRFunction, IRModule
from repro.ir.values import Const, Temp
from repro.obs import ledger as obs_ledger
from repro.opt.aliases import AliasClasses

QUADWORD = 8

# A lattice value per alias class: (offset_bytes or None, alignment 8/4/2/1).
ClassValue = Tuple[Optional[int], int]
# Block state: class representative -> value. Missing class = TOP (unreached).
State = Dict[Temp, ClassValue]

BOTTOM: ClassValue = (None, 1)


def _align_of_offset(offset: Optional[int], base_align: int = QUADWORD) -> int:
    if offset is None:
        return 1
    a = base_align
    while a > 1 and offset % a != 0:
        a //= 2
    return a


def _meet_value(a: ClassValue, b: ClassValue) -> ClassValue:
    off = a[0] if a[0] == b[0] else None
    align = _gcd_align(a[1], b[1])
    return (off, align)


def _gcd_align(a: int, b: int) -> int:
    while a > 1 and (b % a) != 0:
        a //= 2
    return max(a, 1)


def _shift_value(value: ClassValue, delta_bytes: Optional[int]) -> ClassValue:
    """Value after the head moves by ``delta_bytes`` (None = unknown)."""
    off, align = value
    if delta_bytes is None:
        return BOTTOM
    new_off = None if off is None else off + delta_bytes
    new_align = (
        _align_of_offset(new_off)
        if new_off is not None
        else _gcd_align(align, _align_of_offset(delta_bytes))
    )
    return (new_off, new_align)


@dataclass
class SoarResult:
    """Resolved channel-entry values, for diagnostics and tests."""

    channel_values: Dict[str, ClassValue] = field(default_factory=dict)
    resolved_accesses: int = 0
    total_accesses: int = 0

    @property
    def resolution_rate(self) -> float:
        if self.total_accesses == 0:
            return 1.0
        return self.resolved_accesses / self.total_accesses


def run(mod: IRModule) -> SoarResult:
    """Run SOAR over the module, annotating packet instructions in place."""
    result = SoarResult()
    # Channel fixpoint: start every channel at TOP (unobserved); rx is the
    # boundary with offset 0, quadword aligned.
    chan_values: Dict[str, Optional[ClassValue]] = {name: None for name in mod.channels}
    chan_values["rx"] = (0, QUADWORD)

    ppfs = mod.ppfs()
    for _ in range(len(ppfs) * 4 + 8):
        changed = False
        for fn in ppfs:
            entry = None
            for chan in fn.input_channels:
                v = chan_values.get(chan)
                if v is None:
                    continue
                entry = v if entry is None else _meet_value(entry, v)
            if entry is None:
                entry = (0, QUADWORD) if "rx" in fn.input_channels else None
            if entry is None:
                continue  # no producer observed yet
            puts = _analyze_function(fn, entry, annotate=False)
            for chan, value in puts.items():
                old = chan_values.get(chan)
                new = value if old is None else _meet_value(old, value)
                if new != old:
                    chan_values[chan] = new
                    changed = True
        if not changed:
            break

    # Final annotation passes.
    for fn in ppfs:
        entry = None
        for chan in fn.input_channels:
            v = chan_values.get(chan)
            if v is not None:
                entry = v if entry is None else _meet_value(entry, v)
        if entry is None:
            entry = BOTTOM
        _analyze_function(fn, entry, annotate=True, result=result)
    for fn in mod.funcs():
        # Support functions may receive handles; without inlining their
        # entry offsets are unknown (conservative).
        _analyze_function(fn, BOTTOM, annotate=True, result=result)

    result.channel_values = {
        name: v for name, v in chan_values.items() if v is not None
    }
    for name, (off, align) in sorted(result.channel_values.items()):
        obs_ledger.record("soar", "channel:%s" % name,
                          "resolved" if off is not None else "unresolved",
                          reason="head offset at channel entry",
                          offset_bytes=off, alignment=align)
    obs_ledger.record("soar", "<module>", "summary",
                      resolved=result.resolved_accesses,
                      total=result.total_accesses,
                      resolution_rate=result.resolution_rate)
    return result


def _analyze_function(
    fn: IRFunction,
    param_value: ClassValue,
    annotate: bool,
    result: Optional[SoarResult] = None,
) -> Dict[str, ClassValue]:
    """Forward dataflow within one function. Returns the value observed at
    each channel_put. When ``annotate`` is set, packet instructions get
    their ``c_offset_bits`` / ``c_alignment`` annotations."""
    aliases = AliasClasses(fn)
    compute_cfg(fn)
    order = reverse_postorder(fn)

    entry_state: State = {}
    for p in fn.params:
        if p.type.is_packet:
            entry_state[aliases.class_of(p)] = param_value

    block_in: Dict[object, Optional[State]] = {bb: None for bb in order}
    block_in[fn.entry] = entry_state
    puts: Dict[str, ClassValue] = {}

    def meet_states(a: Optional[State], b: Optional[State]) -> Optional[State]:
        if a is None:
            return dict(b) if b is not None else None
        if b is None:
            return dict(a)
        out: State = {}
        for k in set(a) | set(b):
            if k in a and k in b:
                out[k] = _meet_value(a[k], b[k])
            else:
                out[k] = a.get(k, b.get(k))
        return out

    # Worklist fixpoint over blocks.
    changed = True
    iterations = 0
    while changed and iterations < 4 * len(order) + 16:
        iterations += 1
        changed = False
        for bb in order:
            if bb is fn.entry:
                state = dict(entry_state)
            else:
                state = None
                for pred in bb.preds:
                    state = meet_states(state, _transfer_block(pred, block_in[pred],
                                                              aliases, None, None))
                if state is None:
                    continue
            if block_in[bb] != state:
                block_in[bb] = state
                changed = True

    # Annotation + put collection on the stabilized solution.
    for bb in order:
        state = block_in[bb]
        if state is None:
            continue
        _transfer_block(bb, state, aliases, puts,
                        result if annotate else None)
    return puts


def _transfer_block(bb, in_state: Optional[State], aliases: AliasClasses,
                    puts: Optional[Dict[str, ClassValue]],
                    result: Optional[SoarResult]) -> Optional[State]:
    if in_state is None:
        return None
    state: State = dict(in_state)
    for instr in bb.all_instrs():
        if isinstance(instr, (I.PktLoadField, I.PktStoreField,
                              I.PktLoadWords, I.PktStoreWords,
                              I.MetaLoad, I.MetaStore, I.PktLength)):
            ph = instr.ph
            if isinstance(ph, Temp):
                value = state.get(aliases.class_of(ph), BOTTOM)
                if result is not None:
                    _annotate(instr, value, result,
                              counted=not isinstance(instr, (I.MetaLoad, I.MetaStore,
                                                             I.PktLength)))
        elif isinstance(instr, I.PktEncap):
            cls = aliases.class_of(instr.src) if isinstance(instr.src, Temp) else None
            if cls is not None:
                value = state.get(cls, BOTTOM)
                if result is not None:
                    _annotate(instr, value, result, counted=False)
                state[cls] = _shift_value(value, -instr.header_bytes)
        elif isinstance(instr, I.PktDecap):
            cls = aliases.class_of(instr.src) if isinstance(instr.src, Temp) else None
            if cls is not None:
                value = state.get(cls, BOTTOM)
                if result is not None:
                    _annotate(instr, value, result, counted=False)
                state[cls] = _shift_value(value, instr.header_bytes)
        elif isinstance(instr, I.PktSyncHead):
            cls = aliases.class_of(instr.ph) if isinstance(instr.ph, Temp) else None
            if cls is not None:
                state[cls] = _shift_value(state.get(cls, BOTTOM), instr.delta_bytes)
        elif isinstance(instr, I.PktAdjust):
            cls = aliases.class_of(instr.ph) if isinstance(instr.ph, Temp) else None
            if cls is not None:
                if instr.op in ("extend", "shorten"):
                    amount = instr.amount.value if isinstance(instr.amount, Const) else None
                    delta = None if amount is None else (
                        -amount if instr.op == "extend" else amount
                    )
                    state[cls] = _shift_value(state.get(cls, BOTTOM), delta)
                # add_tail / remove_tail leave the head untouched.
        elif isinstance(instr, I.PktCopy):
            # The copy inherits the source's head position.
            src_cls = aliases.class_of(instr.src) if isinstance(instr.src, Temp) else None
            value = state.get(src_cls, BOTTOM) if src_cls is not None else BOTTOM
            state[aliases.class_of(instr.dst)] = value
        elif isinstance(instr, I.PktCreate):
            # Fresh buffer: head starts at the (quadword-aligned) headroom.
            state[aliases.class_of(instr.dst)] = (0, QUADWORD)
        elif isinstance(instr, I.Call):
            # The callee may encap/decap any packet argument.
            for a in instr.args:
                if isinstance(a, Temp) and a.type.is_packet:
                    state[aliases.class_of(a)] = BOTTOM
        elif isinstance(instr, I.ChanPut):
            if puts is not None and isinstance(instr.ph, Temp):
                value = state.get(aliases.class_of(instr.ph), BOTTOM)
                prev = puts.get(instr.channel)
                puts[instr.channel] = value if prev is None else _meet_value(prev, value)
    return state


def _annotate(instr: I.PktInstr, value: ClassValue, result: SoarResult,
              counted: bool) -> None:
    off, align = value
    instr.c_offset_bits = None if off is None else off * 8
    instr.c_alignment = align
    if counted:
        result.total_accesses += 1
        if off is not None:
            result.resolved_accesses += 1
        loc = obs_ledger.loc_str(instr.loc)
        obs_ledger.record(
            "soar", loc or type(instr).__name__,
            "resolved" if off is not None else "unresolved",
            loc=loc, offset_bits=instr.c_offset_bits, alignment=align)
