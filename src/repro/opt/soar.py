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
from repro.ir.cfg import solve_forward
from repro.ir.module import IRFunction, IRModule
from repro.ir.values import Temp
from repro.obs import ledger as obs_ledger
from repro.opt.aliases import AliasClasses, packet_handles

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
            entry = _entry_value(fn, chan_values)
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
        _analyze_function(fn, _entry_value(fn, chan_values) or BOTTOM,
                          annotate=True, result=result)
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


def _entry_value(fn: IRFunction, chan_values) -> Optional[ClassValue]:
    """The meet over the function's input channels; None while no
    producer has been observed."""
    entry = None
    for chan in fn.input_channels:
        v = chan_values.get(chan)
        if v is not None:
            entry = v if entry is None else _meet_value(entry, v)
    return entry


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
    entry_state: State = {aliases.class_of(p): param_value
                          for p in fn.params if p.type.is_packet}

    def transfer(bb, state: State) -> State:
        return _transfer(bb, state, aliases, None, None)

    puts: Dict[str, ClassValue] = {}
    for bb, state in solve_forward(fn, entry_state, transfer, _meet_states).items():
        _transfer(bb, state, aliases, puts, result if annotate else None)
    return puts


def _meet_states(a: State, b: State) -> State:
    """Pointwise meet; a class missing from one side is unreached there."""
    out = dict(a)
    for k, v in b.items():
        out[k] = _meet_value(out[k], v) if k in out else v
    return out


def _transfer(bb, in_state: State, aliases: AliasClasses,
                     puts: Optional[Dict[str, ClassValue]],
                     result: Optional[SoarResult]) -> State:
    """The block's end state; with ``result``, annotate what reads the
    head (accesses, and encap/decap before they move it)."""
    state: State = dict(in_state)
    for instr in bb.all_instrs():
        if isinstance(instr, I.PktCopy):
            # The copy inherits the source's head position.
            src_cls = aliases.class_of(instr.src) if isinstance(instr.src, Temp) else None
            state[aliases.class_of(instr.dst)] = state.get(src_cls, BOTTOM)
            continue
        if isinstance(instr, I.PktCreate):
            # Fresh buffer: head starts at the (quadword-aligned) headroom.
            state[aliases.class_of(instr.dst)] = (0, QUADWORD)
            continue
        if not (isinstance(instr, I.PktInstr) or instr.touches_packet):
            continue
        for ph in packet_handles(instr):
            cls = aliases.class_of(ph)
            value = state.get(cls, BOTTOM)
            if result is not None and isinstance(instr, I.PktInstr) \
                    and (instr.renames or not instr.touches_packet):
                _annotate(instr, value, result,
                          counted=isinstance(instr, I.PktAccess))
            if instr.moves_head:
                state[cls] = _shift_value(value, instr.head_delta())
            if puts is not None and isinstance(instr, I.ChanPut):
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
