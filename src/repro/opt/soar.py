"""SOAR: static offset and alignment resolution (paper section 5.3.2).

Determines, per packet access, the *static* byte offset of the handle's
head relative to the start of packet data (``c_offset``) and, where
that offset differs between paths, the congruence every path agrees on
(``offset = residue (mod modulus)``, the modulus 8, 4, 2 or 1), via flow
analysis over ``packet_encap`` / ``packet_decap`` / handle creation:

* at handles entering via Rx:     c_offset = 0 (so 0 mod 8);
* at ``packet_encap``:            c_offset -= header size, and the
  residue with it;
* at ``packet_decap``:            c_offset += header size
  (nothing known when the demux is packet-dependent);
* at control-flow joins:          offsets must agree, else ``-offset``
  (represented here as ``None``), and the modulus falls to the largest
  power of two dividing both moduli and the residues' difference.

So a loop that pops 4 B labels behind a 14 B Ethernet header is known
at ``2 (mod 4)``: its accesses have no static offset, but the code
generator extracts their words with constant shifts.

The analysis is interprocedural across PPFs: the value entering a PPF is
the join over every producer's value at its ``channel_put`` site, solved
to fixpoint over the channel graph. Handles born from ``packet_create``
/ ``packet_copy`` are seeded directly at their definition; this forward
seeding subsumes the paper's separate backward propagation passes
(steps 4 and 7), which exist to recover offsets for exactly those
non-Rx packets.

Results are recorded as ``c_offset_bits`` / ``c_modulus`` /
``c_residue`` annotations on every packet instruction; PHR and the
packet lowering stage (:mod:`repro.cg.pktlower`) consume them, the
lowering both the static offset and, without it, the residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.ir import instructions as I
from repro.ir.cfg import solve_forward
from repro.ir.module import IRFunction, IRModule
from repro.ir.values import Temp
from repro.obs import ledger as obs_ledger
from repro.opt.aliases import AliasClasses, packet_handles

QUADWORD = 8

# A lattice value per alias class: the head's byte offset, or None, and
# the congruence known of it even then, ``offset = residue (mod
# modulus)`` with the modulus 8, 4, 2 or 1 (1: nothing known).
ClassValue = Tuple[Optional[int], int, int]
# Block state: class representative -> value. Missing class = TOP (unreached).
State = Dict[Temp, ClassValue]

BOTTOM: ClassValue = (None, 1, 0)


def _at(offset: int) -> ClassValue:
    """The value of a head at a known ``offset``."""
    return (offset, QUADWORD, offset % QUADWORD)


def _meet_value(a: ClassValue, b: ClassValue) -> ClassValue:
    """Offsets that differ leave the congruence both satisfy: the
    largest power of two dividing both moduli and the residues'
    difference."""
    if a == b:
        return a
    modulus = math.gcd(a[1], b[1], abs(a[2] - b[2]))
    return (None, modulus, a[2] % modulus)


def _shift_value(value: ClassValue, delta_bytes: Optional[int]) -> ClassValue:
    """Value after the head moves by ``delta_bytes`` (None = unknown)."""
    off, modulus, residue = value
    if delta_bytes is None:
        return BOTTOM
    if off is not None:
        return _at(off + delta_bytes)
    return (None, modulus, (residue + delta_bytes) % modulus)


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
    # boundary with offset 0.
    chan_values: Dict[str, Optional[ClassValue]] = {name: None for name in mod.channels}
    chan_values["rx"] = _at(0)

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
    for name, (off, modulus, residue) in sorted(result.channel_values.items()):
        obs_ledger.record("soar", "channel:%s" % name,
                          "resolved" if off is not None else "unresolved",
                          reason="head offset at channel entry",
                          offset_bytes=off, modulus=modulus, residue=residue)
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
    their ``c_offset_bits`` / ``c_modulus`` / ``c_residue`` annotations."""
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
            state[aliases.class_of(instr.dst)] = _at(0)
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
    off, instr.c_modulus, instr.c_residue = value
    instr.c_offset_bits = None if off is None else off * 8
    if counted:
        result.total_accesses += 1
        if off is not None:
            result.resolved_accesses += 1
        loc = obs_ledger.loc_str(instr.loc)
        obs_ledger.record(
            "soar", loc or type(instr).__name__,
            "resolved" if off is not None else "unresolved",
            loc=loc, offset_bits=instr.c_offset_bits,
            modulus=instr.c_modulus, residue=instr.c_residue)
