"""Loader: place globals/locks/rings/pools into simulated chip memory,
install ME images, and attach the XScale.

Address-space conventions (all addresses are byte addresses within their
space; nothing is ever placed at address 0 so ring ``get`` can use 0 as
"empty"):

* **Scratch**: locks, then scratch-mapped globals (SWC's generation
  words; no program table is placed there).
* **SRAM**: application globals, the packet metadata pool, the stack
  overflow area.
* **DRAM**: the packet buffer pool (2 KiB buffers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.aggregation.throughput import assign_mes
from repro.baker import types as T
from repro.cg.melayout import SRAM_STACK_BYTES_PER_THREAD
from repro.baker.packetmodel import BUFFER_BYTES
from repro.ixp.chip import IXP2400
from repro.ixp.microengine import Microengine
from repro.ixp.xscale_core import XScaleCore
from repro.profiler.interpreter import Interpreter

RING_CAPACITY = 128  # channel rings (Rx drops when the rx ring is full)
POOL_PACKETS = 1024  # buffer/metadata pool (larger than any ring backlog)


@dataclass
class LoadLayout:
    global_addr: Dict[str, int] = field(default_factory=dict)
    global_space: Dict[str, str] = field(default_factory=dict)
    me_assignment: Dict[str, int] = field(default_factory=dict)  # aggregate -> MEs


class LoaderError(Exception):
    pass


def boot_image(result) -> Dict[str, bytes]:
    """Contents of every global once the XScale has run the module init
    blocks at boot. Init code can only touch globals (no packet exists yet,
    and Baker allows ``channel_put`` only inside a PPF), so these bytes are
    its whole effect: they are interpreted host-side on the first load of a
    ``CompileResult``, kept on it, and written by every load."""
    if result.boot_image is None:
        interp = Interpreter(result.mod)
        interp.run_inits()
        result.boot_image = interp.globals.image()
    return result.boot_image


def load_system(result, chip: IXP2400, n_mes: Optional[int] = None,
                dispatch: Optional[str] = None) -> LoadLayout:
    """Install a CompileResult onto a chip; returns the layout.

    ``dispatch`` selects nothing: there is one ME core. It accepts None
    or ``"fast"`` for callers written when there was a choice and refuses
    anything else (``run_on_simulator`` passes its own through here).
    Symbols, rings and memory are all placed before any ME is created,
    so the predecode stage -- which runs lazily on first execution --
    sees a fully resolved chip."""
    if dispatch not in (None, "fast"):
        raise ValueError("unknown dispatch mode %r (the only legal value "
                         "is 'fast')" % (dispatch,))
    mod = result.mod
    plan = result.plan
    layout = LoadLayout()
    chip.meta_words = mod.meta_words

    scratch_ptr = 64
    sram_ptr = 64
    dram_ptr = BUFFER_BYTES  # first buffer at 2 KiB, never 0

    # Locks.
    for lock in mod.locks:
        chip.symbols["lock.%s" % lock] = scratch_ptr
        scratch_ptr += 4

    # Globals, holding their post-boot contents.
    image = boot_image(result)
    for name, sym in sorted(mod.globals.items()):
        size = sym.type.size_bytes()
        if sym.memory == "scratch":
            addr = scratch_ptr
            end = scratch_ptr = addr + ((size + 3) & ~3)
        else:
            addr = sram_ptr
            end = sram_ptr = addr + ((size + 7) & ~7)
        if end > len(chip.memory.stores[sym.memory]):
            raise LoaderError("%s memory exhausted by global %s (%d bytes)"
                              % (sym.memory, name, size))
        chip.symbols[name] = addr
        layout.global_addr[name] = addr
        layout.global_space[name] = sym.memory
        chip.memory.write_bytes(sym.memory, addr, image[name])

    # Rings: builtin, one per non-internal channel, plus the free lists.
    ring_names = ["rx", "tx", "__buf_free", "__meta_free"]
    for name, chan in mod.channels.items():
        if name in ("rx", "tx"):
            continue
        if name in plan.internal_channels:
            continue
        ring_names.append(name)
    for name in ring_names:
        capacity = POOL_PACKETS if name.startswith("__") else RING_CAPACITY
        chip.rings.create("ring.%s" % name, capacity=capacity)

    # Packet pools.
    meta_bytes = mod.meta_words * 4
    for _ in range(POOL_PACKETS):
        addr = sram_ptr
        sram_ptr += (meta_bytes + 7) & ~7
        chip.rings["ring.__meta_free"].put(addr)
        chip.rings["ring.__buf_free"].put(dram_ptr)
        dram_ptr += BUFFER_BYTES
    if dram_ptr > len(chip.memory.stores["dram"]):
        raise LoaderError("DRAM exhausted by buffer pool")

    # SRAM stack overflow area.
    chip.symbols["__stack"] = sram_ptr
    sram_ptr += chip.n_programmable_mes * 8 * SRAM_STACK_BYTES_PER_THREAD
    if sram_ptr > len(chip.memory.stores["sram"]):
        raise LoaderError("SRAM exhausted")

    # ME images, duplicated per the plan (re-balanced if n_mes overrides).
    total_mes = n_mes if n_mes is not None else chip.n_programmable_mes
    aggs = plan.me_aggregates
    if not aggs:
        raise LoaderError("no ME aggregates to load")
    counts = assign_mes([a.cost for a in aggs], total_mes)
    if not counts or 0 in counts:
        raise LoaderError(
            "cannot map %d pipeline stages onto %d MEs" % (len(aggs), total_mes)
        )
    me_index = 0
    for agg, count in zip(aggs, counts):
        layout.me_assignment[agg.name] = count
        image = result.images[agg.name]
        for _ in range(count):
            chip.add_me(Microengine(me_index, image, chip))
            me_index += 1

    # XScale: control aggregates (boot already happened: see boot_image).
    xscale_inputs: List[str] = []
    for agg in plan.xscale_aggregates:
        for ppf in agg.ppfs:
            fn = mod.functions[ppf]
            xscale_inputs.extend(
                c for c in fn.input_channels if c not in plan.internal_channels
            )
    chip.attach_xscale(XScaleCore(mod, chip, layout, xscale_inputs))

    return layout
