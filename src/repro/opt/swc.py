"""SWC: delayed-update software-controlled caching (paper section 5.2).

The IXP MEs have no hardware caches, but each ME has 640 words of Local
Memory. SWC keeps hot, rarely-written global tables there:

* **Candidate selection** uses functional-profiler statistics: a global
  qualifies when it is read frequently on the packet path, written
  rarely (control/init path only, within Equation 2's bound) and never
  accessed inside a critical section. Selection runs once, before PAC
  (which then leaves every selected global's loads narrow, so each is
  rewritten here).
* **Residency**: each candidate whose *whole table* fits the words of
  the SWC region still free is copied into every ME's Local Memory,
  hottest first; the rest stay in SRAM. Each read becomes one indexed
  Local Memory read, and the loader fills the copies at boot. The
  paper's CAM-tagged line cache is not built: on this substrate every
  table it admitted ran faster resident or read from SRAM (EXPERIMENTS.md,
  "SWC without the CAM").
* **Delayed-update coherency**: a writer bumps a per-global
  *generation word* in Scratch after its data store; the packet path
  compares the generations against the value it last saw (``SEEN``, in
  its own Local Memory) only every *i*-th packet (Equation 2 gives the
  minimum check rate from the tolerable packet error rate) and, when
  they differ, refreshes every resident copy from SRAM. MEs never write
  the generation words, so every ME sees every update -- the paper's
  test-and-clear flag is consumed by the first ME that checks. Between
  checks, resident copies may be stale -- acceptable in error-tolerant
  packet applications, the paper's central observation.

The load-path rewrite (paper Figure 8, with a whole-table copy where
the paper has a CAM lookup)::

    count++                       (Local Memory)
    if count > check_limit:
        count = 0
        gen = sum of generations  (one Scratch read each per period)
        if gen != seen:           (Local Memory)
            seen = gen; refresh every resident copy from SRAM
    value = LM[table base + index]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.baker import types as T
from repro.baker.symbols import GlobalSymbol, SymbolKind
from repro.cg.melayout import SWC_REGION_WORDS
from repro.ir import instructions as I
from repro.ir.cfg import solve_forward
from repro.ir.module import BasicBlock, IRFunction, IRModule
from repro.ir.values import Const, Operand, Temp
from repro.obs import ledger as obs_ledger
from repro.opt import dce
from repro.opt.pac import normalize_offset, single_defs_of
from repro.profiler.stats import ProfileData

# Local Memory layout of the SWC region (word indices are relative to the
# region; the code generator places the region after the stack area):
# the packet counter, SEEN (the generation sum this ME last refreshed
# for), then the resident tables.
COUNTER_INDEX = 0
SEEN_INDEX = 1
TABLES_BASE = 2

# ``<global>.__swc_flag``: the Scratch generation word of a selected global.
FLAG_SUFFIX = ".__swc_flag"

# Test-only fault injection (tests/test_analyze_mutations.py): with
# "resident_off_by_one" a resident read takes the word after the one it
# replaced, a miscompile the differential oracle must catch. Never set
# outside tests.
_TEST_MUTATION = None

# Selection thresholds.
MIN_LOADS_PER_PACKET = 0.4
MAX_STORE_LOAD_RATIO = 0.01
# The paper's tolerable packet error rate (section 5.2): Equation 2
# derives the minimum per-packet update-check rate from it. Every
# accepted candidate's minimum must be satisfiable by the configured
# check period -- enforced at compile time by enforce_check_period.
TOLERABLE_ERROR_RATE = 0.01


@dataclass
class ResidentSpec:
    """One resident table: its whole copy in every ME's Local Memory."""

    name: str
    replica: int  # first SWC-region word of the copy
    words: int
    flag_global: str


@dataclass
class SwcResult:
    #: The tables kept in Local Memory, hottest first (the generation
    #: words are summed in this order).
    resident: List[ResidentSpec] = field(default_factory=list)
    #: name -> why selection turned it down.
    rejected: Dict[str, str] = field(default_factory=dict)
    rewritten_loads: int = 0
    instrumented_stores: int = 0
    #: Largest Equation-2 minimum check rate over the accepted
    #: candidates (0.0 when none store during the profile). The
    #: configured check period must keep 1/period >= this.
    eq2_min_check_rate: float = 0.0
    #: Check period the options requested, and the period actually
    #: compiled in after Equation-2 enforcement (None until
    #: enforce_check_period runs or when nothing is resident).
    requested_check_period: Optional[int] = None
    check_period: Optional[int] = None

    def cached_names(self) -> List[str]:
        """Every global SWC serves from Local Memory."""
        return [r.name for r in self.resident]


def min_check_rate(r_error: float, r_store: float, r_load: float) -> float:
    """Equation 2: minimum per-packet update-check rate."""
    if r_error <= 0:
        raise ValueError("tolerable error rate must be positive")
    return r_store * r_load / r_error


def select_candidates(mod: IRModule, profile: ProfileData,
                      fast_functions: Set[str]) -> SwcResult:
    """Choose the globals to keep resident. ``fast_functions`` are the
    ME-mapped aggregate functions (loads elsewhere are control path)."""
    result = SwcResult()
    packets = max(profile.packets_in, 1)

    def _reject(name, reason, **evidence):
        result.rejected[name] = reason
        obs_ledger.record("swc", name, "rejected", reason=reason, **evidence)

    in_critical = _globals_in_critical_sections(mod)
    fast_loaded = _globals_accessed_in(mod, fast_functions, I.LoadG)
    fast_stored = _globals_accessed_in(mod, fast_functions, I.StoreG)

    screened = []  # (loads_per_packet, name, sym, stats, eq2)
    for name, sym in sorted(mod.globals.items()):
        if name.endswith(FLAG_SUFFIX):
            continue
        stats = profile.global_stats.get(name)
        if stats is None or name not in fast_loaded:
            _reject(name, "not read on the packet path")
            continue
        if name in in_critical:
            _reject(name, "accessed inside a critical section")
            continue
        if name in fast_stored:
            _reject(name, "written on the packet path",
                    loads=stats.loads, stores=stats.stores)
            continue
        loads_per_packet = stats.loads / packets
        if loads_per_packet < MIN_LOADS_PER_PACKET:
            _reject(name, "too few loads/packet (%.2f)" % loads_per_packet,
                    loads_per_packet=loads_per_packet,
                    min_loads_per_packet=MIN_LOADS_PER_PACKET)
            continue
        if stats.loads and stats.stores / stats.loads > MAX_STORE_LOAD_RATIO:
            _reject(name, "written too often (%d stores / %d loads)" % (
                        stats.stores, stats.loads),
                    loads=stats.loads, stores=stats.stores,
                    max_store_load_ratio=MAX_STORE_LOAD_RATIO)
            continue
        eq2 = _admissible_check_rate(name, stats, packets, _reject)
        if eq2 is not None:
            screened.append((loads_per_packet, name, sym, stats, eq2))

    # Each survivor is kept whole in Local Memory if it fits the words
    # the hotter ones left; the rest stay in SRAM.
    replica = TABLES_BASE
    screened.sort(key=lambda row: (-row[0], row[1]))
    for loads_per_packet, name, sym, stats, eq2 in screened:
        words = sym.type.size_words()
        words_left = SWC_REGION_WORDS - replica
        if words > words_left:
            _reject(name, "table does not fit Local Memory (%d words, "
                          "%d left)" % (words, words_left),
                    words=words, words_left=words_left,
                    loads_per_packet=loads_per_packet)
            continue
        result.resident.append(
            ResidentSpec(name, replica, words, name + FLAG_SUFFIX))
        result.eq2_min_check_rate = max(result.eq2_min_check_rate, eq2)
        obs_ledger.record(
            "swc", name, "resident",
            reason="hot, rarely written, whole table fits Local Memory",
            replica=replica, words=words, words_left=words_left,
            loads_per_packet=loads_per_packet,
            stores_per_packet=stats.stores / packets,
            eq2_min_check_rate=eq2)
        replica += words
    return result


def _admissible_check_rate(name, stats, packets, reject) -> Optional[float]:
    """A candidate's Equation-2 minimum check rate at the paper's 1%
    tolerable error rate, or None (rejected) when it demands more than
    one check per packet: no integer period can satisfy it."""
    loads_per_packet = stats.loads / packets
    stores_per_packet = stats.stores / packets
    eq2 = min_check_rate(TOLERABLE_ERROR_RATE, stores_per_packet,
                         loads_per_packet)
    if eq2 > 1.0:
        reject(name,
               "Equation 2 unsatisfiable (min check rate %.3f > 1/pkt)" % eq2,
               eq2_min_check_rate=eq2,
               stores_per_packet=stores_per_packet,
               loads_per_packet=loads_per_packet,
               tolerable_error_rate=TOLERABLE_ERROR_RATE)
        return None
    return eq2


def enforce_check_period(result: SwcResult, requested: int) -> int:
    """Clamp the configured check period so the implied check rate
    (1/period) never falls below the Equation-2 minimum of any accepted
    candidate. Returns the effective period and records a ledger
    decision when the clamp fires. Before this existed, a hand-set
    period silently violated the paper's 1% bound."""
    result.requested_check_period = requested
    effective = max(1, int(requested))
    if result.resident and result.eq2_min_check_rate > 0.0:
        max_period = max(1, int(1.0 / result.eq2_min_check_rate))
        if effective > max_period:
            obs_ledger.record(
                "swc", "check_period", "clamped",
                reason="requested period %d implies check rate %.4g below "
                       "Equation-2 minimum %.4g" % (
                           effective, 1.0 / effective,
                           result.eq2_min_check_rate),
                requested_period=effective,
                effective_period=max_period,
                eq2_min_check_rate=result.eq2_min_check_rate,
                implied_check_rate=1.0 / effective,
                tolerable_error_rate=TOLERABLE_ERROR_RATE)
            effective = max_period
    result.check_period = effective if result.resident else None
    return effective


def _globals_in_critical_sections(mod: IRModule) -> Set[str]:
    """Globals read or written while a lock is held. The lock depth at
    each block's entry comes from the paths into it, so an access in a
    branch of a ``critical`` body is seen as one."""
    names: Set[str] = set()

    def walk(bb: BasicBlock, depth: int, found: Optional[Set[str]] = None) -> int:
        for instr in bb.all_instrs():
            if isinstance(instr, I.LockAcquire):
                depth += 1
            elif isinstance(instr, I.LockRelease):
                depth = max(0, depth - 1)
            elif depth > 0 and found is not None and isinstance(
                    instr, (I.LoadG, I.StoreG)):
                found.add(instr.g)
        return depth

    for fn in mod.functions.values():
        entry_depth = solve_forward(fn, 0, walk, max)
        for bb in fn.blocks:
            walk(bb, entry_depth.get(bb, 0), names)
    return names


def _globals_accessed_in(mod: IRModule, functions: Set[str],
                         kind: type) -> Set[str]:
    """The globals that ``kind`` (``LoadG`` or ``StoreG``) accesses in
    ``functions``. Selection runs before PAC, so a read is a ``LoadG``."""
    return {instr.g for fname in functions if fname in mod.functions
            for instr in mod.functions[fname].all_instrs()
            if isinstance(instr, kind)}


# -- transformation -------------------------------------------------------------------


def apply(mod: IRModule, result: SwcResult, fast_functions: Set[str],
          check_period: int = 16) -> None:
    """Rewrite fast-path loads of every resident table into Local Memory
    reads of its copy, and instrument all stores with the generation
    bump."""
    resident = {spec.name: spec for spec in result.resident}
    if not resident:
        return
    # The generation bump is a read-modify-write, atomic only because the
    # XScale runs a function to completion. Selection rejects a global
    # stored on the packet path; never instrument one that slipped by.
    me_stored = sorted(_globals_accessed_in(mod, fast_functions, I.StoreG)
                       & set(resident))
    if me_stored:
        raise ValueError(
            "SWC: resident global(s) %s stored from an ME function; a "
            "generation word has one writer, the XScale"
            % ", ".join(me_stored))

    # Materialize the generation words (Scratch: cheap periodic check).
    for spec in result.resident:
        if spec.flag_global not in mod.globals:
            mod.globals[spec.flag_global] = GlobalSymbol(
                SymbolKind.GLOBAL,
                spec.flag_global,
                type=T.U32,
                qualified=spec.flag_global,
                init_values=[0],
                memory="scratch",
            )

    for fname in sorted(fast_functions):
        fn = mod.functions.get(fname)
        if fn is None:
            continue
        if any(isinstance(i, I.LoadG) and i.g in resident
               for i in fn.all_instrs()):
            _insert_periodic_check(fn, result, check_period)
            _make_resident_reads(fn, resident, result)
            dce.run(fn)  # the byte offsets no read needs any more

    # Every store anywhere (control plane, init) bumps the generation
    # *after* the data is in memory, so the refresh it triggers copies
    # the new value.
    for fn in mod.functions.values():
        for bb in fn.blocks:
            new_instrs: List[I.Instr] = []
            for instr in bb.instrs:
                new_instrs.append(instr)
                if isinstance(instr, I.StoreG) and instr.g in resident:
                    flag = resident[instr.g].flag_global
                    gen = fn.new_temp(T.U32, "swc_gen")
                    bumped = fn.new_temp(T.U32)
                    new_instrs += [
                        I.LoadG(gen, flag, Const(0), 4),
                        I.BinOp("add", bumped, gen, Const(1)),
                        I.StoreG(flag, Const(0), bumped, 4),
                    ]
                    result.instrumented_stores += 1
            bb.instrs = new_instrs


def boot_lm_words(result: SwcResult, image: Dict[str, bytes]) -> Dict[int, int]:
    """SWC-region word -> value of every ME's Local Memory at boot, from
    the globals' post-boot bytes: each resident table's copy, and SEEN
    at the generation sum those bytes hold (so no ME flushes for the
    init blocks' stores)."""
    if not result.resident:
        return {}
    words: Dict[int, int] = {}
    for spec in result.resident:
        data = image[spec.name]
        for k in range(spec.words):
            words[spec.replica + k] = int.from_bytes(data[4 * k:4 * k + 4], "big")
    words[SEEN_INDEX] = sum(int.from_bytes(image[spec.flag_global], "big")
                            for spec in result.resident) & 0xFFFFFFFF
    return words


def publish_store(globals_, name: str) -> bool:
    """What a writer outside compiled code (a control-plane model, a
    test) owes the data plane after storing to global ``name`` through
    ``globals_`` (anything with the interpreter's ``load``/``store``):
    the same generation bump :func:`apply` appends to a compiled store.
    Returns whether ``name`` is resident in that program."""
    flag = name + FLAG_SUFFIX
    try:
        gen = globals_.load(flag, 0, 4)
    except KeyError:
        return False
    globals_.store(flag, 0, (gen + 1) & 0xFFFFFFFF, 4)
    return True


def _insert_periodic_check(fn: IRFunction, result: SwcResult,
                           check_period: int) -> None:
    """Prepend the every-i-th-packet coherency check to the function."""
    old_entry_instrs = fn.entry.instrs
    old_terminator = fn.entry.terminator

    body = fn.new_block("swc_body")
    body.instrs = old_entry_instrs
    body.terminator = old_terminator

    check = fn.new_block("swc_check")
    entry = fn.entry
    entry.instrs = []
    entry.terminator = None

    count = fn.new_temp(T.U32, "swc_count")
    entry.append(I.LmLoad(count, Const(COUNTER_INDEX)))
    bumped = fn.new_temp(T.U32)
    entry.append(I.BinOp("add", bumped, count, Const(1)))
    entry.append(I.LmStore(Const(COUNTER_INDEX), bumped))
    over = fn.new_temp(T.BOOL)
    entry.append(I.Cmp("gt_u", over, bumped, Const(check_period)))
    entry.terminate(I.Branch(over, check, body))

    # Read-only on Scratch: an ME that cleared a shared word would hide
    # the update from every ME that has not checked yet.
    check.append(I.LmStore(Const(COUNTER_INDEX), Const(0)))
    acc: Optional[Temp] = None
    for spec in result.resident:
        gen = fn.new_temp(T.U32, "swc_gen")
        check.append(I.LoadG(gen, spec.flag_global, Const(0), 4))
        if acc is None:
            acc = gen
        else:
            merged = fn.new_temp(T.U32)
            check.append(I.BinOp("add", merged, acc, gen))
            acc = merged
    seen = fn.new_temp(T.U32, "swc_seen")
    check.append(I.LmLoad(seen, Const(SEEN_INDEX)))
    moved = fn.new_temp(T.BOOL)
    check.append(I.Cmp("ne", moved, acc, seen))
    flush = fn.new_block("swc_flush")
    check.terminate(I.Branch(moved, flush, body))
    flush.append(I.LmStore(Const(SEEN_INDEX), acc))
    for spec in result.resident:
        flush.append(I.LmFill(spec.name, spec.replica, spec.words))
    flush.terminate(I.Jump(body))


# -- resident reads -------------------------------------------------------------------


def _make_resident_reads(fn: IRFunction, resident: Dict[str, ResidentSpec],
                         result: SwcResult) -> None:
    """Replace every load of a resident table by the Local Memory read of
    its copy."""
    single_defs = single_defs_of(fn)
    # Temps that hold, wherever they are read, the value an offset was
    # computed from: one definition, or a parameter the body never assigns.
    assigned = {d for instr in fn.all_instrs() for d in instr.defs()}
    stable = set(single_defs) | (set(fn.params) - assigned)

    for bb in fn.blocks:
        new_instrs: List[I.Instr] = []
        for instr in bb.instrs:
            spec = resident.get(instr.g) if isinstance(instr, I.LoadG) else None
            if spec is None:
                new_instrs.append(instr)
                continue
            index, word = _word_index(instr.offset, single_defs, stable,
                                      spec.words)
            if index is None:
                index = fn.new_temp(T.U32, "swc_word")
                new_instrs.append(I.BinOp("lshr", index, instr.offset, Const(2)))
            if _TEST_MUTATION == "resident_off_by_one":
                word += 1
            read = I.LoadResident(instr.dst, instr.g, index, word, instr.width,
                                  spec.replica)
            read.loc = instr.loc
            new_instrs.append(read)
            result.rewritten_loads += 1
        bb.instrs = new_instrs


def _word_index(offset: Operand, single_defs, stable: Set[Temp],
                words: int) -> Tuple[Optional[Operand], int]:
    """``(index, word)`` with ``offset == (index + word) * 4`` and ``word``
    a word of the table, read off the ``+ const`` and ``<< const`` steps
    that computed the byte offset down to a stable word index:
    ``(row + 3) << 2`` is ``(row, 3)``, and the steps become dead.
    ``(None, 0)`` when there is none (the caller shifts the offset)."""
    (leaf, shift), delta, _ = normalize_offset(offset, single_defs,
                                               max_shift=2)
    word = (delta >> 2) & 0xFFFFFFFF  # storage is word-granular
    if leaf is None:
        return Const(0), word
    if shift == 2 and delta % 4 == 0 and leaf in stable and word < words:
        return leaf, word
    return None, 0
