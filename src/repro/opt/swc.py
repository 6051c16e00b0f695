"""SWC: delayed-update software-controlled caching (paper section 5.2).

The IXP MEs have no hardware caches, but each ME has a 16-entry CAM and
640 words of Local Memory. SWC turns hot, rarely-written global loads
into Local Memory reads, two ways:

* **Candidate selection** uses functional-profiler statistics: a global
  qualifies when it is read frequently on the packet path, written
  rarely (control/init path only) and never accessed inside a critical
  section. Selection runs once, before PAC (which then leaves every
  selected global's loads narrow, so each is rewritten here).
* **CAM caching** (the paper's mechanism): a candidate small-grained
  enough to cache (power-of-two line size <= the line budget) whose
  observed load stream would hit well in 16 lines gets CAM-tagged
  lines in Local Memory.
* **Residency**: a candidate the CAM turns down (hit rate, working set,
  CAM capacity or line geometry) whose *whole table* fits the words of
  the SWC region the CAM left is copied into every ME's Local Memory,
  hottest first. Each read becomes one indexed Local Memory read; the
  loader fills the copies at boot. This is what keeps Firewall's rule
  table, which defeats the CAM, out of SRAM.
* **Delayed-update coherency**: a writer bumps a per-global
  *generation word* in Scratch after its data store; the packet path
  compares the generations against the value it last saw (``SEEN``, in
  its own Local Memory) only every *i*-th packet (Equation 2 gives the
  minimum check rate from the tolerable packet error rate) and, when
  they differ, clears the whole CAM and refreshes every resident copy
  from SRAM. MEs never write the generation words, so every ME sees
  every update -- the paper's test-and-clear flag is consumed by the
  first ME that checks. Between checks, cached entries and resident
  copies may be stale -- acceptable in error-tolerant packet
  applications, the paper's central observation.

The load-path rewrite (paper Figure 8)::

    count++                       (Local Memory)
    if count > check_limit:
        count = 0
        gen = sum of generations  (one Scratch read each per period)
        if gen != seen:           (Local Memory)
            seen = gen; cam_clear; refresh resident copies
    r = cam_lookup(key)
    if hit:  value = LM[line(r) + word]
    else:    value = SRAM load; cam_write; LM fill

and a resident read is ``value = LM[table base + index]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

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
# the packet counter, SEEN (the generation sum this ME last flushed for),
# the sixteen CAM lines if the CAM caches anything, then the resident
# tables.
COUNTER_INDEX = 0
SEEN_INDEX = 1
CACHE_BASE = 2
CAM_ENTRIES = 16
MAX_LINE_WORDS = 8
# The CAM is shared by every cached global, so line slots use a uniform
# stride: entry E always owns LM words [CACHE_BASE + 8E, CACHE_BASE + 8E+8).
LINE_STRIDE_WORDS = MAX_LINE_WORDS
CACHE_WORDS = CAM_ENTRIES * LINE_STRIDE_WORDS  # 128

# ``<global>.__swc_flag``: the Scratch generation word of a selected global.
FLAG_SUFFIX = ".__swc_flag"

# Test-only fault injection (tests/test_analyze_mutations.py), each a
# deliberately broken rewrite the differential oracle must catch:
# "wrong_slot" -- the hit path reads one LM word past the true cache
# slot; "resident_off_by_one" -- a resident read takes the word after
# the one it replaced. Never set outside tests.
_TEST_MUTATION = None

# Selection thresholds.
MIN_LOADS_PER_PACKET = 0.4
MAX_STORE_LOAD_RATIO = 0.01
MIN_HIT_RATE = 0.70
# Fraction of a structure's loads its hot lines must cover when sizing
# its claim on the shared 16-entry CAM.
WORKING_SET_FRACTION = 0.8
# The paper's tolerable packet error rate (section 5.2): Equation 2
# derives the minimum per-packet update-check rate from it. Every
# accepted candidate's minimum must be satisfiable by the configured
# check period -- enforced at compile time by enforce_check_period.
TOLERABLE_ERROR_RATE = 0.01


@dataclass
class CacheSpec:
    """One cached global: key space and line geometry."""

    name: str
    gid: int  # key tag
    line_bytes: int  # power of two
    line_words: int
    flag_global: str  # name of the generation-word global


@dataclass
class ResidentSpec:
    """One resident table: its whole copy in every ME's Local Memory."""

    name: str
    replica: int  # first SWC-region word of the copy
    words: int
    flag_global: str


@dataclass
class SwcResult:
    cached: List[CacheSpec] = field(default_factory=list)
    resident: List[ResidentSpec] = field(default_factory=list)
    #: name -> why selection or the CAM turned it down (a resident
    #: table keeps the CAM's reason).
    rejected: Dict[str, str] = field(default_factory=dict)
    rewritten_loads: int = 0
    instrumented_stores: int = 0
    #: Largest Equation-2 minimum check rate over the accepted
    #: candidates (0.0 when none store during the profile). The
    #: configured check period must keep 1/period >= this.
    eq2_min_check_rate: float = 0.0
    #: Check period the options requested, and the period actually
    #: compiled in after Equation-2 enforcement (None until
    #: enforce_check_period runs or when nothing is cached).
    requested_check_period: Optional[int] = None
    check_period: Optional[int] = None

    def cached_names(self) -> List[str]:
        return [c.name for c in self.cached]

    def selected(self) -> List[Union[CacheSpec, ResidentSpec]]:
        """Every global SWC serves from Local Memory: the CAM-cached
        ones, then the resident ones (the generation words are summed
        in this order)."""
        return list(self.cached) + list(self.resident)


def min_check_rate(r_error: float, r_store: float, r_load: float) -> float:
    """Equation 2: minimum per-packet update-check rate."""
    if r_error <= 0:
        raise ValueError("tolerable error rate must be positive")
    return r_store * r_load / r_error


def _line_geometry(sym: GlobalSymbol) -> Optional[Tuple[int, int]]:
    """(line_bytes, line_words) for a global, or None if uncacheable.
    The line is one array element (the whole value for scalars). The
    element stride must be a power of two so the line index is a shift
    of the byte offset (the ME has no divide instruction)."""
    gtype = sym.type
    elem = gtype.element if isinstance(gtype, T.ArrayType) else gtype
    size = elem.size_bytes()
    if size & (size - 1) != 0:
        return None
    if size > MAX_LINE_WORDS * 4:
        return None
    return size, size // 4


def select_candidates(mod: IRModule, profile: ProfileData,
                      fast_functions: Set[str]) -> SwcResult:
    """Choose globals to cache and globals to keep resident.
    ``fast_functions`` are the ME-mapped aggregate functions (loads
    elsewhere are control path)."""
    result = SwcResult()
    packets = max(profile.packets_in, 1)

    def _reject(name, reason, **evidence):
        result.rejected[name] = reason
        obs_ledger.record("swc", name, "rejected", reason=reason, **evidence)

    in_critical = _globals_in_critical_sections(mod)
    fast_loaded = _globals_accessed_in(mod, fast_functions, I.LoadG)
    fast_stored = _globals_accessed_in(mod, fast_functions, I.StoreG)

    screened = []  # (loads_per_packet, name, sym, line_bytes, line_words, stats)
    turned_down = []  # (loads_per_packet, name, sym, stats): residency's pool
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
        geometry = _line_geometry(sym)
        if geometry is None:
            _reject(name, "element too large for a cache line")
            turned_down.append((loads_per_packet, name, sym, stats))
            continue
        line_bytes, line_words = geometry
        hit = stats.estimated_hit_rate(CAM_ENTRIES, line_words)
        if hit < MIN_HIT_RATE:
            _reject(name, "estimated hit rate too low (%.2f)" % hit,
                    hit_rate=hit, min_hit_rate=MIN_HIT_RATE,
                    loads_per_packet=loads_per_packet)
            turned_down.append((loads_per_packet, name, sym, stats))
            continue
        screened.append((loads_per_packet, name, sym, line_bytes, line_words, stats))

    # The 16 CAM entries are shared by every cached structure: admit the
    # hottest candidates while their working sets fit, so a structure
    # whose hot lines alone overflow the CAM (e.g. a scanned firewall
    # rule list) is never cached.
    screened.sort(key=lambda row: (-row[0], row[1]))
    capacity = CAM_ENTRIES
    gid = 1
    for loads_per_packet, name, sym, line_bytes, line_words, stats in screened:
        ws = stats.working_set_lines(WORKING_SET_FRACTION, line_words)
        if ws > CAM_ENTRIES // 2:
            # Suitable candidates are *small* structures; one that needs
            # most of the CAM to itself would thrash everything else.
            _reject(name, "working set too large (%d lines)" % ws,
                    working_set_lines=ws, cam_entries=CAM_ENTRIES)
            turned_down.append((loads_per_packet, name, sym, stats))
            continue
        if ws > capacity:
            _reject(name,
                    "working set (%d lines) exceeds remaining CAM capacity (%d)"
                    % (ws, capacity),
                    working_set_lines=ws, cam_capacity_left=capacity)
            turned_down.append((loads_per_packet, name, sym, stats))
            continue
        eq2 = _admissible_check_rate(name, stats, packets, _reject)
        if eq2 is None:
            continue
        # Hit rate at the CAM capacity this structure actually competes
        # for -- earlier admissions shrank it, so the full-CAM estimate
        # from screening would be stale evidence.
        hit_rate = stats.estimated_hit_rate(min(capacity, CAM_ENTRIES),
                                            line_words)
        capacity -= ws
        result.cached.append(
            CacheSpec(name, gid, line_bytes, line_words, name + FLAG_SUFFIX)
        )
        result.eq2_min_check_rate = max(result.eq2_min_check_rate, eq2)
        # Equation 2 evidence at the paper's 1% tolerable error rate.
        obs_ledger.record(
            "swc", name, "accepted",
            reason="hot, rarely written, working set fits the CAM",
            gid=gid, line_bytes=line_bytes,
            loads_per_packet=loads_per_packet,
            stores_per_packet=stats.stores / packets,
            hit_rate=hit_rate,
            cam_capacity=capacity + ws,
            working_set_lines=ws,
            eq2_min_check_rate=eq2)
        gid += 1

    # What the CAM turned down is kept whole in Local Memory if it fits
    # the words the CAM left, hottest first.
    replica = CACHE_BASE + (CACHE_WORDS if result.cached else 0)
    turned_down.sort(key=lambda row: (-row[0], row[1]))
    for loads_per_packet, name, sym, stats in turned_down:
        words = sym.type.size_words()
        words_left = SWC_REGION_WORDS - replica
        if words > words_left:
            _reject(name, "%s; table does not fit Local Memory (%d words, "
                          "%d left)" % (result.rejected[name], words,
                                        words_left),
                    words=words, words_left=words_left)
            continue
        eq2 = _admissible_check_rate(name, stats, packets, _reject)
        if eq2 is None:
            continue
        result.resident.append(
            ResidentSpec(name, replica, words, name + FLAG_SUFFIX))
        result.eq2_min_check_rate = max(result.eq2_min_check_rate, eq2)
        obs_ledger.record(
            "swc", name, "resident",
            reason="turned down by the CAM, whole table fits Local Memory",
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
    if result.selected() and result.eq2_min_check_rate > 0.0:
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
    result.check_period = effective if result.selected() else None
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
    """Rewrite fast-path loads of every selected global -- CAM lookups
    for the cached ones, Local Memory reads for the resident ones -- and
    instrument all stores with the generation bump."""
    selected = {spec.name: spec for spec in result.selected()}
    if not selected:
        return
    # The generation bump is a read-modify-write, atomic only because the
    # XScale runs a function to completion. Selection rejects a global
    # stored on the packet path; never instrument one that slipped by.
    me_stored = sorted(_globals_accessed_in(mod, fast_functions, I.StoreG)
                       & set(selected))
    if me_stored:
        raise ValueError(
            "SWC: cached global(s) %s stored from an ME function; a "
            "generation word has one writer, the XScale"
            % ", ".join(me_stored))

    # Materialize the generation words (Scratch: cheap periodic check).
    for spec in result.selected():
        if spec.flag_global not in mod.globals:
            mod.globals[spec.flag_global] = GlobalSymbol(
                SymbolKind.GLOBAL,
                spec.flag_global,
                type=T.U32,
                qualified=spec.flag_global,
                init_values=[0],
                memory="scratch",
            )

    cached = {c.name: c for c in result.cached}
    resident = {r.name: r for r in result.resident}
    for fname in sorted(fast_functions):
        fn = mod.functions.get(fname)
        if fn is None:
            continue
        if any(
            isinstance(i, I.LoadG) and i.g in selected for i in fn.all_instrs()
        ):
            _insert_periodic_check(fn, result, check_period)
            _rewrite_loads(fn, cached, result)
            if _make_resident_reads(fn, resident, result):
                dce.run(fn)  # the byte offsets no read needs any more

    # Every store anywhere (control plane, init) bumps the generation
    # *after* the data is in memory, so a flush it triggers refills with
    # the new value.
    for fn in mod.functions.values():
        for bb in fn.blocks:
            new_instrs: List[I.Instr] = []
            for instr in bb.instrs:
                new_instrs.append(instr)
                if isinstance(instr, I.StoreG) and instr.g in selected:
                    flag = selected[instr.g].flag_global
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
    selected = result.selected()
    if not selected:
        return {}
    words: Dict[int, int] = {}
    for spec in result.resident:
        data = image[spec.name]
        for k in range(spec.words):
            words[spec.replica + k] = int.from_bytes(data[4 * k:4 * k + 4], "big")
    words[SEEN_INDEX] = sum(int.from_bytes(image[spec.flag_global], "big")
                            for spec in selected) & 0xFFFFFFFF
    return words


def publish_store(globals_, name: str) -> bool:
    """What a writer outside compiled code (a control-plane model, a
    test) owes the data plane after storing to global ``name`` through
    ``globals_`` (anything with the interpreter's ``load``/``store``):
    the same generation bump :func:`apply` appends to a compiled store.
    Returns whether ``name`` is SWC-cached in that program."""
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
    for spec in result.selected():
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
    if result.cached:
        flush.append(I.CamClear())
    for spec in result.resident:
        flush.append(I.LmFill(spec.name, spec.replica, spec.words))
    flush.terminate(I.Jump(body))


def _rewrite_loads(fn: IRFunction, specs: Dict[str, CacheSpec],
                   result: SwcResult) -> None:
    """One forward pass over the blocks. A split appends its tail block,
    which the pass reaches in turn; the miss block it returns holds the
    line fills, which stay loads."""
    fills: Set[BasicBlock] = set()
    for bb in fn.blocks:  # grows while the pass runs
        if bb in fills:
            continue
        for idx, instr in enumerate(bb.instrs):
            if isinstance(instr, I.LoadG) and instr.g in specs:
                fills.add(_rewrite_one_load(fn, bb, idx, instr,
                                            specs[instr.g], result))
                break


def _rewrite_one_load(fn: IRFunction, bb: BasicBlock, idx: int, load: I.LoadG,
                      spec: CacheSpec, result: SwcResult) -> BasicBlock:
    """Split the block around the load and emit hit/miss paths. The miss
    path fills the *entire* line, installs the CAM tag, then joins the
    hit path, which reads the requested word(s) from Local Memory.
    Returns the miss block."""
    tail = fn.new_block("swc_tail")
    tail.instrs = bb.instrs[idx + 1 :]
    tail.terminator = bb.terminator
    bb.instrs = bb.instrs[:idx]
    bb.terminator = None

    line_shift = spec.line_bytes.bit_length() - 1

    # key = (gid << 24) | (offset >> line_shift)
    line_idx = fn.new_temp(T.U32, "swc_line")
    bb.append(I.BinOp("lshr", line_idx, load.offset, Const(line_shift)))
    key = fn.new_temp(T.U32, "swc_key")
    bb.append(I.BinOp("or", key, line_idx, Const(spec.gid << 24)))

    lookup = fn.new_temp(T.U32, "swc_cam")
    bb.append(I.CamLookup(lookup, key))
    entry = fn.new_temp(T.U32, "swc_entry")
    bb.append(I.BinOp("lshr", entry, lookup, Const(1)))
    hit_word = fn.new_temp(T.U32)
    bb.append(I.BinOp("and", hit_word, lookup, Const(1)))
    hit = fn.new_temp(T.BOOL, "swc_hit")
    bb.append(I.Cmp("ne", hit, hit_word, Const(0)))

    # line base slot in Local Memory = CACHE_BASE + entry * LINE_STRIDE
    scaled = fn.new_temp(T.U32)
    bb.append(I.BinOp("shl", scaled, entry,
                      Const(LINE_STRIDE_WORDS.bit_length() - 1)))
    line_base = fn.new_temp(T.U32, "swc_base")
    bb.append(I.BinOp("add", line_base, scaled, Const(CACHE_BASE)))

    hit_bb = fn.new_block("swc_hit")
    miss_bb = fn.new_block("swc_miss")
    bb.terminate(I.Branch(hit, hit_bb, miss_bb))

    # Miss path: fill the whole line from SRAM, install tag, join hit path.
    line_off = fn.new_temp(T.U32, "swc_loff")
    miss_bb.append(I.BinOp("and", line_off, load.offset,
                           Const((~(spec.line_bytes - 1)) & 0xFFFFFFFF)))
    word = 0
    while word < spec.line_words:
        chunk_off = fn.new_temp(T.U32)
        miss_bb.append(I.BinOp("add", chunk_off, line_off, Const(word * 4)))
        slot = fn.new_temp(T.U32)
        miss_bb.append(I.BinOp("add", slot, line_base, Const(word)))
        if spec.line_words - word >= 2:
            v64 = fn.new_temp(T.U64)
            miss_bb.append(I.LoadG(v64, load.g, chunk_off, 8))
            hi64 = fn.new_temp(T.U64)
            miss_bb.append(I.BinOp("lshr", hi64, v64, Const(32)))
            hi = fn.new_temp(T.U32)
            miss_bb.append(I.BinOp("and", hi, hi64, Const(0xFFFFFFFF, T.U64)))
            lo = fn.new_temp(T.U32)
            miss_bb.append(I.BinOp("and", lo, v64, Const(0xFFFFFFFF, T.U64)))
            miss_bb.append(I.LmStore(slot, hi))
            slot2 = fn.new_temp(T.U32)
            miss_bb.append(I.BinOp("add", slot2, line_base, Const(word + 1)))
            miss_bb.append(I.LmStore(slot2, lo))
            word += 2
        else:
            v32 = fn.new_temp(T.U32)
            miss_bb.append(I.LoadG(v32, load.g, chunk_off, 4))
            miss_bb.append(I.LmStore(slot, v32))
            word += 1
    miss_bb.append(I.CamWrite(entry, key))
    miss_bb.terminate(I.Jump(hit_bb))

    # Hit path (also the miss join): read the requested word(s) from LM.
    within = fn.new_temp(T.U32)
    hit_bb.append(I.BinOp("and", within, load.offset, Const(spec.line_bytes - 1)))
    within_words = fn.new_temp(T.U32)
    hit_bb.append(I.BinOp("lshr", within_words, within, Const(2)))
    if _TEST_MUTATION == "wrong_slot":
        skewed = fn.new_temp(T.U32)
        hit_bb.append(I.BinOp("add", skewed, within_words, Const(1)))
        within_words = skewed
    slot_h = fn.new_temp(T.U32)
    hit_bb.append(I.BinOp("add", slot_h, line_base, within_words))
    if load.width == 8:
        hi = fn.new_temp(T.U32)
        lo = fn.new_temp(T.U32)
        hit_bb.append(I.LmLoad(hi, slot_h))
        slot_h2 = fn.new_temp(T.U32)
        hit_bb.append(I.BinOp("add", slot_h2, slot_h, Const(1)))
        hit_bb.append(I.LmLoad(lo, slot_h2))
        wide = fn.new_temp(T.U64)
        hit_bb.append(I.BinOp("shl", wide, hi, Const(32)))
        hit_bb.append(I.BinOp("or", load.dst, wide, lo))
    else:
        hit_bb.append(I.LmLoad(load.dst, slot_h))
    hit_bb.terminate(I.Jump(tail))

    result.rewritten_loads += 1
    return miss_bb


# -- resident reads -------------------------------------------------------------------


def _make_resident_reads(fn: IRFunction, resident: Dict[str, ResidentSpec],
                         result: SwcResult) -> bool:
    """Replace every load of a resident table by the Local Memory read of
    its copy. Returns whether any load was replaced."""
    single_defs = single_defs_of(fn)
    # Temps that hold, wherever they are read, the value an offset was
    # computed from: one definition, or a parameter the body never assigns.
    assigned = {d for instr in fn.all_instrs() for d in instr.defs()}
    stable = set(single_defs) | (set(fn.params) - assigned)

    rewrote = False
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
            rewrote = True
        bb.instrs = new_instrs
    return rewrote


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
