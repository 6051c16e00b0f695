"""Compiler-side observability: per-stage IR size tracking and the
opt-pass counters reported by PAC / SOAR / PHR / SWC.

:func:`record_ir_stage` snapshots module size after each pipeline stage
(gauges labelled ``stage=...``), so the report can show the IR deltas
each stage produced. :func:`record_opt_results` flattens the result
dataclasses the packet optimizations already return into counters.
"""

from __future__ import annotations

from typing import Tuple

from repro.obs.metrics import MetricsRegistry


def ir_counts(mod) -> Tuple[int, int, int]:
    """(functions, blocks, instructions) for an IR module."""
    n_fns = len(mod.functions)
    n_blocks = 0
    n_instrs = 0
    for fn in mod.functions.values():
        n_blocks += len(fn.blocks)
        for bb in fn.blocks:
            n_instrs += len(bb.instrs)
    return n_fns, n_blocks, n_instrs


def record_ir_stage(reg: MetricsRegistry, stage: str, mod) -> None:
    """Record module size after ``stage`` (no-op when ``reg`` is
    disabled -- the counting walk is skipped entirely)."""
    if not reg.enabled:
        return
    n_fns, n_blocks, n_instrs = ir_counts(mod)
    reg.gauge("compile.ir.functions", stage=stage).set(n_fns)
    reg.gauge("compile.ir.blocks", stage=stage).set(n_blocks)
    reg.gauge("compile.ir.instrs", stage=stage).set(n_instrs)


def record_opt_results(reg: MetricsRegistry, result) -> None:
    """Flatten the PAC/SOAR/PHR/SWC result objects on a CompileResult
    into ``opt.*`` counters/gauges."""
    if not reg.enabled:
        return
    pac = result.pac_result
    if pac is not None:
        reg.counter("opt.pac.combined_loads").inc(pac.combined_loads)
        reg.counter("opt.pac.anchored_loads").inc(pac.anchored_loads)
        reg.counter("opt.pac.combined_stores").inc(pac.combined_stores)
        reg.counter("opt.pac.wide_loads").inc(pac.wide_loads)
        reg.counter("opt.pac.wide_stores").inc(pac.wide_stores)
        reg.counter("opt.pac.combined_global_loads").inc(pac.combined_global_loads)
        reg.counter("opt.pac.wide_global_loads").inc(pac.wide_global_loads)
    soar = result.soar_result
    if soar is not None:
        reg.counter("opt.soar.resolved_accesses").inc(soar.resolved_accesses)
        reg.counter("opt.soar.total_accesses").inc(soar.total_accesses)
        reg.gauge("opt.soar.resolution_rate").set(round(soar.resolution_rate, 4))
    phr = result.phr_result
    if phr is not None:
        reg.counter("opt.phr.localized_meta_fields").inc(
            len(phr.localized_meta_fields))
        reg.counter("opt.phr.elided_encaps").inc(phr.elided_encaps)
        reg.counter("opt.phr.syncs_inserted").inc(phr.syncs_inserted)
        reg.counter("opt.phr.state_functions").inc(phr.state_functions)
        reg.counter("opt.phr.state_writebacks").inc(phr.state_writebacks)
        reg.counter("opt.phr.state_clean_sites").inc(phr.state_clean_sites)
    swc = result.swc_result
    if swc is not None:
        reg.counter("opt.swc.cached_globals").inc(len(swc.cached))
        reg.counter("opt.swc.rejected_globals").inc(len(swc.rejected))
        reg.counter("opt.swc.rewritten_loads").inc(swc.rewritten_loads)
        reg.counter("opt.swc.instrumented_stores").inc(swc.instrumented_stores)
