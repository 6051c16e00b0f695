"""The Shangri-La compiler driver (paper Figure 5).

Pipeline::

    Baker source
      -> parse + semantic check                 (front-end)
      -> lower to IR                            (WHIRL analogue)
      -> functional profiler over a trace       (exec/access statistics)
      -> scalar opts + inlining                 (-O1 / -O2)
      -> aggregation (merge/duplicate, CC->call, map to MEs/XScale)
      -> loop peeling, SWC selection, PAC, SOAR, PHR, SWC
                                                (packet optimizations)
      -> code generation per aggregate          (CGIR, regalloc, stack)

Which stages run is a function of the cumulative level
(:class:`~repro.options.CompilerOptions`), BASE..+SWC as in the paper.
The first three do not depend on the level: a process parses, checks and
profiles one (source, trace) once, and every level lowers its own module
from the shared checked program.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.aggregation.aggregate import AggregationPlan
from repro.aggregation.formation import apply_plan, form_aggregates
from repro.baker import parse_and_check
from repro.baker.lowering import lower_program
from repro.baker.semantic import CheckedProgram
from repro.ir.module import IRModule
from repro.ir.verifier import verify_module
from repro.obs import ledger as obs_ledger
from repro.obs.trace import compile_stage
from repro.opt import inline, pac, peel, phr, soar, swc
from repro.opt.pipeline import run_scalar_pipeline, scalar_optimize_module
from repro.options import CompilerOptions, options_for
from repro.profiler.interpreter import reference_run
from repro.profiler.stats import ProfileData
from repro.profiler.trace import Trace


@dataclass
class CompileResult:
    """Everything produced by a compilation, through code generation."""

    checked: CheckedProgram
    mod: IRModule
    profile: ProfileData
    plan: AggregationPlan
    opts: CompilerOptions
    soar_result: Optional[soar.SoarResult] = None
    pac_result: Optional[pac.PacResult] = None
    phr_result: Optional[phr.PhrResult] = None
    swc_result: Optional[swc.SwcResult] = None
    # Filled by the code generator (repro.cg.assemble):
    images: Dict[str, object] = field(default_factory=dict)  # aggregate -> MEImage
    fast_functions: Set[str] = field(default_factory=set)
    # Every decision the passes recorded while compiling this result, in
    # order (repro.obs.ledger.collecting; codegen appends its own).
    decisions: List[object] = field(default_factory=list)
    # IR size after each mid-end stage, in pipeline order (see
    # repro.obs.ledger.compile_report).
    ir_stages: List[Dict[str, object]] = field(default_factory=list)
    # Global contents after the init blocks ran, filled by the first
    # rts.loader.load_system of this result (see loader.boot_image).
    boot_image: Optional[Dict[str, bytes]] = field(default=None, repr=False)


def compile_ir(
    mod: IRModule,
    checked: CheckedProgram,
    opts: CompilerOptions,
    trace: Trace,
) -> CompileResult:
    """Run the mid-end (profile, optimize, aggregate, packet opts) over
    ``mod``, a fresh ``lower_program(checked)``; every decision the passes
    record lands in the result's ``decisions``. The profile comes from
    ``checked``'s reference run over ``trace``, which every level shares
    (:func:`~repro.profiler.interpreter.reference_run`; the first level
    interprets ``mod`` before any pass runs); the result owns its copy."""
    decisions: List[object] = []
    ir_stages: List[Dict[str, object]] = []

    def record_ir_stage(stage: str) -> None:
        n_fns, n_blocks, n_instrs = obs_ledger.ir_counts(mod)
        ir_stages.append({"stage": stage, "functions": n_fns,
                          "blocks": n_blocks, "instrs": n_instrs})

    record_ir_stage("initial")

    with compile_stage("profile"):
        profile = copy.deepcopy(reference_run(checked, trace, mod).profile)

    with obs_ledger.collecting(decisions):
        with compile_stage("scalar"):
            run_scalar_pipeline(mod, opts)
        record_ir_stage("scalar")

        with compile_stage("aggregate"):
            plan = form_aggregates(mod, profile, opts)
            apply_plan(mod, plan)
            if opts.inline:
                # Complete the merges: internally-called PPFs inline away.
                inline.run(mod)
            _prune_dead_functions(mod, plan)
            if opts.pac:
                # The head-moving loops, peeled where the ME runs them,
                # for PAC, SOAR and PHR to see a known head.
                peel.run(mod, profile, plan.fast_functions(mod))
            if opts.scalar:
                scalar_optimize_module(mod)
        record_ir_stage("aggregate")

        result = CompileResult(checked=checked, mod=mod, profile=profile,
                               plan=plan, opts=opts, decisions=decisions,
                               ir_stages=ir_stages)

        # SWC selects from what PAC, SOAR and PHR leave alone (the
        # profile, the ME functions, their global reads and writes, lock
        # scopes), so it selects first and PAC keeps the loads of every
        # selected global narrow for the rewrite to find.
        result.fast_functions = plan.fast_functions(mod)
        narrow: Set[str] = set()
        if opts.swc:
            with compile_stage("swc"):
                result.swc_result = swc.select_candidates(
                    mod, profile, result.fast_functions)
                period = swc.enforce_check_period(result.swc_result,
                                                  opts.swc_check_period)
            narrow = set(result.swc_result.cached_names())

        if opts.pac:
            with compile_stage("pac"):
                result.pac_result = pac.run(mod, narrow)
            record_ir_stage("pac")
        if opts.soar:
            with compile_stage("soar"):
                result.soar_result = soar.run(mod)
            record_ir_stage("soar")
        if opts.phr:
            with compile_stage("phr"):
                result.phr_result = phr.run(mod)
                scalar_optimize_module(mod)
                # PHR re-bases accesses of elided encap/decap pairs onto
                # one common head, so a second combining pass can merge
                # accesses across former protocol boundaries (the paper's
                # dependence analysis reaches the same result in one
                # pass); SOAR then re-annotates the new wide accesses.
                result.pac_result += pac.run(mod, narrow)
                result.soar_result = soar.run(mod)
                scalar_optimize_module(mod)
            record_ir_stage("phr")

        if opts.swc:
            with compile_stage("swc"):
                swc.apply(mod, result.swc_result, result.fast_functions,
                          check_period=period)
            record_ir_stage("swc")
        if opts.phr:
            phr.plan_packet_state(mod, result.fast_functions,
                                  result.phr_result)

    with compile_stage("verify"):
        verify_module(mod)
    return result


def _prune_dead_functions(mod: IRModule, plan: AggregationPlan) -> None:
    """Drop functions made unreachable by aggregation + inlining: a PPF
    whose every input channel became a direct call (and was then inlined
    everywhere) no longer exists as code, and keeping its body around
    would confuse whole-program analyses (e.g. PHR's metadata
    localization counts access sites per function)."""
    from repro.ir.callgraph import CallGraph

    changed = True
    while changed:
        changed = False
        cg = CallGraph(mod)
        for name, fn in list(mod.functions.items()):
            if fn.kind == "init":
                continue
            if fn.kind == "ppf":
                external = [c for c in fn.input_channels
                            if c not in plan.internal_channels]
                if external:
                    continue  # still dispatched from a ring
            if cg.callers.get(name):
                continue
            del mod.functions[name]
            changed = True
    live = set(mod.functions)
    for agg in plan.me_aggregates + plan.xscale_aggregates:
        agg.ppfs = [p for p in agg.ppfs if p in live]


def compile_baker(
    source: str,
    opts: Optional[CompilerOptions] = None,
    trace: Optional[Trace] = None,
    filename: str = "<baker>",
    codegen: bool = True,
) -> CompileResult:
    """Compile Baker source through the full Shangri-La pipeline.

    ``trace`` drives the functional profiler (required for meaningful
    aggregation and SWC decisions; an empty trace degrades gracefully).
    Set ``codegen=False`` to stop after the mid-end (IR level).
    """
    if opts is None:
        opts = options_for("SWC")
    if trace is None:
        trace = Trace([])
    with compile_stage("frontend"):
        checked = parse_and_check(source, filename)
    with compile_stage("lower"):
        mod = lower_program(checked)
    result = compile_ir(mod, checked, opts, trace)
    if codegen:
        from repro.cg.assemble import generate_images

        with compile_stage("codegen"):
            generate_images(result)
    return result
