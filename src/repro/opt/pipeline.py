"""Optimization pass pipeline (the paper's "IPA and global optimizer"
scalar portion plus the WOPT stage of the code generator)."""

from __future__ import annotations

from repro.ir.cfg import simplify_cfg
from repro.ir.module import IRFunction, IRModule
from repro.obs import ledger as obs_ledger
from repro.opt import dce, inline, propagate
from repro.options import CompilerOptions

_MAX_ITER = 12

# The -O1 pass set: CFG cleanup, the scalar rewrites, dead code.
_SCALAR_PASSES = (simplify_cfg, propagate.run, dce.run)


def scalar_optimize_function(fn: IRFunction) -> None:
    """Run the -O1 scalar pass set on one function to fixpoint."""
    for _ in range(_MAX_ITER):
        changed = False
        for pass_run in _SCALAR_PASSES:
            if pass_run(fn):
                changed = True
        if not changed:
            return
    # The fixpoint loop ran out of budget while passes were still
    # reporting changes: the result is still correct (each pass is
    # sound in isolation) but possibly under-optimized.
    obs_ledger.record(
        "scalar", fn.name, "fixpoint_exhausted",
        reason="still changing after _MAX_ITER iterations",
        iterations=_MAX_ITER, max_iter=_MAX_ITER)


def scalar_optimize_module(mod: IRModule) -> None:
    for fn in mod.functions.values():
        scalar_optimize_function(fn)


def run_scalar_pipeline(mod: IRModule, opts: CompilerOptions) -> None:
    """Apply -O1/-O2 (scalar + inlining) according to ``opts``."""
    if opts.inline:
        inline.run(mod)
    if opts.scalar:
        scalar_optimize_module(mod)
