"""Final assembly: per-aggregate ME images.

Lowers every function reachable from an aggregate's entry PPFs, runs
register allocation, places stack frames, flattens everything (dispatch
loop first, then functions, then the shared packet helpers), resolves
branch targets, and enforces the 4096-instruction control store limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cg.isa import Bal, Br, Insn, LIRFunction, Rtn
from repro.cg.lower import CodegenError, LowerContext, lower_function
from repro.cg.codesize import record_budget_fit
from repro.cg.melayout import CODE_STORE_WORDS, record_stack_fit
from repro.cg.regalloc import allocate_function
from repro.cg.stack import StackLayoutResult, layout_frames, resolve_stack_accesses
from repro.ir.callgraph import CallGraph
from repro.obs import ledger as obs_ledger
from repro.rts.dispatch import DISPATCH_NAME, build_dispatch


@dataclass
class MEImage:
    """Everything an ME needs to run one aggregate."""

    name: str
    insns: List[Insn] = field(default_factory=list)
    entry: int = 0
    label_index: Dict[str, int] = field(default_factory=dict)
    code_size: int = 0
    functions: List[str] = field(default_factory=list)
    stack_layout: Optional[StackLayoutResult] = None
    inputs: List[Tuple[str, str]] = field(default_factory=list)  # (ring, entry)
    # Predecoded step programs, as (used_symbols, prog) pairs: programs
    # capture no chip-owned objects, only resolved symbol values, so a
    # program built for one chip is reused by any later chip whose
    # symbol table matches -- repeated simulator runs skip the decode
    # entirely.
    _decode_plans: list = field(default_factory=list, repr=False,
                                compare=False)
    #: What the cached programs were decoded from (:meth:`_content`).
    _decoded_from: Optional[tuple] = field(default=None, repr=False,
                                           compare=False)

    def describe(self) -> str:
        return "%s: %d instrs (%d control-store words), %d functions" % (
            self.name, len(self.insns), self.code_size, len(self.functions))

    # Predecoded programs are exec-generated closures -- per-process
    # artifacts that cannot (and must not) cross a pickle boundary. A
    # cached image deserializes with no programs and rebuilds them
    # lazily on first dispatch.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_decode_plans"] = []
        state["_decoded_from"] = None
        return state

    def _content(self, copy: bool = False) -> tuple:
        """Everything a decode reads of this image: the entry, the
        instruction objects in order, and each one's fields. ``copy``
        takes list fields (register lists) by value, for a snapshot;
        comparing the live form against a snapshot is then C-level
        equality that short-cuts on identity, so an unedited image
        costs no formatting and no Python call per instruction."""
        if not copy:
            return self.entry, self.insns, list(map(vars, self.insns))
        return self.entry, list(self.insns), [
            {k: v[:] if type(v) is list else v for k, v in vars(i).items()}
            for i in self.insns]

    def predecoded(self, chip):
        """The fast-dispatch program for this image on ``chip``: every
        instruction bound once to a handler closure with operands
        pre-resolved (:mod:`repro.ixp.predecode`). Built on first use --
        after the loader has placed symbols and created rings -- and
        shared by every ME running this image on the same chip."""
        from repro.ixp.predecode import plan_matches, predecode_image

        # An edit of the image after decode (the oracle tests corrupt
        # images in place) invalidates every program.
        if self._content() != self._decoded_from:
            self._decode_plans.clear()
            self._decoded_from = self._content(copy=True)
        # A symbol a plan depends on may have been rebound (or bound
        # late) since it was decoded, on this chip or another; reuse a
        # program only when every binding it observed still holds.
        for used, prog in self._decode_plans:
            if plan_matches(used, chip):
                return prog
        prog, used = predecode_image(self, chip)
        self._decode_plans.append((used, prog))
        return prog


def _entry_ppfs(mod, plan, agg) -> List[str]:
    entries = []
    for ppf in agg.ppfs:
        fn = mod.functions[ppf]
        externals = [c for c in fn.input_channels if c not in plan.internal_channels]
        if externals:
            entries.append(ppf)
    return entries


def build_image(result, agg) -> MEImage:
    """Compile one ME aggregate into an executable image."""
    mod, opts, plan = result.mod, result.opts, result.plan
    ctx = LowerContext(mod, opts)
    cg = CallGraph(mod)

    entries = _entry_ppfs(mod, plan, agg)
    reachable: List[str] = []
    for ppf in entries:
        for name in [ppf] + sorted(cg.transitive_callees(ppf)):
            if name not in reachable and name in mod.functions:
                reachable.append(name)

    lirs: Dict[str, LIRFunction] = {}
    for name in reachable:
        lirs[name] = lower_function(ctx, mod.functions[name])

    inputs: List[Tuple[str, str]] = []
    for ppf in entries:
        fn = mod.functions[ppf]
        for chan in fn.input_channels:
            if chan not in plan.internal_channels:
                inputs.append(("ring.%s" % chan, lirs[ppf].entry_label))
    dispatch = build_dispatch(inputs)

    all_fns: Dict[str, LIRFunction] = {DISPATCH_NAME: dispatch}
    all_fns.update(lirs)
    all_fns.update(ctx.helpers)

    for fn in all_fns.values():
        allocate_function(fn)
    # Helpers may have been created during lowering of several functions;
    # any created after allocation started would be missed -- helpers are
    # created during lower_function, which already ran, so the set is
    # stable here.
    layout = layout_frames(all_fns, roots=[DISPATCH_NAME], stack_opt=opts.stack_opt)
    resolve_stack_accesses(all_fns, layout)

    image = MEImage(name=agg.name, inputs=inputs, stack_layout=layout)
    image.functions = [DISPATCH_NAME] + reachable + sorted(ctx.helpers)
    blocks = [bb for name in image.functions for bb in all_fns[name].blocks]
    for bb, following in zip(blocks, blocks[1:] + [None]):
        image.label_index[bb.label] = len(image.insns)
        insns = bb.insns
        last = insns[-1] if insns else None
        if (following is not None and isinstance(last, Br)
                and last.cond == "always" and last.target == following.label):
            insns = insns[:-1]  # a jump to the next instruction falls through
        image.insns.extend(insns)
    # Resolve branch targets.
    for idx, insn in enumerate(image.insns):
        if isinstance(insn, (Br, Bal)):
            target = image.label_index.get(insn.target)
            if target is None:
                raise CodegenError("unresolved branch target %r" % insn.target)
            insn.resolved = target
    image.entry = image.label_index[dispatch.entry_label]
    image.code_size = sum(i.size for i in image.insns)
    record_budget_fit(agg.name, image.code_size, CODE_STORE_WORDS,
                      estimate=agg.code_size)
    record_stack_fit(agg.name, layout)
    if image.code_size > CODE_STORE_WORDS:
        raise CodegenError(
            "aggregate %s needs %d control-store words (limit %d); "
            "aggregation should have split it"
            % (agg.name, image.code_size, CODE_STORE_WORDS)
        )
    return image


def generate_images(result) -> None:
    """Populate ``result.images`` with one MEImage per ME aggregate; the
    code generator's decisions join the compile's own."""
    with obs_ledger.collecting(result.decisions):
        for agg in result.plan.me_aggregates:
            result.images[agg.name] = build_image(result, agg)
