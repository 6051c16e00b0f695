"""Aggregate formation: the heuristic of paper Figure 7.

Starting from one aggregate per PPF, merge the pair of aggregates joined
by the most expensive channel, provided the merge does not hurt the
throughput of Equation 1 (:mod:`repro.aggregation.throughput`) and the
merged code still fits an ME's instruction store; repeat until no pair
passes. Afterwards, aggregates that overflow the code store or are
infrequently executed move to the XScale (MAP_TO_XSCALE), and the
remaining ME aggregates are duplicated across the available MEs
(MAP_TO_MES).

Figure 7's other two steps are already in Equation 1. DUPLICATE is its
optimal ME assignment, which MAP_TO_MES applies. RELAX lowers the target
only when hot aggregates outnumber the MEs, and then Equation 1 scores
every plan zero, so a lower target admits no merge the unrelaxed one
rejects.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.aggregation.aggregate import (
    Aggregate,
    AggregationPlan,
    aggregate_cost,
)
from repro.aggregation.throughput import (
    CC_COST,
    TARGET_GBPS,
    assign_mes,
    packets_per_second_for_gbps,
    system_throughput,
)
from repro.cg import melayout
from repro.cg.codesize import estimate_closure
from repro.cg.melayout import PROGRAMMABLE_MES
from repro.ir import instructions as I
from repro.ir.module import IRModule
from repro.obs import ledger as obs_ledger
from repro.options import CompilerOptions
from repro.profiler.stats import ProfileData

# An aggregate handling less than this fraction of packets is control
# plane and belongs on the XScale.
INFREQUENT_RATE = 0.05


def form_aggregates(
    mod: IRModule,
    profile: ProfileData,
    opts: CompilerOptions,
) -> AggregationPlan:
    """Run Figure 7 and return the mapping plan (IR is not yet rewritten;
    see :func:`apply_plan`)."""
    aggregates = [
        Aggregate(name=fn.name, ppfs=[fn.name]) for fn in mod.ppfs()
    ]
    target = packets_per_second_for_gbps(TARGET_GBPS)
    store = melayout.CODE_STORE_WORDS  # read here, so a test can shrink it

    def refresh(agg: Aggregate) -> None:
        agg.cost = aggregate_cost(mod, profile, agg.members(), CC_COST)
        agg.code_size = estimate_closure(mod, agg.ppfs, opts)

    for agg in aggregates:
        refresh(agg)

    def hot(aggs: List[Aggregate]) -> List[Aggregate]:
        return [a for a in aggs if _rate(profile, a) >= INFREQUENT_RATE]

    overflow_seen = set()  # dedup: the same pair re-overflows every round

    # MERGE until no pair passes: each pass removes one aggregate or ends.
    merged = True
    while merged:
        merged = False
        candidates = hot(aggregates)
        # FORM_PAIRS / SORT_BY_HIGHEST_CHANNEL_COST.
        for cc_weight, a, b in _connected_pairs(mod, profile, aggregates):
            if not _merge_improves(mod, profile, candidates, a, b, target):
                continue
            merged_members = a.members() | b.members()
            size = estimate_closure(mod, sorted(merged_members), opts)
            if size > store:
                pair = (a.name, b.name)
                if pair not in overflow_seen:
                    overflow_seen.add(pair)
                    obs_ledger.record("aggregation", "%s+%s" % pair,
                                      "merge_rejected",
                                      reason="merged closure overflows the "
                                             "ME code store",
                                      code_size=size,
                                      me_code_store=store)
                continue
            obs_ledger.record("aggregation", "%s+%s" % (a.name, b.name), "merged",
                              reason="highest-cost connecting channel, merge "
                                     "does not hurt throughput",
                              cc_cost=cc_weight, code_size=size,
                              members=len(merged_members))
            a.ppfs = sorted(merged_members)
            aggregates.remove(b)
            refresh(a)
            merged = True
            break

    # MAP_TO_XSCALE: oversized or infrequently executed aggregates.
    me_aggs: List[Aggregate] = []
    xscale: List[Aggregate] = []
    for agg in aggregates:
        if agg.code_size > store or _rate(profile, agg) < INFREQUENT_RATE:
            agg.target = "xscale"
            xscale.append(agg)
            obs_ledger.record("aggregation", agg.name, "mapped_xscale",
                              reason="oversized for the ME code store"
                                     if agg.code_size > store
                                     else "infrequently executed (control plane)",
                              code_size=agg.code_size,
                              rate=_rate(profile, agg), ppfs=len(agg.ppfs))
        else:
            agg.target = "me"
            me_aggs.append(agg)

    # MAP_TO_MES with duplication.
    costs = [a.cost for a in me_aggs]
    assignment = assign_mes(costs, PROGRAMMABLE_MES)
    for agg, count in zip(me_aggs, assignment):
        agg.me_count = count
        obs_ledger.record("aggregation", agg.name, "mapped_me",
                          reason="hot aggregate, fits the code store",
                          me_count=count, cost=agg.cost,
                          code_size=agg.code_size, ppfs=len(agg.ppfs))

    plan = AggregationPlan(me_aggregates=me_aggs, xscale_aggregates=xscale)
    plan.throughput_pps = system_throughput(costs, PROGRAMMABLE_MES)
    plan.internal_channels = _internal_channels(mod, me_aggs + xscale)
    return plan


def _rate(profile: ProfileData, agg: Aggregate) -> float:
    if profile.packets_in == 0:
        # No profile (empty trace): assume everything is hot rather than
        # shipping the whole program to the XScale.
        return 1.0
    return max((profile.invocation_rate(p) for p in agg.ppfs), default=0.0)


def _connected_pairs(mod: IRModule, profile: ProfileData,
                     aggregates: List[Aggregate]):
    """Aggregate pairs joined by at least one channel, sorted by total
    connecting-channel cost, highest first."""
    owner: Dict[str, Aggregate] = {}
    for agg in aggregates:
        for ppf in agg.ppfs:
            owner[ppf] = agg
    weights: Dict[Tuple[int, int], float] = {}
    index = {id(a): i for i, a in enumerate(aggregates)}
    for name, chan in mod.channels.items():
        if chan.consumer is None:
            continue
        consumer = owner.get(chan.consumer)
        for producer in chan.producers:
            prod = owner.get(producer)
            if prod is None or consumer is None or prod is consumer:
                continue
            key = tuple(sorted((index[id(prod)], index[id(consumer)])))
            weights[key] = weights.get(key, 0.0) + profile.channel_utilization(name)
    pairs = [
        (w * CC_COST, aggregates[i], aggregates[j])
        for (i, j), w in weights.items()
    ]
    pairs.sort(key=lambda t: t[0], reverse=True)
    return pairs


def _merge_improves(mod: IRModule, profile: ProfileData,
                    candidates: List[Aggregate], a: Aggregate, b: Aggregate,
                    target: float) -> bool:
    """MERGE_IMPROVES_THROUGHPUT: system throughput with the pair merged
    (saving the connecting CC overhead) must not regress, or must reach
    the target. A hot aggregate never absorbs an infrequently-executed
    one: that work is destined for the XScale (MAP_TO_XSCALE), so pulling
    it onto the MEs wastes code store and per-packet budget."""
    a_hot, b_hot = a in candidates, b in candidates
    if not a_hot and not b_hot:
        return True  # both cold: merging control PPFs is harmless
    if a_hot != b_hot:
        return False
    merged_cost = aggregate_cost(mod, profile, a.members() | b.members(), CC_COST)
    before = system_throughput([x.cost for x in candidates], PROGRAMMABLE_MES)
    after_costs = [x.cost for x in candidates if x is not a and x is not b]
    after_costs.append(merged_cost)
    after = system_throughput(after_costs, PROGRAMMABLE_MES)
    return after >= min(before, target)


def _internal_channels(mod: IRModule, aggregates: List[Aggregate]) -> Set[str]:
    internal: Set[str] = set()
    for agg in aggregates:
        members = agg.members()
        for name, chan in mod.channels.items():
            if chan.consumer in members and chan.producers and all(
                p in members for p in chan.producers
            ):
                internal.add(name)
    return internal


# -- IR rewriting --------------------------------------------------------------------


def apply_plan(mod: IRModule, plan: AggregationPlan) -> None:
    """Rewrite the IR for the chosen aggregation: every ``channel_put``
    to a channel that is internal to an aggregate becomes a direct call
    of the consumer PPF (eliminating the CC overhead -- the point of
    merging). Channels whose conversion would create a call cycle stay
    rings (Baker code itself cannot recurse, but a channel cycle inside
    one aggregate could)."""
    edges: Dict[str, Set[str]] = {name: set() for name in mod.functions}
    from repro.ir.callgraph import CallGraph

    cg = CallGraph(mod)
    for name, callees in cg.callees.items():
        edges[name].update(callees)

    def creates_cycle(producer: str, consumer: str) -> bool:
        # Is producer reachable from consumer?
        stack, seen = [consumer], set()
        while stack:
            n = stack.pop()
            if n == producer:
                return True
            if n in seen:
                continue
            seen.add(n)
            stack.extend(edges.get(n, ()))
        return False

    for name in sorted(plan.internal_channels):
        chan = mod.channels[name]
        consumer = chan.consumer
        if consumer is None:
            continue
        if any(creates_cycle(p, consumer) for p in chan.producers):
            plan.internal_channels.discard(name)
            continue
        for fn in mod.functions.values():
            for bb in fn.blocks:
                for idx, instr in enumerate(bb.instrs):
                    if isinstance(instr, I.ChanPut) and instr.channel == name:
                        bb.instrs[idx] = I.Call(None, consumer, [instr.ph])
            edges[fn.name].add(consumer)
        setattr(chan, "internal", True)
