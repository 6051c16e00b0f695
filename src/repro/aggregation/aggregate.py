"""Aggregate data structures (paper section 5.1).

An aggregate is a collection of PPFs mapped to one processing element.
Channels wholly inside an aggregate are compiled into direct calls; the
remaining channels are the aggregate's external inputs/outputs and stay
scratch rings at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.ir.module import IRModule
from repro.profiler.stats import ProfileData


@dataclass
class Aggregate:
    name: str
    ppfs: List[str] = field(default_factory=list)
    cost: float = 0.0  # per-packet instruction-equivalents incl. CC overhead
    code_size: int = 0
    target: str = "me"  # 'me' | 'xscale'
    me_count: int = 0

    def members(self) -> Set[str]:
        return set(self.ppfs)


@dataclass
class AggregationPlan:
    """The output of aggregate formation."""

    me_aggregates: List[Aggregate] = field(default_factory=list)
    xscale_aggregates: List[Aggregate] = field(default_factory=list)
    internal_channels: Set[str] = field(default_factory=set)
    throughput_pps: float = 0.0

    def fast_functions(self, mod: IRModule) -> Set[str]:
        """Every function executed on the MEs: the ME aggregates' PPFs
        plus their transitive callees."""
        from repro.ir.callgraph import CallGraph

        cg = CallGraph(mod)
        out: Set[str] = set()
        for agg in self.me_aggregates:
            for ppf in agg.ppfs:
                out.add(ppf)
                out |= cg.transitive_callees(ppf)
        return out


def external_channels(mod: IRModule, members: Set[str]):
    """(inputs, outputs) of a PPF set: channels crossing its boundary.
    Inputs are channels consumed by a member with at least one producer
    outside (or from rx); outputs are channels a member puts to whose
    consumer is outside (or tx)."""
    inputs: List[str] = []
    outputs: List[str] = []
    for name, chan in mod.channels.items():
        consumer_in = chan.consumer in members
        producers_in = [p for p in chan.producers if p in members]
        producers_out = [p for p in chan.producers if p not in members]
        if consumer_in and (producers_out or name == "rx"):
            inputs.append(name)
        if producers_in and not consumer_in:
            outputs.append(name)
    return inputs, outputs


def aggregate_cost(mod: IRModule, profile: ProfileData, members: Set[str],
                   cc_cost: float) -> float:
    """Per-packet cost of an aggregate: member execution plus boundary CC
    overhead (a ring get per entering packet, a ring put per leaving
    packet), normalized per input packet of the whole system."""
    # In name order: a set's order follows the hash seed, and so would
    # the last bit of a float sum.
    cost = sum(profile.ppf_weight(p) for p in sorted(members))
    inputs, outputs = external_channels(mod, members)
    for chan in inputs:
        consumer = mod.channels[chan].consumer
        cost += profile.invocation_rate(consumer) * cc_cost if consumer else 0.0
    for chan in outputs:
        cost += profile.channel_utilization(chan) * cc_cost
    return cost
