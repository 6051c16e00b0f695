"""Aggregation: mapping PPFs onto processing elements to maximize packet
forwarding rate (paper section 5.1)."""

from repro.aggregation.aggregate import Aggregate, AggregationPlan
from repro.aggregation.formation import apply_plan, form_aggregates
from repro.aggregation.throughput import (
    CC_COST,
    ME_IPS,
    TARGET_GBPS,
    assign_mes,
    packets_per_second_for_gbps,
    stage_throughput,
    system_throughput,
)

__all__ = [
    "Aggregate",
    "AggregationPlan",
    "apply_plan",
    "form_aggregates",
    "CC_COST",
    "ME_IPS",
    "TARGET_GBPS",
    "assign_mes",
    "packets_per_second_for_gbps",
    "stage_throughput",
    "system_throughput",
]
