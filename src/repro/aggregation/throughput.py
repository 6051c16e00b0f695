"""The throughput model of paper section 5.1 (Equation 1).

Packet throughput ``t`` is proportional to ``n * k / p``: with ``n``
processing elements, ``p`` pipeline stages and ``k`` the throughput of
the slowest stage, duplicating the whole pipeline ``floor(n/p)`` times
multiplies the slowest-stage throughput. Unlike latency-oriented
parallelization, only the bottleneck stage matters; latency through the
pipe is irrelevant as long as other packets hide it.

Costs are expressed in per-packet ME instruction-equivalents (from the
functional profiler); a stage's standalone throughput is
``ME_IPS / cost`` packets per second per assigned ME.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: ME clock: the IXP2400's MEs run at 600 MHz, ~1 instr/cycle.
ME_IPS = 600e6

#: Line rate, in Gbps, that aggregation forms aggregates for.
TARGET_GBPS = 2.5

#: Per-packet cost of one inter-aggregate CC traversal (scratch-ring put
#: or get: ring pointer maintenance + the scratch access wait).
CC_COST = 30.0


def stage_throughput(cost: float, mes: int) -> float:
    """Packets/second of one pipeline stage given its per-packet cost and
    the number of MEs running copies of it."""
    if cost <= 0:
        return float("inf")
    return mes * ME_IPS / cost


def assign_mes(costs: Sequence[float], n_mes: int) -> List[int]:
    """Distribute ``n_mes`` MEs over pipeline stages to maximize the
    bottleneck throughput: every stage gets one ME, then each remaining
    ME goes to the current bottleneck (greedy is optimal for max-min of
    linear stage throughputs)."""
    p = len(costs)
    if p == 0 or n_mes < p:
        return [0] * p if p else []
    assignment = [1] * p
    for _ in range(n_mes - p):
        worst = min(range(p), key=lambda i: stage_throughput(costs[i], assignment[i]))
        assignment[worst] += 1
    return assignment


def system_throughput(costs: Sequence[float], n_mes: int) -> float:
    """Equation 1: the throughput of the full pipeline on ``n_mes`` MEs
    under the optimal duplication assignment. Zero if the pipeline has
    more stages than processors."""
    if not costs:
        return float("inf")
    assignment = assign_mes(costs, n_mes)
    if not assignment or 0 in assignment:
        return 0.0
    return min(
        stage_throughput(c, m) for c, m in zip(costs, assignment)
    )


def packets_per_second_for_gbps(gbps: float, frame_bytes: int = 64) -> float:
    """Offered packet rate at a line rate (the paper evaluates 64 B
    minimum-size frames)."""
    return gbps * 1e9 / (frame_bytes * 8)
