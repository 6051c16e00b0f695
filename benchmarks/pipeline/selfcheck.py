"""``--selfcheck``: is the benchmark steady enough to judge a change by?

Runs every workload twice back to back, each run in a process of its
own (peak RSS and import time are per process), and compares the pair:
a host metric must agree within its own bound, a simulated metric must
be bit-equal -- the simulator is deterministic, so at a fixed seed any
difference is a bug in the benchmark or the program."""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Dict

from . import harness

#: Properties of the compiled code on the modelled IXP2400; everything
#: else in ``end_to_end`` is wall-clock or memory of this machine.
SIMULATED = frozenset((
    "fwd_gbps_geomean", "mem_accesses_per_pkt", "code_size_instrs",
    "lat_cycles_p50", "lat_cycles_p99", "drop_share", "stale_tx",
    "paper_residual_pct"))


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(harness.HERE / "__main__.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit("selfcheck: %s exited with %d"
                         % (workload, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def selfcheck(seed: int, seconds: float) -> int:
    contract = harness.load_contract()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    bad = 0
    for workload in (w["name"] for w in contract["workloads"]):
        first = one_run(workload, seed, seconds)
        second = one_run(workload, seed, seconds)
        print("%s (seed %d)" % (workload, seed))
        for name, bound in bounds.items():
            a, b = first[name], second[name]
            if a == b == harness.NOT_MEASURED:
                continue  # n/a on this workload
            spread = abs(a - b) / min(abs(a), abs(b))
            if name in SIMULATED:
                ok, rule = a == b, "bit-equal"
            else:
                ok, rule = spread <= bound, "within %g" % bound
            bad += not ok
            print("  %-22s %16.6f %16.6f  spread %7.4f  %-12s %s"
                  % (name, a, b, spread, rule, "ok" if ok else "FAIL"))
    print("selfcheck: %s" % ("%d metric(s) disagree" % bad if bad
                             else "both sets of runs agree"))
    return 1 if bad else 0
