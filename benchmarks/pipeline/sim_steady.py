"""``sim_steady``: compiled programs on the simulated IXP2400, long cells."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from repro.apps import APP_CLASSES
from repro.obs.profile import StallProfiler
from repro.rts.system import RunResult

from .harness import (
    APPS,
    UNTIMED,
    UNTRACED,
    Outcome,
    Workload,
    geomean,
    whole_rounds,
)
from .pieces import cell_failure, compile_app, count_stalls, run_cell

#: BASE is memory-op-heavy with threads mostly blocked, SWC is
#: ALU/CAM/Local-Memory-heavy: two instruction mixes for the dispatch core.
LEVELS = ("BASE", "SWC")
#: One ME (no contention) and all six (channels and rings contended).
ME_COUNTS = (1, 6)
TRACE_PACKETS = 200
WARMUP_PACKETS = 100
#: Long enough that load and predecode stay ~5 % of a cell.
MEASURE_PACKETS = 1500
#: The cell rerun with a StallProfiler for obs.profiler_overhead_ratio.
PROFILED_CELL = "l3switch/SWC@6"


def signature(run: RunResult) -> tuple:
    return (run.forwarding_gbps, run.packets_out, run.sim_cycles,
            tuple(run.me_executed_instrs), run.access_profile.row())


class SimSteady(Workload):
    name = "sim_steady"
    why = ("the ixp dispatch/memory/ring core does ~95 % of the work, "
           "compile none, load/predecode amortised over 1 600 packets; "
           "BASE vs SWC gives two instruction mixes, 1 vs 6 MEs two "
           "contention regimes")

    def __init__(self, seed: int, clock) -> None:
        super().__init__(seed, clock)
        self.programs: List[Tuple[str, object, object]] = []
        #: cell -> its first result; every later run of the cell (another
        #: round, the traced composition) must reproduce it bit for bit.
        self.first: Dict[str, RunResult] = {}

    def setup(self, tr) -> None:
        self.programs = []
        for name in APPS:
            with tr.span("apps.build", name):
                app = APP_CLASSES[name]()
            with tr.span("apps.make_trace", name):
                trace = app.make_trace(TRACE_PACKETS, seed=self.seed)
            for level in LEVELS:
                prog = "%s/%s" % (name, level)
                result, _ = compile_app(app.source, level, trace, tr, prog,
                                        UNTIMED)
                self.programs.append((prog, result, trace))

    def _cell(self, cell: str, result, trace, n_mes: int, tr, out: Outcome,
              profiler: Optional[StallProfiler] = None):
        """One operation: ``(RunResult, seconds)``, or None if it failed
        (raised, broke the Rx/Tx accounting, or did not repeat)."""
        out.attempted += 1
        try:
            run, seconds = run_cell(result, trace, n_mes, WARMUP_PACKETS,
                                    MEASURE_PACKETS, tr, cell, self.clock,
                                    profiler)
        except Exception as exc:  # any simulator failure is an op failure
            out.fail(1, "%s: run raised %r" % (cell, exc))
            return None
        why = cell_failure(run, MEASURE_PACKETS)
        if why is None and \
                signature(self.first.setdefault(cell, run)) != signature(run):
            why = "simulated result differs from the cell's first run"
        if why is not None:
            out.fail(1, "%s: %s" % (cell, why))
            return None
        return run, seconds

    def _round(self, tr, out: Outcome, host: Dict[str, List[float]]) -> float:
        timed = 0.0
        for prog, result, trace in self.programs:
            for n_mes in ME_COUNTS:
                cell = "%s@%d" % (prog, n_mes)
                done = self._cell(cell, result, trace, n_mes, tr, out)
                if done is not None:
                    host.setdefault(cell, []).append(done[1])
                    timed += done[1]
        return timed

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        host: Dict[str, List[float]] = {}
        rounds = whole_rounds(seconds,
                              lambda: self._round(UNTRACED, out, host))
        # One value per cell, the median over rounds (see compile_cold).
        wall = sum(statistics.median(times) for times in host.values())
        out.notes.append("%d cells x %d rounds; %s"
                         % (len(host), len(rounds), self.clock.speed()))
        swc = [run for cell, run in self.first.items() if "/SWC@" in cell]
        out.metrics = {
            "wall_s": wall,
            "sim_kinstr_per_s": sum(
                sum(self.first[cell].me_executed_instrs)
                for cell in host) / 1e3 / wall,
            "fwd_gbps_geomean": geomean(
                [run.forwarding_gbps for run in self.first.values()]),
            "mem_accesses_per_pkt": geomean(
                [run.access_profile.total for run in swc]),
        }
        return out

    def run_traced(self, tr) -> Outcome:
        out = Outcome()
        out.metrics["wall_s"] = self._round(tr, out, {})
        return out

    def probes(self, tr, out: Outcome) -> None:
        # Zero-cost-when-off, measured: the same cell with and without
        # the stall profiler, both through run_on_simulator.
        prog, n_mes = PROFILED_CELL.split("@")
        result, trace = next((r, t) for p, r, t in self.programs if p == prog)
        plain = self._cell(PROFILED_CELL, result, trace, int(n_mes),
                           UNTRACED, out)
        profiled = self._cell(PROFILED_CELL, result, trace, int(n_mes),
                              UNTRACED, out, StallProfiler())
        if plain is not None and profiled is not None:
            tr.count("obs.profiler_overhead_ratio", profiled[1] / plain[1])
            count_stalls(tr, profiled[0].occupancy)
