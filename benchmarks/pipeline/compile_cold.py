"""``compile_cold``: Baker source -> ME images, nothing else."""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.apps import APP_CLASSES
from repro.rts.system import verify_against_reference

from .harness import APPS, UNTRACED, Outcome, Workload, percentile, whole_rounds
from .pieces import code_size, compile_app, listing

#: Table 1's cumulative levels: each adds one pass family, so the step
#: from one level's compile time to the next is that family's cost.
LEVELS = ("BASE", "O1", "PAC", "PHR", "SWC")
TRACE_PACKETS = 200


class CompileCold(Workload):
    name = "compile_cold"
    why = ("baker, ir, profiler, opt, aggregation and cg do all the work "
           "and ixp/rts/sweep none: a compiler-speed change shows here and "
           "nowhere else; five cumulative levels expose each pass's cost")

    def __init__(self, seed: int, clock) -> None:
        super().__init__(seed, clock)
        self.apps: List[Tuple[str, object, object]] = []
        #: cell -> listing of its first compile (the determinism reference).
        self.listings: Dict[str, tuple] = {}
        #: Cells whose compiles agree on every opcode and branch target
        #: but not on register assignment. Reported, not failed: at the
        #: commit that defined this benchmark l3switch/BASE already
        #: allocates registers in an order that differs between two
        #: compiles in one process.
        self.reallocated: set = set()

    def setup(self, tr) -> None:
        self.apps = []
        for name in APPS:
            with tr.span("apps.build", name):
                app = APP_CLASSES[name]()
            with tr.span("apps.make_trace", name):
                trace = app.make_trace(TRACE_PACKETS, seed=self.seed)
            self.apps.append((name, app, trace))

    def _round(self, tr, out: Outcome, samples: Dict[str, List[float]],
               last: Dict[str, object]) -> float:
        """Every (app, level) once; reference seconds of the compiles that
        passed. An operation is one compile; it fails if it raises or
        emits opcodes or branch targets other than its cell's first."""
        timed = 0.0
        for name, app, trace in self.apps:
            for level in LEVELS:
                cell = "%s/%s" % (name, level)
                out.attempted += 1
                try:
                    result, seconds = compile_app(app.source, level, trace,
                                                  tr, cell, self.clock)
                except Exception as exc:  # any compiler failure is an op failure
                    out.fail(1, "%s: compile raised %r" % (cell, exc))
                    continue
                emitted = listing(result)
                first = self.listings.setdefault(cell, emitted)
                if first[0] != emitted[0]:
                    out.fail(1, "%s: two compiles emitted different "
                                "instruction listings" % cell)
                    continue
                if first[1] != emitted[1]:
                    self.reallocated.add(cell)
                samples.setdefault(cell, []).append(seconds)
                last[cell] = (result, trace)
                timed += seconds
        return timed

    def _oracle(self, out: Outcome, samples: Dict[str, List[float]],
                last: Dict[str, object]) -> None:
        """Once per distinct cell, outside the timed loop: the compiled
        images must transmit what the IR interpreter says the unoptimized
        program transmits. A disagreeing cell fails all its compiles."""
        for cell, (result, trace) in last.items():
            if not verify_against_reference(result, trace):
                out.fail(len(samples.pop(cell)),
                         "%s: simulator output differs from the IR "
                         "interpreter's" % cell)

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        samples: Dict[str, List[float]] = {}
        last: Dict[str, object] = {}
        rounds = whole_rounds(
            seconds, lambda: self._round(UNTRACED, out, samples, last))
        self._oracle(out, samples, last)
        # One value per cell, the median of its compiles: a disturbed
        # compile then moves neither the sum nor the quantiles.
        times = [statistics.median(cell) for cell in samples.values()]
        out.notes.append("compile samples n=%d: %d cells x %d rounds; %s"
                         % (sum(len(cell) for cell in samples.values()),
                            len(times), len(rounds), self.clock.speed()))
        if self.reallocated:
            out.notes.append("register assignment differs between compiles "
                             "of %s (same opcodes and branch targets)"
                             % ", ".join(sorted(self.reallocated)))
        out.metrics = {
            "wall_s": sum(times),
            "compile_s_p50": percentile(times, 0.50),
            "compile_s_p90": percentile(times, 0.90),
            "code_size_instrs": float(sum(
                code_size(result) for cell, (result, _t) in last.items()
                if cell.endswith("/SWC"))),
        }
        return out

    def run_traced(self, tr) -> Outcome:
        out = Outcome()
        out.metrics["wall_s"] = self._round(tr, out, {}, {})
        return out
