"""Plumbing shared by the four workloads: environment isolation, the
reference-seconds clock, the in-memory span recorder, order statistics,
and the result record."""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"

APPS = ("l3switch", "firewall", "mpls")

#: The repo's canonical profiling-trace seed (repro.sweep TRACE_SEED):
#: the committed BENCH_fig13/14/15.json were generated with it.
DEFAULT_SEED = 5
#: Never used while a change is written; a claimed gain must hold here too.
HELD_OUT_SEED = 11

#: Value reported for an end-to-end metric that does not exist on a
#: workload (compile time of a workload that never compiles, ...). The
#: driver wants every metric from every workload; a constant can neither
#: regress nor improve, and the printed table marks the pair "n/a".
NOT_MEASURED = 1.0

#: Ambient settings that would change what is measured.
SCRUBBED_ENV = ("REPRO_SIM_DISPATCH", "REPRO_OBS", "REPRO_OBS_JSONL",
                "REPRO_COMPILE_CACHE", "REPRO_CACHE_DIR", "REPRO_TRACE_JSON")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def prepare_environment() -> None:
    """Scrub ``REPRO_*`` switches and put ``src/`` on the import path.
    Must run before ``repro`` is imported."""
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit("benchmarks.pipeline: no program to measure at %s"
                         % (src / "repro"))
    sys.path.insert(0, str(src))


#: Every ``repro`` module any workload calls. One list for all workloads,
#: so ``setup_s`` means the same everywhere.
REPRO_MODULES = ("repro.apps", "repro.cg.assemble", "repro.compiler",
                 "repro.obs.diff", "repro.obs.profile", "repro.rts.system",
                 "repro.serve.harness", "repro.sweep.orchestrator")


def import_in_child() -> None:
    """Start a fresh interpreter, import REPRO_MODULES there, wait for it
    to exit: what a user's process pays before it can call anything. A
    process can import only once, so each sample is a child process."""
    subprocess.run(
        [sys.executable, "-c",
         "import importlib, sys\nsys.path.insert(0, sys.argv[1])\n"
         "for name in sys.argv[2:]: importlib.import_module(name)",
         str(ROOT / "src")] + list(REPRO_MODULES),
        check=True, timeout=120)


def import_repro() -> None:
    for name in REPRO_MODULES:
        importlib.import_module(name)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- reference seconds --------------------------------------------------------------

#: What one calibration kernel takes on the reference machine: this
#: sandbox (Xeon 2.1 GHz, CPython 3.11) when its neighbours are quiet.
#: Only a unit conversion -- it makes reference seconds read like seconds.
NOMINAL_KERNEL_S = 0.0125


def _kernel() -> float:
    """Seconds for a fixed piece of interpreter-bound work (dict, list
    and call traffic, like the compiler and simulator themselves)."""
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    recent: List[int] = []
    for i in range(120_000):
        table[i & 255] = i
        recent.append(table.get(i & 127, 0))
        if len(recent) > 64:
            recent.clear()
    return time.perf_counter() - t0


class RefClock:
    """Times operations in *reference seconds*: wall-clock scaled by how
    fast, relative to the reference machine, this one was running while
    the operation ran -- sampled by the calibration kernel just before it,
    every SAMPLE_PERIOD_S inside it (a SIGALRM handler, so the kernel runs
    in this thread between two bytecodes of the operation) and just after.
    Kernel time spent inside the operation is taken off its wall-clock.

    The sandbox shares its host: the same pure-Python loop takes 0.15 to
    0.33 s from one second to the next, and whole 20 s stretches differ
    by a third, in CPU time as much as in wall-clock. README, "Reference
    seconds", has the measurements this design rests on."""

    SAMPLE_PERIOD_S = 0.25

    def __init__(self, tr, collect: bool) -> None:
        self.tr = tr
        self.collect = collect
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._speeds: List[float] = []  # reference speed per sample, newest last
        self._kernel_s = 0.0            # kernel seconds, all samples
        self._sampled_at = 0.0
        self._sampling = False
        signal.signal(signal.SIGALRM, self._sample)

    def close(self) -> None:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_signal_args) -> None:
        if self._sampling:  # a tick that arrived during a sample
            return
        self._sampling = True
        try:
            with self.tr.span("calib.kernel"):
                seconds = _kernel()
        finally:
            self._sampling = False
        self._speeds.append(NOMINAL_KERNEL_S / seconds)
        self._kernel_s += seconds
        self._sampled_at = time.perf_counter()

    def timed(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), reference seconds it took)``."""
        period = self.SAMPLE_PERIOD_S
        if self.collect:
            # Start from a collected heap: neither the operation's time nor
            # the process's peak memory should depend on when the cyclic
            # collector last happened to run (compile_cold's peak RSS read
            # 205 or 252 MiB by seed without this, its wall_s spread 7 %).
            with self.tr.span("calib.collect"):
                gc.collect()
        if time.perf_counter() - self._sampled_at > period:
            self._sample()
        first = len(self._speeds) - 1
        kernels = self._kernel_s
        signal.setitimer(signal.ITIMER_REAL, period, period)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raw = time.perf_counter() - t0
        raw -= self._kernel_s - kernels
        self._sample()
        ref = raw * statistics.mean(self._speeds[first:])
        self.raw_s += raw
        self.ref_s += ref
        return result, ref

    def speed(self) -> str:
        return ("timed operations took %.2f s of wall-clock = %.2f reference "
                "s (machine at %.2f x reference speed)"
                % (self.raw_s, self.ref_s, self.ref_s / self.raw_s))


class Untimed:
    """Stands in for a RefClock inside an operation that is being timed
    as a whole."""

    def timed(self, fn, *args, **kwargs):
        return fn(*args, **kwargs), 0.0


UNTIMED = Untimed()


# -- order statistics -------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- spans ------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: str


class Tracer:
    """In-memory span recorder. Span names are ``<layer>.<what>``;
    ``counts`` holds work counters taken at the same boundaries."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.warnings: List[str] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: str = "") -> Iterator[int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, op)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int,
            op: str = "") -> None:
        """Adopt a span timed elsewhere (``compile_stage`` spans). Spans
        recorded under ``parent`` meanwhile that lie inside it (calibration
        kernels) become its children."""
        idx = len(self.spans)
        for span in self.spans[parent + 1:]:
            if span.parent == parent and start <= span.start \
                    and span.end <= end:
                span.parent = idx
        self.spans.append(Span(name, start, end, parent, op))

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> List[float]:
        """Per span: duration minus what its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def self_by_name(self, under: Optional[int] = None) -> Dict[str, float]:
        """Self time summed per span name, optionally only for spans
        inside the subtree rooted at span ``under``."""
        own = self.self_times()
        out: Dict[str, float] = {}
        for idx, s in enumerate(self.spans):
            if under is not None and not self.inside(idx, under):
                continue
            out[s.name] = out.get(s.name, 0.0) + own[idx]
        return out

    def total_by_name(self, name: str) -> float:
        """Inclusive duration summed over the spans called ``name``."""
        return math.fsum(s.end - s.start for s in self.spans
                         if s.name == name)

    def inside(self, idx: int, root: int) -> bool:
        while idx is not None:
            if idx == root:
                return True
            idx = self.spans[idx].parent
        return False

    def dump(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        body = dict(header)
        body["counts"] = self.counts
        body["warnings"] = self.warnings
        body["spans"] = [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "self": own[i], "parent": s.parent, "op": s.op}
            for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump(body, fh)


class NullTracer:
    """The untraced run: same call sites, nothing recorded."""

    enabled = False

    @contextmanager
    def span(self, name: str, op: str = "") -> Iterator[None]:
        yield None

    def count(self, name: str, n: float = 1) -> None:
        pass


UNTRACED = NullTracer()


# -- results ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run hands back: operations attempted/failed,
    the end-to-end metrics it measures, and human-readable notes."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.notes.append("FAILED x%d: %s" % (n, why))


class Workload:
    """One workload: ``setup`` builds its inputs from the seed (called
    several times; each call starts over), ``run`` is the untraced timed
    loop, ``run_traced`` one round of the same work with spans, ``probes``
    whatever else the per-layer metrics need."""

    name = ""
    why = ""
    #: Whether the clock collects garbage before each timed operation.
    collect_before_ops = True

    def __init__(self, seed: int, clock: RefClock) -> None:
        self.seed = seed
        self.clock = clock

    def setup(self, tr) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> Outcome:
        """``metrics`` holds what this workload measures; times are in
        reference seconds (see :class:`RefClock`)."""
        raise NotImplementedError

    def run_traced(self, tr) -> Outcome:
        """One round under ``tr``; ``metrics`` holds only ``wall_s``, the
        reference seconds of its timed operations as ``run`` counts them."""
        raise NotImplementedError

    def probes(self, tr, out: Outcome) -> None:
        """Extra untraced operations a per-layer metric needs (observer
        on/off pairs), after the traced round has closed."""

    def close(self) -> None:
        """Give SIGALRM back and remove what the workload left on disk."""
        self.clock.close()


def whole_rounds(seconds: float, one_round) -> List[float]:
    """Run ``one_round()`` at least once, then again while another round
    of the last one's length still fits in ``seconds``. A round is never
    cut short: simulated metrics are defined over a round's full set of
    cells. Returns what each round returned -- the reference seconds of
    its timed operations."""
    timed: List[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        timed.append(one_round())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return timed
