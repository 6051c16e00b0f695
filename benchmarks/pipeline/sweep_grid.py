"""``sweep_grid``: the jobs of ``python -m repro.sweep --jobs 1``, cold."""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from typing import Dict, List, Optional

from repro.apps import get_app
from repro.obs.diff import run_diff
from repro.options import options_for
from repro.sweep.cache import CompileCache, cache_key
from repro.sweep.orchestrator import (
    FIG_BY_APP,
    TRACE_PACKETS,
    JobResult,
    SweepJob,
    SweepResult,
    WorkerConfig,
    build_jobs,
    execute_job,
)

from .harness import (
    APPS,
    DEFAULT_SEED,
    HERE,
    OUT_DIR,
    ROOT,
    UNTIMED,
    UNTRACED,
    Outcome,
    Workload,
    geomean,
    percentile,
    whole_rounds,
)
from .pieces import compile_app, run_cell

_PROFILE_FIELDS = ("pkt_scratch", "pkt_sram", "pkt_dram",
                   "app_scratch", "app_sram", "total")


def paper_residual_pct(results: List[JobResult]) -> float:
    """Mean absolute relative difference, in percent, between measured
    and paper values over the 15 Table-1 totals and the three peak
    SWC@6-ME rates."""
    with open(HERE / "paper_reference.json") as fh:
        ref = json.load(fh)
    residuals = []
    for jr in results:
        job = jr.job
        if job.kind == "table1":
            paper = ref["table1_total"][job.app][job.level]
            residuals.append(abs(jr.profile["total"] - paper) / paper)
        elif job.level == "SWC" and job.n_mes == 6:
            paper = ref["peak_gbps"][job.app]
            residuals.append(abs(jr.rate_gbps - paper) / paper)
    return 100.0 * sum(residuals) / len(residuals)


class SweepGrid(Workload):
    name = "sweep_grid"
    why = ("the user's real source -> BENCH file path: 21 compiles, 141 "
           "loads and predecodes, 141 short simulations, cache, merge and "
           "diff, so the fixed per-cell costs sim_steady hides dominate")
    #: 141 short jobs around a cache of 21 compiled programs: a full
    #: collection costs 65 ms, a third of a job, and the sweep's time and
    #: peak RSS are steady without it (3.8 % and 0.02 % over ten seeds).
    collect_before_ops = False

    def __init__(self, seed: int, clock) -> None:
        super().__init__(seed, clock)
        self.tmp: Optional[tempfile.TemporaryDirectory] = None
        self.committed: Dict[str, dict] = {}
        #: job -> (rate, profile) of the untraced sweep; the traced
        #: composition must reproduce it.
        self.reference: Dict[SweepJob, tuple] = {}

    def setup(self, tr) -> None:
        if self.tmp is not None:
            self.tmp.cleanup()
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="sweep-")
        for app in APPS:
            with open(ROOT / ("BENCH_%s.json" % FIG_BY_APP[app])) as fh:
                self.committed[app] = json.load(fh)

    def close(self) -> None:
        super().close()
        if self.tmp is not None:
            self.tmp.cleanup()
            self.tmp = None

    def _fresh_dirs(self):
        """A cold compile cache and an empty BENCH directory."""
        base = tempfile.mkdtemp(dir=self.tmp.name)
        bench_dir = os.path.join(base, "bench")
        os.makedirs(bench_dir)
        return CompileCache(os.path.join(base, "cache"), enabled=True), bench_dir

    def _mismatch(self, jr: JobResult) -> Optional[str]:
        """How this job's output differs from the committed BENCH file."""
        job, committed = jr.job, self.committed[jr.job.app]
        if job.kind == "rate":
            column = committed["me_counts"].index(job.n_mes)
            want, got = committed["rates"][job.level][column], jr.rate_gbps
        else:
            want = committed["mem_accesses"][job.level]
            got = {f: round(v, 3) for f, v in jr.profile.items()}
        if got != want:
            return "%s: measured %s, committed %s" % (job.describe(), got,
                                                      want)
        return None

    def _finish(self, results: List[JobResult], bench_dir: str, tr,
                out: Outcome) -> None:
        """write_bench_files -> run_diff against the committed files ->
        the per-job correctness gate."""
        sweep = SweepResult(jobs=results)
        with tr.span("sweep.write_bench"):
            paths = sweep.write_bench_files(bench_dir)
        regressed = []
        with tr.span("obs.diff"):
            for path in paths:
                committed = ROOT / os.path.basename(path)
                _text, code = run_diff(str(committed), path)
                if code != 0:
                    regressed.append(os.path.basename(path))
        if self.seed != DEFAULT_SEED:
            out.notes.append("committed-file comparison: skipped (the "
                             "committed BENCH files are seed %d)"
                             % DEFAULT_SEED)
            return
        out.notes.append("committed-file comparison: %d jobs checked"
                         % len(results))
        for jr in results:
            why = self._mismatch(jr)
            if why is not None:
                out.fail(1, why)
        if regressed:
            out.fail(1, "repro.obs.diff gates a regression in %s"
                     % ", ".join(regressed))

    def _round(self, out: Outcome, rounds: List[List[JobResult]]) -> float:
        """build_jobs -> every job through ``execute_job`` in sort-key
        order, as ``run_sweep(n_procs=1)`` runs them -> BENCH files ->
        diff. Job by job rather than one ``run_sweep`` call so that each
        job is timed against the machine's speed at that moment."""
        clock = self.clock
        cache, bench_dir = self._fresh_dirs()
        cfg = WorkerConfig(cache_dir=cache.cache_dir, use_cache=True,
                           trace_packets=TRACE_PACKETS, trace_seed=self.seed,
                           obs=False)
        jobs, timed = clock.timed(
            lambda: sorted(build_jobs(APPS), key=SweepJob.sort_key))
        out.attempted += len(jobs)
        results: List[JobResult] = []
        for job in jobs:
            try:
                jr, seconds = clock.timed(execute_job, job, cfg, cache)
            except Exception as exc:  # any job failure is an op failure
                out.fail(1, "%s: job raised %r" % (job.describe(), exc))
                continue
            results.append(jr)
            timed += seconds
        _, seconds = clock.timed(self._finish, results, bench_dir, UNTRACED,
                                 out)
        rounds.append(results)
        return timed + seconds

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        rounds: List[List[JobResult]] = []
        walls = whole_rounds(seconds, lambda: self._round(out, rounds))
        results = rounds[0]
        if not results:
            return out
        self.reference = {jr.job: (jr.rate_gbps, jr.profile)
                          for jr in results}
        out.notes.append("%d jobs x %d rounds; %s"
                         % (len(results), len(walls), self.clock.speed()))
        out.metrics = {
            "wall_s": statistics.median(walls),
            "fwd_gbps_geomean": geomean(
                [jr.rate_gbps for jr in results if jr.job.kind == "rate"]),
            "mem_accesses_per_pkt": geomean(
                [jr.profile["total"] for jr in results
                 if jr.job.kind == "table1" and jr.job.level == "SWC"]),
            "paper_residual_pct": paper_residual_pct(results),
        }
        return out

    def run_traced(self, tr) -> Outcome:
        """The same round with each job composed from the pieces
        ``execute_job`` and ``CompileCache.get_or_compile`` are made of,
        so that cache, compile, load, predecode and run each get a span."""
        out = Outcome()
        clock = self.clock
        cache, bench_dir = self._fresh_dirs()
        results: List[JobResult] = []
        with tr.span("sweep.round"):
            jobs, timed = clock.timed(
                lambda: sorted(build_jobs(APPS), key=SweepJob.sort_key))
            out.attempted += len(jobs)
            for job in jobs:
                t0 = time.perf_counter()
                (run, hit), seconds = clock.timed(self._job_composed, job,
                                                  cache, tr)
                timed += seconds
                tr.count("sweep.jobs")
                tr.count("sweep.cache_hits", hit)
                results.append(JobResult(
                    job=job, rate_gbps=round(run.forwarding_gbps, 3),
                    profile={f: getattr(run.access_profile, f)
                             for f in _PROFILE_FIELDS},
                    cache_hit=hit, wall_s=time.perf_counter() - t0))
            _, seconds = clock.timed(self._finish, results, bench_dir, tr,
                                     out)
        out.metrics["wall_s"] = timed + seconds
        tr.count("sweep.job_s_p50",
                 percentile([jr.wall_s for jr in results], 0.50))
        for jr in results:
            if self.reference.get(jr.job) != (jr.rate_gbps, jr.profile):
                out.fail(1, "%s: traced composition measured %s, "
                            "execute_job %s"
                         % (jr.job.describe(), (jr.rate_gbps, jr.profile),
                            self.reference.get(jr.job)))
        return out

    def _job_composed(self, job: SweepJob, cache: CompileCache, tr):
        """``(RunResult, cache hit?)`` for one job."""
        op = job.describe()
        with tr.span("sweep.job", op):
            app = get_app(job.app)
            with tr.span("sweep.cache_load", op):
                key = cache_key(app.source, options_for(job.level),
                                TRACE_PACKETS, self.seed,
                                target_gbps=job.target_gbps)
                cached = cache.load(key)
            if cached is None:
                with tr.span("apps.make_trace", op):
                    trace = app.make_trace(TRACE_PACKETS, seed=self.seed)
                result, _ = compile_app(app.source, job.level, trace, tr, op,
                                        UNTIMED)
                with tr.span("sweep.cache_store", op):
                    cache.store(key, (result, trace))
            else:
                result, trace = cached
            run, _ = run_cell(result, trace, job.n_mes, job.warmup_packets,
                              job.measure_packets, tr, op, UNTIMED)
        return run, cached is not None
