"""Process-parallel orchestrator for the paper's evaluation sweep.

The evaluation grid (Figures 13-15 + Table 1) is ``apps x optimization
levels x ME counts`` -- embarrassingly parallel once each (app, level)
compile is cached. This module fans the grid's compile+simulate jobs
across a ``multiprocessing`` spawn pool and merges the results
deterministically:

* A job returns **plain picklable data** -- its measurements and, when
  asked for, its compile's verify verdict and occupancy cell -- and is
  the same call whether it runs inline (``--jobs 1``) or in a worker
  process.
* Results are ordered by the **job key**, never by completion order,
  so ``--jobs 1`` and ``--jobs N`` produce bit-identical
  ``BENCH_*.json`` output (asserted in ``tests/test_sweep.py``; CI's
  ``figures`` job ``cmp``s a fresh ``--jobs 2`` sweep against the
  committed files). The simulator itself is
  deterministic across processes and hash seeds, which the same test
  proves end to end.
* Compiles go through the on-disk artifact cache
  (:mod:`repro.sweep.cache`); a parallel run warms the distinct
  (app, level) artifacts first so no two workers duplicate a compile
  that the grid needs many times.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.aggregation import TARGET_GBPS
from repro.obs import trace as obs_trace
from repro.options import LEVEL_ORDER
from repro.sweep.benchio import write_bench_json
from repro.sweep.cache import CompileCache, repo_root

#: ME counts of the Figure 13-15 rate curves.
ME_COUNTS = [1, 2, 3, 4, 5, 6]

#: The paper's Table 1 rows (-O2 and SOAR do not change access counts).
TABLE1_LEVELS = ["BASE", "O1", "PAC", "PHR", "SWC"]

#: Which BENCH file each app's results land in.
FIG_BY_APP = {"l3switch": "fig13", "firewall": "fig14", "mpls": "fig15"}

#: Steady-state measurement windows (packets) used by the benchmarks.
RATE_WARMUP, RATE_MEASURE = 60, 220
TABLE1_WARMUP, TABLE1_MEASURE = 60, 250
TABLE1_N_MES = 2

#: Profiling-trace parameters shared by every compile in the sweep.
TRACE_PACKETS, TRACE_SEED = 200, 5

_PROFILE_FIELDS = ("pkt_scratch", "pkt_sram", "pkt_dram",
                   "app_scratch", "app_sram", "total")


@dataclass(frozen=True)
class SweepJob:
    """One compile+simulate cell of the evaluation grid."""

    app: str
    level: str
    kind: str  # "rate" (figure curves) or "table1" (access counts)
    n_mes: int
    warmup_packets: int
    measure_packets: int
    #: Optional packet-trace output path (not part of the job identity;
    #: tracing is pure observation).
    trace_json: Optional[str] = None
    #: Not a field: every compile aims at the one aggregation target.
    #: Readable because ``benchmarks/pipeline/sweep_grid.py`` passes it
    #: to ``cache_key`` (that directory is frozen, ROADMAP item 3).
    target_gbps: ClassVar[float] = TARGET_GBPS

    def sort_key(self) -> Tuple:
        level_rank = (LEVEL_ORDER.index(self.level)
                      if self.level in LEVEL_ORDER else len(LEVEL_ORDER))
        return (self.app, self.kind, level_rank, self.level, self.n_mes)

    def describe(self) -> str:
        return "%s/%s %s @%d MEs" % (self.app, self.level, self.kind,
                                     self.n_mes)


@dataclass
class JobResult:
    """One job's measured outputs."""

    job: SweepJob
    rate_gbps: float
    profile: Dict[str, float]
    cache_hit: bool
    wall_s: float
    #: ``verify_against_reference``'s verdict on this job's (app, level)
    #: compile, when the sweep runs with ``verify=True`` (None otherwise).
    verified: Optional[bool] = None
    #: Stall-cycle attribution cell (repro.obs.profile) for rate jobs
    #: run with ``profile=True`` (None otherwise).
    occupancy: Optional[dict] = None


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a (possibly spawned) worker needs to run jobs."""

    cache_dir: Optional[str] = None
    use_cache: bool = True
    trace_packets: int = TRACE_PACKETS
    trace_seed: int = TRACE_SEED
    #: Accepted and selects nothing: ``benchmarks/pipeline/sweep_grid.py``
    #: passes ``obs=False``, and that directory is frozen (ROADMAP item 3).
    obs: bool = True
    #: Opt-in correctness check: run ``verify_against_reference`` once
    #: per distinct (app, level) compile and attach its verdict to the
    #: job results.
    verify: bool = False
    #: Attach a stall-cycle attribution profiler to every rate job and
    #: emit BENCH_occupancy.json (pure observation; measured rates are
    #: bit-identical either way).
    profile: bool = False


def build_jobs(apps: Sequence[str],
               levels: Optional[Sequence[str]] = None,
               me_counts: Optional[Sequence[int]] = None,
               table1: bool = True,
               rate_warmup: int = RATE_WARMUP,
               rate_measure: int = RATE_MEASURE,
               table1_warmup: int = TABLE1_WARMUP,
               table1_measure: int = TABLE1_MEASURE,
               trace_sink: Optional[Callable[[str], Optional[str]]] = None,
               ) -> List[SweepJob]:
    """The job list for one sweep: rate curves for every requested
    (app, level, n_mes), plus Table 1 access-count runs at the paper's
    fixed 2-ME configuration for the levels Table 1 reports.

    ``trace_sink(app)`` names a packet-trace output file; the
    fully-optimized run at the highest ME count is the one traced
    (the CLI's ``--packet-trace``).
    """
    levels = list(levels) if levels is not None else list(LEVEL_ORDER)
    me_counts = list(me_counts) if me_counts is not None else list(ME_COUNTS)
    jobs: List[SweepJob] = []
    for app in apps:
        for level in levels:
            for n in me_counts:
                trace_json = None
                if (trace_sink is not None and level == levels[-1]
                        and n == max(me_counts)):
                    trace_json = trace_sink(app)
                jobs.append(SweepJob(app, level, "rate", n,
                                     rate_warmup, rate_measure,
                                     trace_json=trace_json))
        if table1:
            for level in [lv for lv in TABLE1_LEVELS if lv in levels]:
                jobs.append(SweepJob(app, level, "table1", TABLE1_N_MES,
                                     table1_warmup, table1_measure))
    return jobs


# -- job execution (shared by the inline path and pool workers) ------------------


def execute_job(job: SweepJob, cfg: WorkerConfig,
                cache: Optional[CompileCache] = None) -> JobResult:
    """Run one job and return its outputs as picklable plain data."""
    from repro.rts.system import run_on_simulator

    if cache is None:
        cache = _process_cache(cfg)
    t0 = time.perf_counter()
    result, trace, hit = _compile(cache, cfg, job.app, job.level)
    profiler = None
    if cfg.profile and job.kind == "rate":
        from repro.obs.profile import StallProfiler

        profiler = StallProfiler()
    run = run_on_simulator(result, trace, n_mes=job.n_mes,
                           warmup_packets=job.warmup_packets,
                           measure_packets=job.measure_packets,
                           trace_json=job.trace_json,
                           profiler=profiler)
    verified = _verify_compile(job, cfg, result, trace) if cfg.verify else None
    occupancy = None
    if profiler is not None:
        from repro.obs.profile import occupancy_cell

        occupancy = occupancy_cell(job.app, job.level, job.n_mes,
                                   run.forwarding_gbps, run.occupancy)
    profile = {f: getattr(run.access_profile, f) for f in _PROFILE_FIELDS}
    return JobResult(job=job,
                     rate_gbps=round(run.forwarding_gbps, 3),
                     profile=profile,
                     cache_hit=hit,
                     wall_s=time.perf_counter() - t0,
                     verified=verified,
                     occupancy=occupancy)


def _compile(cache: CompileCache, cfg: WorkerConfig, app: str, level: str):
    """``cache.get_or_compile`` for one compile identity. The job is
    what knows which app and level a compile belongs to, so the stage
    spans a cache miss captures are stamped here."""
    with obs_trace.label_compile_spans(app=app, level=level):
        return cache.get_or_compile(app, level, cfg.trace_packets,
                                    cfg.trace_seed)


#: Per-process memo: the verdict on one (app, level) compile does not
#: depend on the ME count, so the many grid cells sharing a compile
#: share one oracle run.
_VERIFIED: Dict[Tuple, bool] = {}


def _verify_compile(job: SweepJob, cfg: WorkerConfig, result, trace) -> bool:
    """``verify_against_reference`` on this job's compiled artifact
    (memoized per process per (app, level))."""
    from repro.rts.system import verify_against_reference

    key = (job.app, job.level, cfg.trace_packets, cfg.trace_seed)
    if key not in _VERIFIED:
        _VERIFIED[key] = verify_against_reference(result, trace)
    return _VERIFIED[key]


# -- pool worker plumbing --------------------------------------------------------

_WORKER_CFG: Optional[WorkerConfig] = None
_WORKER_CACHE: Optional[CompileCache] = None


def _process_cache(cfg: WorkerConfig) -> CompileCache:
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = CompileCache(cfg.cache_dir, enabled=cfg.use_cache)
    return _WORKER_CACHE


def _worker_init(cfg: WorkerConfig) -> None:
    global _WORKER_CFG, _WORKER_CACHE
    _WORKER_CFG = cfg
    _WORKER_CACHE = CompileCache(cfg.cache_dir, enabled=cfg.use_cache)


def _worker_run(job: SweepJob) -> JobResult:
    return execute_job(job, _WORKER_CFG, _WORKER_CACHE)


def _worker_precompile(pair: Tuple[str, str]) -> bool:
    """Warm the disk cache for one compile identity (app, level); True on
    a cache hit."""
    _res, _trace, hit = _compile(_WORKER_CACHE, _WORKER_CFG, *pair)
    return hit


# -- the sweep -------------------------------------------------------------------


@dataclass
class SweepResult:
    """Deterministically ordered results of one sweep."""

    jobs: List[JobResult]
    cache_hits: int = 0
    cache_misses: int = 0
    wall_s: float = 0.0
    n_procs: int = 1

    # -- views -------------------------------------------------------------------

    def series(self, app: str) -> Dict[str, List[float]]:
        """level -> [rate at each ME count], the Figure 13-15 shape."""
        rows: Dict[str, Dict[int, float]] = {}
        for jr in self.jobs:
            if jr.job.kind == "rate" and jr.job.app == app:
                rows.setdefault(jr.job.level, {})[jr.job.n_mes] = jr.rate_gbps
        return {level: [by_me[n] for n in sorted(by_me)]
                for level, by_me in rows.items()}

    def profiles(self, app: str) -> Dict[str, Dict[str, float]]:
        """level -> Table 1 access-count row (unrounded)."""
        return {jr.job.level: dict(jr.profile) for jr in self.jobs
                if jr.job.kind == "table1" and jr.job.app == app}

    def verdicts(self) -> Dict[Tuple[str, str], bool]:
        """(app, level) -> ``verify_against_reference``'s verdict, for
        every compile the sweep verified (empty when it verified none)."""
        return {(jr.job.app, jr.job.level): jr.verified
                for jr in self.jobs if jr.verified is not None}

    def bench_payloads(self) -> Dict[str, Dict]:
        """figure -> BENCH_*.json payload (rates rounded to 3 during
        measurement, access counts rounded to 3 here)."""
        payloads: Dict[str, Dict] = {}
        apps = sorted({jr.job.app for jr in self.jobs})
        for app in apps:
            figure = FIG_BY_APP.get(app, app)
            payload: Dict = {"app": app}
            rate_jobs = [jr.job for jr in self.jobs
                         if jr.job.kind == "rate" and jr.job.app == app]
            if rate_jobs:
                payload["me_counts"] = sorted({j.n_mes for j in rate_jobs})
                payload["rates"] = self.series(app)
            profiles = self.profiles(app)
            if profiles:
                payload["mem_accesses"] = {
                    level: {f: round(row[f], 3) for f in _PROFILE_FIELDS}
                    for level, row in profiles.items()
                }
            payloads[figure] = payload
        return payloads

    def occupancy_payload(self) -> Optional[Dict]:
        """BENCH_occupancy.json payload: one stall-attribution cell per
        profiled rate job, keyed ``app/LEVEL@n_mes``. None when no job
        was profiled."""
        cells = {"%s/%s@%d" % (jr.job.app, jr.job.level, jr.job.n_mes):
                 jr.occupancy
                 for jr in self.jobs if jr.occupancy is not None}
        if not cells:
            return None
        return {"cells": cells}

    def write_bench_files(self, out_dir: Optional[str] = None) -> List[str]:
        """Write every payload to ``<out_dir>/BENCH_<figure>.json``
        (default: the repo root), replacing what is there: each file
        holds this sweep's cells and nothing else."""
        out_dir = out_dir or repo_root()
        paths = []
        for figure, payload in sorted(self.bench_payloads().items()):
            path = os.path.join(out_dir, "BENCH_%s.json" % figure)
            paths.append(write_bench_json(path, figure, payload))
        occupancy = self.occupancy_payload()
        if occupancy is not None:
            path = os.path.join(out_dir, "BENCH_occupancy.json")
            paths.append(write_bench_json(path, "occupancy", occupancy,
                                          kind="bench_occupancy"))
        return paths


def run_sweep(jobs: Sequence[SweepJob], n_procs: int = 1,
              cache: Optional[CompileCache] = None,
              cfg: Optional[WorkerConfig] = None) -> SweepResult:
    """Execute ``jobs`` with ``n_procs`` processes and merge results.

    ``n_procs <= 1`` runs every job inline; larger values fan jobs
    across a spawn pool after warming the compile cache for the distinct
    (app, level) pairs. Either way the returned :class:`SweepResult`
    lists jobs in sort-key order -- the one thing merged -- so the two
    modes are indistinguishable to consumers.
    """
    if cfg is None:
        cfg = WorkerConfig(
            cache_dir=cache.cache_dir if cache is not None else None,
            use_cache=cache.enabled if cache is not None else True,
        )
    if cache is None:
        cache = CompileCache(cfg.cache_dir, enabled=cfg.use_cache)

    ordered = sorted(jobs, key=SweepJob.sort_key)
    t0 = time.perf_counter()
    if n_procs <= 1 or len(ordered) <= 1:
        results = [execute_job(job, cfg, cache) for job in ordered]
        n_procs = 1
    else:
        pairs = sorted({(j.app, j.level) for j in ordered})
        ctx = multiprocessing.get_context("spawn")
        procs = min(n_procs, len(ordered))
        with ctx.Pool(procs, initializer=_worker_init,
                      initargs=(cfg,)) as pool:
            warm_hits = pool.map(_worker_precompile, pairs)
            results = pool.map(_worker_run, ordered)
        # Local bookkeeping: pool workers hit their own cache objects.
        cache.hits += sum(warm_hits)
        cache.misses += len(warm_hits) - sum(warm_hits)

    hits = sum(1 for jr in results if jr.cache_hit)
    misses = len(results) - hits
    return SweepResult(jobs=results, cache_hits=hits, cache_misses=misses,
                       wall_s=time.perf_counter() - t0, n_procs=n_procs)
