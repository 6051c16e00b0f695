"""Process-parallel evaluation-sweep orchestrator with compile caching.

One command regenerates the paper's whole evaluation (Figures 13-15
rate curves + Table 1 access counts)::

    python -m repro.sweep --apps l3switch,firewall,mpls --jobs 4

Guarantees (see DESIGN.md section 9):

* ``--jobs 1`` and ``--jobs N`` produce **bit-identical**
  ``BENCH_*.json`` files -- results merge in job-key order, never
  completion order, and a job is the same call whether it runs inline
  or in a worker process.
* A BENCH file is the output of **one run**: this command is the only
  producer of the figure files, and it replaces each file whole.
* Each (app, level) compiles **once ever**: artifacts persist in an
  on-disk cache keyed by a content fingerprint (Baker source, options,
  trace parameters, compiler version), shared by CLI runs and pool
  workers alike.
"""

from repro.sweep.benchio import write_bench_json
from repro.sweep.cache import (
    CompileCache,
    cache_key,
    compiler_fingerprint,
    default_cache_dir,
    repo_root,
)
from repro.sweep.orchestrator import (
    FIG_BY_APP,
    ME_COUNTS,
    RATE_MEASURE,
    RATE_WARMUP,
    TABLE1_LEVELS,
    TABLE1_MEASURE,
    TABLE1_N_MES,
    TABLE1_WARMUP,
    TRACE_PACKETS,
    TRACE_SEED,
    JobResult,
    SweepJob,
    SweepResult,
    WorkerConfig,
    build_jobs,
    execute_job,
    run_sweep,
)

__all__ = [
    "CompileCache",
    "FIG_BY_APP",
    "JobResult",
    "ME_COUNTS",
    "RATE_MEASURE",
    "RATE_WARMUP",
    "SweepJob",
    "SweepResult",
    "TABLE1_LEVELS",
    "TABLE1_MEASURE",
    "TABLE1_N_MES",
    "TABLE1_WARMUP",
    "TRACE_PACKETS",
    "TRACE_SEED",
    "WorkerConfig",
    "build_jobs",
    "cache_key",
    "compiler_fingerprint",
    "default_cache_dir",
    "execute_job",
    "repo_root",
    "run_sweep",
    "write_bench_json",
]
