"""Shared infrastructure for the microbenchmark and ablation benchmarks.

Figure 6 and the two ablations (stack layout, SWC check period) each
write their rows to ``benchmarks/results/<name>.txt`` (also echoed to
stdout) so the numbers survive pytest's output capture. Table 1 and
Figures 13-15 are not here: ``python -m repro.sweep`` is their one
producer, and ``tests/test_paper_shape.py`` asserts their shape on the
committed ``BENCH_fig13/14/15.json``.
"""

import os
import time

import pytest

from repro import obs

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
METRICS_JSONL = os.path.join(RESULTS_DIR, "metrics.jsonl")


@pytest.fixture(scope="session", autouse=True)
def obs_registry():
    """Benchmarks always run with observability on; the session's
    metrics are *appended* to benchmarks/results/metrics.jsonl under a
    run header (mode "w" used to silently erase the previous run's
    metrics). Render all runs with ``python -m repro.obs.report``."""
    reg = obs.enable()
    yield reg
    os.makedirs(RESULTS_DIR, exist_ok=True)
    run_id = "bench-%s-p%d" % (
        time.strftime("%Y%m%dT%H%M%S", time.gmtime()), os.getpid())
    reg.dump_jsonl(METRICS_JSONL, append=True,
                   header={"run": run_id, "source": "benchmarks"})
    print("\nmetrics: %s (run %s; render: python -m repro.obs.report %s)"
          % (METRICS_JSONL, run_id, METRICS_JSONL))


@pytest.fixture(scope="session")
def report():
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def write(name: str, lines):
        text = "\n".join(lines)
        path = os.path.join(RESULTS_DIR, name + ".txt")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print("\n" + text)
        return path

    return write
