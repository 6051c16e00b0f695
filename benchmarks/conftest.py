"""Shared infrastructure for the microbenchmark and ablation benchmarks.

Figure 6 and the two ablations (stack layout, SWC check period) each
write their rows to ``benchmarks/results/<name>.txt`` (also echoed to
stdout) so the numbers survive pytest's output capture. Table 1 and
Figures 13-15 are not here: ``python -m repro.sweep`` is their one
producer, and ``tests/test_paper_shape.py`` asserts their shape on the
committed ``BENCH_fig13/14/15.json``.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


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
