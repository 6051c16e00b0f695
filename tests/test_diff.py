"""repro.obs.diff's gate table, exercised row by row: every kind starts
from a real file (the committed BENCH files, a compile report of
``MINI_FORWARDER``), gets one mutation, and must come back with the exit
code CI relies on and a regression line naming the cell and the metric.
Each gated row sits beside its un-gated twin."""

import copy
import json
import os
from fnmatch import fnmatchcase

import pytest

from repro.obs import ledger as obs_ledger
from repro.obs.diff import (
    _SHAPES,
    EXIT_REGRESSION,
    FLATTENERS,
    GATES,
    _mismatch,
    diff_cells,
    run_diff,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]
IMAGE = "l3_switch.l2_clsfr"
CELL = "mpls/SWC@3"


@pytest.fixture(scope="module")
def originals():
    """kind -> the file every row of that kind mutates a copy of."""
    from repro.compiler import compile_baker
    from repro.options import options_for
    from repro.profiler.trace import ipv4_trace
    from tests.samples import MINI_FORWARDER

    files = {}
    for kind, name in (("bench", "BENCH_fig13.json"),
                       ("bench_churn", "BENCH_churn.json"),
                       ("bench_occupancy", "BENCH_occupancy.json")):
        with open(os.path.join(ROOT, name)) as fh:
            files[kind] = json.load(fh)
    result = compile_baker(MINI_FORWARDER, options_for("SWC"),
                           ipv4_trace(60, [0xC0A80101], MACS, seed=3))
    files["compile_report"] = json.loads(
        json.dumps(obs_ledger.compile_report(result, app="mini")))
    return files


# -- mutations (in place, on a deep copy) -------------------------------------------


def scale(factor, *path):
    def mutate(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] *= factor
    return mutate


def put(value, *path):
    def mutate(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value
    return mutate


def add(delta, *path):
    def mutate(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = round(d[path[-1]] + delta, 6)
    return mutate


def drop(*path):
    def mutate(d):
        for key in path[:-1]:
            d = d[key]
        del d[path[-1]]
    return mutate


def drop_first_me_column(d):
    d["me_counts"] = d["me_counts"][1:]
    d["rates"] = {level: row[1:] for level, row in d["rates"].items()}


def clone_cell(d):
    d["cells"]["mpls/SWC@7"] = copy.deepcopy(d["cells"]["mpls/SWC@6"])


def row(kind, name, mutate, code, needles=(), **opts):
    return pytest.param(kind, mutate, code, needles, opts,
                        id="%s-%s" % (kind, name))


#: ``old=True`` applies the mutation to the *old* file instead (the
#: committed one is then the candidate): the "appears"/"from zero" rows.
MATRIX = [
    # bench: BENCH_fig13.json
    row("bench", "rate-x0.90", scale(0.90, "rates", "SWC", -1), 2,
        ("SWC@6", "rate_gbps")),
    row("bench", "rate-x0.97", scale(0.97, "rates", "SWC", -1), 0),
    row("bench", "rate-x0.90-tolerance-0.5",
        scale(0.90, "rates", "SWC", -1), 0, tolerance=0.5),
    row("bench", "level-removed", drop("rates", "PHR"), 2, ("PHR@1",)),
    row("bench", "level-added", drop("rates", "PHR"), 0, old=True),
    # Cells are keyed by ME count, not by position in the row.
    row("bench", "me-column-removed", drop_first_me_column, 2,
        ("SWC@1: vanished",)),
    row("bench", "me-column-added", drop_first_me_column, 0, old=True),
    row("bench", "table1-row-removed", drop("mem_accesses", "SWC"), 2,
        ("SWC table1",)),
    row("bench", "table1-value-changed",
        scale(2, "mem_accesses", "SWC", "total"), 0),
    # bench_churn: BENCH_churn.json
    row("bench_churn", "mean-rate-x0.90",
        scale(0.90, "summary", "mean_rate_gbps"), 2,
        ("summary", "mean_rate_gbps dropped")),
    row("bench_churn", "mean-rate-x0.97",
        scale(0.97, "summary", "mean_rate_gbps"), 0),
    row("bench_churn", "p99-x1.10", scale(1.10, "summary", "latency", "p99"),
        2, ("summary", "latency.p99 grew")),
    row("bench_churn", "p99-x1.03", scale(1.03, "summary", "latency", "p99"),
        0),
    # "Grew by more than x %" cannot be said of zero: a service that
    # served no stale frame and starts to must not pass.
    row("bench_churn", "staleness-from-zero",
        put(0.0, "summary", "stale_cycles_max"), 2,
        ("stale_cycles_max grew from a zero baseline",), old=True),
    row("bench_churn", "staleness-to-zero",
        put(0.0, "summary", "stale_cycles_max"), 0),
    row("bench_churn", "staleness-x2",
        scale(2, "summary", "stale_cycles_max"), 2,
        ("stale_cycles_max grew",)),
    row("bench_churn", "updates-plus-1",
        add(1, "summary", "updates_applied"), 2,
        ("updates_applied changed 6 -> 7",)),
    row("bench_churn", "updates-minus-1",
        add(-1, "summary", "updates_applied"), 2, ("updates_applied",)),
    row("bench_churn", "drops-changed", add(5, "summary", "drops"), 0),
    # bench_occupancy: BENCH_occupancy.json
    row("bench_occupancy", "verdict-kind",
        put("compute-bound", "cells", CELL, "verdict", "kind"), 2,
        (CELL, "verdict changed")),
    row("bench_occupancy", "verdict-text-only",
        put("reworded", "cells", CELL, "verdict", "text"), 0),
    row("bench_occupancy", "cell-removed", drop("cells", CELL), 2,
        (CELL + ": vanished",)),
    row("bench_occupancy", "cell-added", clone_cell, 0),
    row("bench_occupancy", "share-plus-0.06",
        add(0.06, "cells", CELL, "shares", "exec"), 2,
        (CELL, "share.exec shifted")),
    row("bench_occupancy", "share-plus-0.04",
        add(0.04, "cells", CELL, "shares", "exec"), 0),
    row("bench_occupancy", "rate-x0.90",
        scale(0.90, "cells", CELL, "rate_gbps"), 2,
        (CELL, "rate_gbps dropped")),
    row("bench_occupancy", "rate-x0.97",
        scale(0.97, "cells", CELL, "rate_gbps"), 0),
    # compile_report: MINI_FORWARDER at SWC; gated only under --gate,
    # listed either way.
    row("compile_report", "image-plus-10pct-gate",
        scale(1.10, "images", IMAGE, "code_size"), 2,
        ("image " + IMAGE, "code_size grew"), gate=True),
    row("compile_report", "image-plus-10pct-no-gate",
        scale(1.10, "images", IMAGE, "code_size"), 0,
        ("REGRESSIONS:", "code_size grew")),
    row("compile_report", "image-plus-4pct-gate",
        scale(1.04, "images", IMAGE, "code_size"), 0, gate=True),
    row("compile_report", "image-appears", drop("images", IMAGE), 2,
        ("image " + IMAGE, "code_size grew from a zero baseline"),
        gate=True, old=True),
    row("compile_report", "image-vanishes", drop("images", IMAGE), 2,
        ("image %s: vanished" % IMAGE,), gate=True),
    row("compile_report", "image-from-zero",
        put(0, "images", IMAGE, "code_size"), 2,
        ("code_size grew from a zero baseline",), gate=True, old=True),
    row("compile_report", "image-to-zero",
        put(0, "images", IMAGE, "code_size"), 2,
        ("code_size fell to zero",), gate=True),
    row("compile_report", "soar-rate-lower",
        put(0.5, "opt", "soar", "resolution_rate"), 2,
        ("opt.soar", "resolution_rate dropped"), gate=True),
    row("compile_report", "soar-rate-higher",
        put(0.5, "opt", "soar", "resolution_rate"), 0, gate=True, old=True),
    row("compile_report", "pac-win-to-zero",
        put(0, "opt", "pac", "combined_loads"), 2,
        ("opt.pac", "combined_loads fell to zero"), gate=True),
    row("compile_report", "pac-win-halved",
        put(3, "opt", "pac", "combined_loads"), 0, gate=True),
    row("compile_report", "swc-cached-to-none",
        put([], "opt", "swc", "resident"), 2,
        ("opt.swc", "resident fell to zero"), gate=True),
    # Two levels run different passes: a delta, not a regression.
    row("compile_report", "pass-only-in-old", put(None, "opt", "swc"), 0,
        ("opt.swc: vanished",), gate=True),
    row("compile_report", "pass-only-in-new", put(None, "opt", "swc"), 0,
        gate=True, old=True),
    row("compile_report", "decision-counts-moved",
        put(9, "decision_counts", "pac", "combined_loads"), 0,
        ("decisions: pac.combined_loads 3 -> 9",), gate=True),
]


@pytest.mark.parametrize("kind,mutate,code,needles,opts", MATRIX)
def test_gate_matrix(originals, tmp_path, kind, mutate, code, needles, opts):
    opts = dict(opts)
    mutated = copy.deepcopy(originals[kind])
    mutate(mutated)
    paths = []
    for name, data in (("original.json", originals[kind]),
                       ("mutated.json", mutated)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as fh:
            json.dump(data, fh)
    if opts.pop("old", False):
        paths.reverse()
    text, got = run_diff(*paths, **opts)
    assert got == code, text
    for needle in needles:
        assert needle in text, text
    if code:
        assert "REGRESSIONS:" in text
    elif "REGRESSIONS:" not in needles:
        assert "no regressions beyond tolerance" in text, text
    # Whatever one mutation did, the mutated file is clean against itself.
    text, got = run_diff(paths[1], paths[1], **opts)
    assert got == 0 and "cells identical" in text, text


def _nodes(container):
    """Every (container, key, value) under a JSON document, depth first."""
    items = (container.items() if isinstance(container, dict)
             else enumerate(container))
    for key, value in list(items):
        yield container, key, value
        if isinstance(value, (dict, list)):
            yield from _nodes(value)


def test_every_gate_row_is_exercised_and_no_field_it_reads_is_untyped(
        originals):
    """The structural half: for every node of a real file of each kind,
    swapping in a value of the wrong type must either be refused by
    ``_SHAPES`` (a "malformed file" diagnostic) or pass through the
    flattener and every rule without raising -- so a metric cannot get a
    gate row without its field being typed (PR 21 gated
    ``stale_cycles_max`` untyped: ``"soon"`` was a TypeError)."""
    seen = set()
    for kind, data in originals.items():
        data = copy.deepcopy(data)
        if kind == "bench_occupancy":
            data["cells"] = {CELL: data["cells"][CELL]}
        good = FLATTENERS[kind](data)
        seen.update(
            gate for gate in GATES if gate[0] == kind and any(
                fnmatchcase(cell, gate[1]) and fnmatchcase(metric, gate[2])
                for cell, metrics in good.items() for metric in metrics))
        for container, key, value in _nodes(data):
            if container is data and key == "kind":
                continue
            container[key] = 5 if isinstance(value, (str, dict, list)) \
                else "soon"
            try:
                if _mismatch(data, _SHAPES[kind], "") is None:
                    bad = FLATTENERS[kind](data)
                    diff_cells(kind, good, bad, 0.05)
                    diff_cells(kind, bad, good, 0.05)
            finally:
                container[key] = value
    assert seen == set(GATES), set(GATES) - seen


def test_committed_bench_files_self_diff_clean_and_fig13_vs_fig14_gates():
    for name in ("BENCH_fig13.json", "BENCH_fig14.json", "BENCH_fig15.json",
                 "BENCH_occupancy.json", "BENCH_churn.json"):
        path = os.path.join(ROOT, name)
        text, code = run_diff(path, path, tolerance=0.0)
        assert code == 0 and "cells identical" in text, (name, text)
    text, code = run_diff(os.path.join(ROOT, "BENCH_fig13.json"),
                          os.path.join(ROOT, "BENCH_fig14.json"))
    assert code == EXIT_REGRESSION and "SWC@6: rate_gbps dropped" in text
