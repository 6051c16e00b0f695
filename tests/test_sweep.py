"""The sweep orchestrator's core guarantees.

The headline property is determinism across process counts: a sweep at
``--jobs 1`` must produce bit-identical BENCH_*.json files (rates *and*
Table 1 access counts) to the same sweep at ``--jobs N``. The rest pins
down the on-disk compile cache (miss-then-hit, corruption tolerance),
the bench-file write contract (one run, one whole file; concurrent
writers), the surface ``benchmarks/pipeline`` freezes, and the CLI's
``--packet-trace`` and fail-fast validation.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.obs import diff as obs_diff
from repro.obs import trace as obs_trace
from repro.sweep import (CompileCache, SweepJob, build_jobs, cache_key,
                         run_sweep, write_bench_json)

APP = "l3switch"
LEVELS = ["BASE", "SWC"]
ME_COUNTS = [1, 2]

# Small steady-state windows keep the grid fast; determinism does not
# depend on window size (the simulator is cycle-deterministic).
WINDOWS = dict(rate_warmup=30, rate_measure=60,
               table1_warmup=30, table1_measure=60)


def _small_jobs():
    return build_jobs([APP], levels=LEVELS, me_counts=ME_COUNTS,
                      table1=True, **WINDOWS)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# -- determinism across process counts (the tentpole guarantee) ------------------


def test_jobs1_vs_jobs2_bit_identical(tmp_path):
    """One process and two processes -- each on a cold cache -- must
    produce byte-identical BENCH output, and the perf-diff gate must
    see zero regression at tolerance 0."""
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    out1.mkdir(), out2.mkdir()

    sweep1 = run_sweep(_small_jobs(), n_procs=1,
                       cache=CompileCache(str(tmp_path / "cache1")))
    paths1 = sweep1.write_bench_files(str(out1))

    cache2 = CompileCache(str(tmp_path / "cache2"))
    sweep2 = run_sweep(_small_jobs(), n_procs=2, cache=cache2)
    paths2 = sweep2.write_bench_files(str(out2))
    # Cold cache: one miss per (app, level) from the warm phase, then
    # every job hits.
    assert (cache2.misses, sweep2.cache_hits) == (len(LEVELS),
                                                  len(_small_jobs()))

    assert [os.path.basename(p) for p in paths1] == ["BENCH_fig13.json"]
    assert _read(paths1[0]) == _read(paths2[0])

    # Structured views agree too, not just the serialized files.
    assert sweep1.series(APP) == sweep2.series(APP)
    assert sweep1.bench_payloads() == sweep2.bench_payloads()

    # And the CI regression gate sees nothing even at zero tolerance.
    text, code = obs_diff.run_diff(paths1[0], paths2[0], tolerance=0.0)
    assert code == 0, text


def test_sweep_results_ordered_by_job_key(tmp_path):
    """Results come back in sort-key order regardless of submission
    order, which is what makes the merge deterministic."""
    jobs = list(reversed(_small_jobs()))
    sweep = run_sweep(jobs, n_procs=1,
                      cache=CompileCache(str(tmp_path / "cache")))
    keys = [jr.job.sort_key() for jr in sweep.jobs]
    assert keys == sorted(keys)


# -- the on-disk compile cache ---------------------------------------------------


def test_cache_miss_then_hit_skips_recompilation(tmp_path):
    cache = CompileCache(str(tmp_path / "cache"))
    result1, trace1, hit1 = cache.get_or_compile(APP, "BASE", 50, 5)
    assert hit1 is False and cache.misses == 1

    # A *fresh* cache object (new process, new session) must hit disk.
    cache2 = CompileCache(str(tmp_path / "cache"))
    result2, trace2, hit2 = cache2.get_or_compile(APP, "BASE", 50, 5)
    assert hit2 is True and cache2.hits == 1 and cache2.misses == 0

    # The artifact round-trips: same image count, same packet trace.
    assert len(result2.images) == len(result1.images)
    assert len(trace2.packets) == len(trace1.packets)


def test_cache_key_sensitivity(tmp_path):
    from repro.apps import get_app
    from repro.options import options_for

    app = get_app(APP)
    base = cache_key(app.source, options_for("BASE"), 50, 5)
    assert cache_key(app.source, options_for("BASE"), 50, 5) == base
    assert cache_key(app.source, options_for("SWC"), 50, 5) != base
    assert cache_key(app.source, options_for("BASE"), 51, 5) != base
    assert cache_key(app.source, options_for("BASE"), 50, 6) != base
    assert cache_key(app.source + "\n", options_for("BASE"), 50, 5) != base


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = CompileCache(str(tmp_path / "cache"))
    _res, _trace, hit = cache.get_or_compile(APP, "BASE", 50, 5)
    assert hit is False

    # Truncate every stored artifact, then look up with a fresh cache.
    n_files = 0
    for base, _dirs, files in os.walk(str(tmp_path / "cache")):
        for name in files:
            if name.endswith(".pkl"):
                with open(os.path.join(base, name), "wb") as fh:
                    fh.write(b"not a pickle")
                n_files += 1
    assert n_files == 1

    cache2 = CompileCache(str(tmp_path / "cache"))
    _res, _trace, hit2 = cache2.get_or_compile(APP, "BASE", 50, 5)
    assert hit2 is False, "corrupt artifact must be treated as a miss"

    # ... and the recompile overwrote it, so a third lookup hits.
    cache3 = CompileCache(str(tmp_path / "cache"))
    _res, _trace, hit3 = cache3.get_or_compile(APP, "BASE", 50, 5)
    assert hit3 is True


def test_cache_corrupt_entry_deleted_and_counted(tmp_path):
    """An undecodable artifact is unlinked on first detection and
    counted apart from plain misses -- not left on disk to be re-read
    and re-discarded by every later run."""
    from repro.apps import get_app
    from repro.options import options_for

    cache = CompileCache(str(tmp_path / "cache"))
    cache.get_or_compile(APP, "BASE", 50, 5)
    key = cache_key(get_app(APP).source, options_for("BASE"), 50, 5)
    path = cache._path(key)
    assert os.path.exists(path)
    with open(path, "wb") as fh:
        fh.write(b"not a pickle")

    # load() alone must delete the dead bytes (get_or_compile would
    # immediately overwrite them with a fresh artifact).
    cache2 = CompileCache(str(tmp_path / "cache"))
    assert cache2.load(key) is None
    assert (cache2.corrupt_entries, cache2.hits, cache2.misses) == (1, 0, 0)
    assert not os.path.exists(path)
    assert cache2.load(key) is None  # gone: now a plain miss
    assert cache2.corrupt_entries == 1

    # Through get_or_compile the lookup is a miss that also counts the
    # corrupt entry, and the recompile stores a good artifact again.
    with open(path, "wb") as fh:
        fh.write(b"also not a pickle")
    cache3 = CompileCache(str(tmp_path / "cache"))
    _res, _trace, hit = cache3.get_or_compile(APP, "BASE", 50, 5)
    assert hit is False
    assert (cache3.corrupt_entries, cache3.hits, cache3.misses) == (1, 0, 1)

    cache4 = CompileCache(str(tmp_path / "cache"))
    _res, _trace, hit4 = cache4.get_or_compile(APP, "BASE", 50, 5)
    assert hit4 is True
    assert (cache4.corrupt_entries, cache4.hits, cache4.misses) == (0, 1, 0)


def test_cache_disabled_never_touches_disk(tmp_path):
    cache = CompileCache(str(tmp_path / "cache"), enabled=False)
    _res, _trace, hit = cache.get_or_compile(APP, "BASE", 50, 5)
    assert hit is False
    assert not os.path.exists(str(tmp_path / "cache"))
    # The in-process memo still works.
    _res, _trace, hit2 = cache.get_or_compile(APP, "BASE", 50, 5)
    assert hit2 is True


# -- one run, one whole file -----------------------------------------------------


@pytest.mark.parametrize("existing", [
    json.dumps({"kind": "stale", "figure": "wrong", "note": "old",
                "me_counts": [1, 2], "rates": {"BASE": [0.1, 0.2]}}),
    "{half a json docum",
    "\x00\xff not text at all",
], ids=["stale", "partial", "unparsable"])
def test_write_bench_json_replaces_whatever_was_there(tmp_path, existing):
    """Nothing of the file being replaced survives -- not its keys, not
    its ``kind`` -- and nothing is left beside it."""
    path = tmp_path / "BENCH_fig13.json"
    path.write_text(existing, encoding="latin-1")
    payload = {"app": APP, "me_counts": [6], "rates": {"SWC": [1.0]}}
    assert write_bench_json(str(path), "fig13", payload) == str(path)
    assert json.loads(path.read_text()) == dict(payload, kind="bench",
                                                figure="fig13")
    assert os.listdir(str(tmp_path)) == ["BENCH_fig13.json"]


def test_write_bench_json_concurrent_writers(tmp_path):
    """Sixteen writers racing on one path leave one writer's complete
    document: never a torn file, a mixture, or a stray temporary."""
    path = str(tmp_path / "BENCH_fig13.json")
    n = 16
    payloads = [{"app": "w%02d" % i, "me_counts": list(range(1, i + 2)),
                 "rates": {"SWC": [float(i)] * (i + 1)}} for i in range(n)]
    errors = []

    def writer(payload):
        try:
            write_bench_json(path, "fig13", payload)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads) and not errors
    with open(path) as fh:
        data = json.load(fh)
    assert data in [dict(p, kind="bench", figure="fig13") for p in payloads]
    assert os.listdir(str(tmp_path)) == ["BENCH_fig13.json"]


@pytest.fixture
def sweep_cli(tmp_path):
    """Run ``python -m repro.sweep`` in-process with every output under
    ``tmp_path`` (or ``tmp_path/<into>``, cache included); ``--packet-trace``
    arms process-global span capture, so leave it as it was found."""
    from repro.sweep.__main__ import main

    def run(*argv, into=""):
        out_dir = os.path.join(str(tmp_path), into)
        return main(list(argv) + [
            "--warmup", "30", "--measure", "60", "--out-dir", out_dir,
            "--cache-dir", os.path.join(out_dir, "cache")])

    yield run
    obs_trace.capture_compile_spans(False)


def test_partial_sweep_over_full_file_is_self_consistent(tmp_path, sweep_cli,
                                                         capsys):
    """One cell swept into a directory holding the full figure file
    leaves a file describing that one cell (merging used to leave
    ``me_counts: [6]`` beside six-entry rows) -- and the diff gate sees
    every other cell of the committed file vanish."""
    import shutil

    from repro.sweep import repo_root

    committed = os.path.join(repo_root(), "BENCH_fig15.json")
    target = tmp_path / "BENCH_fig15.json"
    shutil.copy(committed, str(target))
    assert sweep_cli("--apps", "mpls", "--levels", "SWC",
                     "--me-counts", "6", "--no-table1") == 0
    capsys.readouterr()

    data = obs_diff.load_file(str(target))  # well-formed, or it raises
    assert data["me_counts"] == [6]
    assert list(data["rates"]) == ["SWC"] and len(data["rates"]["SWC"]) == 1
    assert sorted(data) == ["app", "figure", "kind", "me_counts", "rates"]
    text, code = obs_diff.run_diff(committed, str(target), tolerance=1.0)
    assert code == obs_diff.EXIT_REGRESSION and "vanished" in text, text


def test_packet_trace_flag_writes_loadable_trace(tmp_path, sweep_cli, capsys):
    """``--packet-trace`` traces the fully-optimized run at the highest
    ME count into ``<out-dir>/<app>.trace.json``, compile stages on the
    same timeline, each saying which app and level it compiled."""
    for n_jobs in (1, 2):
        into = "j%d" % n_jobs
        assert sweep_cli("--apps", APP, "--levels", "BASE,SWC",
                         "--me-counts", "1,2", "--no-table1",
                         "--packet-trace", "--jobs", str(n_jobs),
                         into=into) == 0
        out = capsys.readouterr().out
        trace_path = tmp_path / into / (APP + ".trace.json")
        assert "wrote %s" % trace_path in out
        assert sorted(p.name for p in (tmp_path / into).glob("*.trace.json")) \
            == [APP + ".trace.json"]
        events = json.loads(trace_path.read_text())["traceEvents"]
        pids = {e["args"]["name"]: e["pid"] for e in events
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"packets", "ME0", "ME1"} <= set(pids)
        assert "ME2" not in pids  # the 2-ME run, not the 1-ME one
        assert any(e["ph"] == "b" and e["cat"] == "pkt" for e in events)
        compiled = [e for e in events
                    if e["ph"] == "B" and e["pid"] == pids.get("compiler")]
        # The sweep stamps each compile's spans with its app and level.
        assert all(e["args"]["app"] == APP
                   and e["args"]["level"] in ("BASE", "SWC")
                   and e["args"]["stage"] == e["name"] for e in compiled)
        if n_jobs == 1:
            # Compiles this process ran itself share the timeline (pool
            # workers are not armed, as --help says).
            assert {"frontend", "codegen"} <= {e["name"] for e in compiled}
            assert {e["args"]["level"] for e in compiled} == {"BASE", "SWC"}


def test_verified_job_carries_the_oracles_verdict(tmp_path):
    """A sweep job run with ``verify=True`` carries
    ``verify_against_reference``'s verdict on its compile; without it,
    none."""
    from repro.sweep.orchestrator import WorkerConfig, execute_job

    job = SweepJob("mpls", "SWC", "rate", 1, 10, 20)
    cache = CompileCache(str(tmp_path / "cache"))
    cfg = WorkerConfig(cache_dir=cache.cache_dir, trace_packets=60)
    assert execute_job(job, cfg, cache).verified is None
    cfg = WorkerConfig(cache_dir=cache.cache_dir, trace_packets=60,
                       verify=True)
    assert execute_job(job, cfg, cache).verified is True


def test_build_jobs_shape():
    jobs = _small_jobs()
    rate = [j for j in jobs if j.kind == "rate"]
    table1 = [j for j in jobs if j.kind == "table1"]
    assert len(rate) == len(LEVELS) * len(ME_COUNTS)
    assert len(table1) == len(LEVELS)  # BASE and SWC are Table 1 rows
    assert all(j.n_mes == 2 for j in table1)
    assert isinstance(jobs[0], SweepJob)


# -- the surface benchmarks/pipeline freezes ---------------------------------------


def test_benchmark_pipeline_frozen_surface(tmp_path):
    """``benchmarks/pipeline`` may not be edited by an ordinary PR, so
    the keywords it passes are an API: pin them here rather than let the
    benchmark discover a break. ``WorkerConfig(obs=)``, ``dispatch=``,
    ``cache_key(target_gbps=)`` and ``PacketTracer(streaming=)`` are
    accepted and select nothing; ``SweepJob.target_gbps`` is readable."""
    from repro.ixp.chip import IXP2400
    from repro.obs.profile import StallProfiler
    from repro.obs.timeseries import TimeseriesCollector
    from repro.obs.trace import PacketTracer
    from repro.rts.loader import load_system
    from repro.rts.system import run_on_simulator
    from repro.sweep.orchestrator import (JobResult, SweepResult,
                                          WorkerConfig, execute_job)

    cache = CompileCache(str(tmp_path / "cache"), enabled=True)
    job = SweepJob(APP, "SWC", "rate", 2, 30, 60)
    results = []
    for obs in (False, True):  # sweep_grid.py passes obs=False
        cfg = WorkerConfig(cache_dir=cache.cache_dir, use_cache=True,
                           trace_packets=50, trace_seed=5, obs=obs)
        results.append(execute_job(job, cfg, cache))
    off, on = results
    assert (off.rate_gbps, off.profile) == (on.rate_gbps, on.profile)
    assert (off.cache_hit, on.cache_hit) == (False, True)
    assert not hasattr(off, "metrics")

    # sweep_grid.py's traced round builds JobResults itself and times
    # cache.load / cache.store around its own compile.
    from repro.apps import get_app
    from repro.options import options_for

    key = cache_key(get_app(APP).source, options_for("SWC"), 50, 5,
                    target_gbps=job.target_gbps)
    assert key == cache_key(get_app(APP).source, options_for("SWC"), 50, 5)
    result, trace = cache.load(key)
    cache.store(key, (result, trace))
    jr = JobResult(job=job, rate_gbps=off.rate_gbps, profile=off.profile,
                   cache_hit=True, wall_s=0.0)
    (path,) = SweepResult(jobs=[jr]).write_bench_files(str(tmp_path))
    assert os.path.basename(path) == "BENCH_fig13.json"

    # pieces.py counts ``opt.swc_cached`` as the length of this list: every
    # table SWC serves from Local Memory.
    names = result.swc_result.cached_names()
    assert names and names == [r.name for r in result.swc_result.resident]

    # pieces.py: the untraced cell, and the loader call of the traced one.
    run = run_on_simulator(result, trace, n_mes=2, warmup_packets=30,
                           measure_packets=60, dispatch="fast",
                           profiler=StallProfiler())
    assert round(run.forwarding_gbps, 3) == off.rate_gbps
    assert run.occupancy is not None
    chip = IXP2400(n_programmable_mes=2)
    layout = load_system(result, chip, n_mes=2, dispatch="fast")
    assert sum(layout.me_assignment.values()) == 2
    chip.close()

    # pieces.py's traced serve cell builds its tracer and collector.
    tracer = PacketTracer(streaming=True)
    assert tracer.events.maxlen == PacketTracer().events.maxlen
    collector = TimeseriesCollector(40_000.0, exact_limit=256)
    collector.attach(tracer=tracer)
    assert tracer.latency_sink == collector.observe_latency

    # sweep_grid.py::_mismatch dereferences the committed figure files by
    # this shape, so the ``bench`` kind cannot be regenerated under
    # another schema without a benchmark PR (ROADMAP item 4).
    from repro.sweep import repo_root
    from repro.sweep.orchestrator import _PROFILE_FIELDS

    for fig, app in (("fig13", "l3switch"), ("fig14", "firewall"),
                     ("fig15", "mpls")):
        with open(os.path.join(repo_root(), "BENCH_%s.json" % fig)) as fh:
            committed = json.load(fh)
        assert committed["app"] == app
        for grid_job in build_jobs([app]):  # every cell the benchmark checks
            if grid_job.kind == "rate":
                column = committed["me_counts"].index(grid_job.n_mes)
                assert isinstance(
                    committed["rates"][grid_job.level][column], float)
            else:
                row = committed["mem_accesses"][grid_job.level]
                assert sorted(row) == sorted(_PROFILE_FIELDS), (fig, row)
                assert row == {f: round(v, 3) for f, v in row.items()}


# -- CLI fail-fast validation ----------------------------------------------------


def _expect_cli_error(main, argv, token, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert token in err, err


def test_sweep_cli_fails_fast(capsys):
    from repro.sweep.__main__ import main

    _expect_cli_error(main, ["--apps", "mpls,nosuchapp"], "nosuchapp",
                      capsys)
    _expect_cli_error(main, ["--levels", "SWC,TURBO"], "TURBO", capsys)
    _expect_cli_error(main, ["--me-counts", "1,0"], "0", capsys)
    _expect_cli_error(main, ["--me-counts", "1,two"], "two", capsys)
    _expect_cli_error(main, ["--jobs", "0"], "--jobs", capsys)
    _expect_cli_error(main, ["--warmup", "-5"], "--warmup must be >= 0, "
                      "got -5", capsys)
    _expect_cli_error(main, ["--measure", "0"], "--measure must be >= 1, "
                      "got 0", capsys)
    _expect_cli_error(main, ["--table1-measure", "0"],
                      "--table1-measure must be >= 1, got 0", capsys)
    _expect_cli_error(main, ["--trace-packets", "0"],
                      "--trace-packets must be >= 1, got 0", capsys)


def test_sweep_verify_exits_nonzero_on_a_miscompile(sweep_cli, capsys):
    """``--verify`` on a compile the oracle rejects: exit 2, and the
    failing (app, level) named. The miscompile changes no payload, only
    a metadata word (tests/test_analyze_mutations.py). ``--analyze`` is
    gone, not an alias."""
    from repro.cg import pktlower
    from repro.sweep import orchestrator

    assert pktlower._TEST_MUTATION is None, "hook leaked from another test"
    pktlower._TEST_MUTATION = "meta_store_dropped"
    try:
        code = sweep_cli("--apps", "firewall", "--levels", "SOAR",
                         "--me-counts", "1", "--no-table1", "--verify")
    finally:
        pktlower._TEST_MUTATION = None
        orchestrator._VERIFIED.clear()  # the verdict was the mutant's
    out = capsys.readouterr().out
    assert code == 2, out
    assert "verify: 1 of 1 compiles FAILED" in out
    assert "  firewall/SOAR: " in out
    with pytest.raises(SystemExit) as exc:
        sweep_cli("--apps", "firewall", "--analyze")
    assert exc.value.code == 2
    assert "unrecognized arguments: --analyze" in capsys.readouterr().err
