"""The ME-image analyzer (repro.analyze): pass framework semantics,
report byte-determinism, and clean translation validation of every
app at every optimization level.

The validator's sensitivity (it must *fail* on miscompiles) is proven
separately by tests/test_analyze_mutations.py; this file proves the
other direction -- no false positives on correct compiles -- plus the
framework plumbing the passes hang off.
"""

from __future__ import annotations

import json

import pytest

from repro.analyze import (
    AnalysisError,
    registered_passes,
    resolve_passes,
    run_analysis,
)
from repro.analyze.core import report_text
from repro.apps import get_app
from repro.compiler import compile_baker
from repro.options import LEVEL_ORDER, options_for

APPS = ("l3switch", "firewall", "mpls")

# Small but representative windows: the full app x level matrix runs in
# seconds, and every divergence class the mutation suite plants is
# already visible within the first handful of trace roots.
PACKETS, SEED, ROOTS = (120, 5, 12)

_compiled = {}


def _compile(app_name, level):
    key = (app_name, level)
    if key not in _compiled:
        app = get_app(app_name)
        trace = app.make_trace(PACKETS, seed=SEED)
        _compiled[key] = (
            compile_baker(app.source, options_for(level), trace), trace)
    return _compiled[key]


def _analyze(app_name, level, passes=None):
    result, trace = _compile(app_name, level)
    return run_analysis(app_name, level, passes=passes, packets=PACKETS,
                        seed=SEED, validate_packets=ROOTS,
                        result=result, trace=trace)


# -- pass framework -------------------------------------------------------------


def test_stock_passes_registered():
    names = [p.name for p in registered_passes()]
    assert names == ["images", "layout", "bounds", "budget", "validate"]


def test_resolve_passes_pulls_dependencies():
    # Asking only for a downstream pass schedules its requirements
    # first, in registration order.
    names = [p.name for p in resolve_passes(["validate"])]
    assert names == ["images", "validate"]
    names = [p.name for p in resolve_passes(["budget", "layout"])]
    assert names.index("images") < names.index("budget")
    assert names.index("images") < names.index("layout")


def test_resolve_passes_rejects_unknown():
    with pytest.raises(AnalysisError):
        resolve_passes(["no_such_pass"])


def test_resolve_defaults_to_all_passes():
    assert [p.name for p in resolve_passes()] == \
        [p.name for p in registered_passes()]


# -- report determinism ---------------------------------------------------------


def test_report_byte_deterministic_same_artifact():
    a = _analyze("mpls", "SWC")
    b = _analyze("mpls", "SWC")
    assert report_text(a) == report_text(b)


def test_report_byte_deterministic_fresh_compile():
    # Two independent compiles of the same source at the same level
    # must analyze to the same bytes (the compiler itself is
    # deterministic, and the analyzer adds no timestamps or ids).
    baseline = report_text(_analyze("firewall", "SWC"))
    app = get_app("firewall")
    trace = app.make_trace(PACKETS, seed=SEED)
    result = compile_baker(app.source, options_for("SWC"), trace)
    again = run_analysis("firewall", "SWC", packets=PACKETS, seed=SEED,
                         validate_packets=ROOTS, result=result, trace=trace)
    assert report_text(again) == baseline


def test_report_is_valid_sorted_json():
    text = report_text(_analyze("mpls", "BASE"))
    assert text.endswith("\n")
    report = json.loads(text)
    assert report["kind"] == "analyze_report"
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- the full matrix validates clean --------------------------------------------


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("level", LEVEL_ORDER)
def test_matrix_validates_clean(app_name, level):
    """Every app at every O-level: all five passes, zero error
    findings. This is the no-false-positives half of the translation
    validator's contract."""
    report = _analyze(app_name, level)
    errors = [f for payload in report["passes"].values()
              for f in payload["findings"] if f["severity"] == "error"]
    assert errors == [], "unexpected error findings: %r" % errors[:3]
    assert report["ok"] is True
    assert report["errors_total"] == 0


# -- individual pass structure --------------------------------------------------


def test_images_pass_inventories_every_aggregate():
    report = _analyze("l3switch", "SWC", passes=["images"])
    payload = report["passes"]["images"]
    result, _trace = _compile("l3switch", "SWC")
    assert sorted(result.images) == sorted(payload["images"])
    for row in payload["images"].values():
        assert row["n_insns"] > 0
        assert row["code_size"] > 0
        assert row["inputs"], "an ME image with no input rings is dead"


def test_bounds_pass_reports_paths():
    report = _analyze("mpls", "SWC", passes=["bounds"])
    payload = report["passes"]["bounds"]
    for name, row in payload["images"].items():
        assert row["paths"], "no entry paths bounded for %s" % name
        for path in row["paths"]:
            assert path["cycles_bound"] > 0


def test_budget_pass_rederives_code_size():
    report = _analyze("firewall", "SWC", passes=["budget"])
    payload = report["passes"]["budget"]
    result, _trace = _compile("firewall", "SWC")
    for name, row in payload["images"].items():
        assert row["derived_code_size"] == result.images[name].code_size


def test_validate_pass_replays_roots():
    report = _analyze("mpls", "SWC", passes=["validate"])
    payload = report["passes"]["validate"]
    for row in payload["images"].values():
        assert row["roots_checked"] > 0
        assert row["effects_checked"] > 0
        assert row["divergent_roots"] == 0
        assert row["replay_timeouts"] == 0


# -- CLI ------------------------------------------------------------------------


def test_cli_list_and_report(tmp_path, capsys):
    from repro.analyze.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "validate" in out and "bounds" in out

    out_path = tmp_path / "report.json"
    code = main(["mpls", "-O", "BASE", "--packets", "60",
                 "--validate-packets", "6", "-o", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["ok"] is True
    capsys.readouterr()


def test_cli_level_aliases(capsys):
    from repro.analyze.__main__ import main

    code = main(["firewall", "-O3", "--pass", "images",
                 "--packets", "40"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["level"] == "SWC"
    with pytest.raises(SystemExit):
        main(["firewall", "-O", "nonsense"])
    capsys.readouterr()


def test_analyze_cli_fails_fast(tmp_path, capsys, monkeypatch):
    """A bad argument is ``parser.error`` naming flag and value (exit 2)
    before anything is compiled or written: no ``KeyError`` /
    ``AnalysisError`` traceback, and no vacuous pass -- ``--packets 0``
    used to validate zero roots per image and print "ok", and
    ``--validate-packets -3`` silently meant "the whole trace"."""
    from repro.analyze import __main__ as cli

    def no_analysis(*_args, **_kw):
        raise AssertionError("run_analysis reached with a bad argument")

    monkeypatch.setattr(cli, "run_analysis", no_analysis)
    out = tmp_path / "report.json"
    for argv, needle in (
            (["nosuchapp"], "unknown app 'nosuchapp'"),
            (["mpls", "--pass", "nosuch"], "unknown pass --pass 'nosuch'"),
            (["mpls", "--packets", "0"], "--packets must be >= 1, got 0"),
            (["mpls", "--validate-packets", "-3"],
             "--validate-packets must be >= 0 (0 = the whole trace), got -3"),
            (["mpls", "-O", "nonsense"],
             "unknown optimization level -O 'nonsense'")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["-o", str(out)])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err and needle in err, err
        assert "Traceback" not in err
        assert not out.exists(), argv

    # 0 still means the whole trace, and reaches the analysis as None.
    seen = {}
    monkeypatch.setattr(
        cli, "run_analysis",
        lambda *a, **kw: seen.update(kw) or {"ok": True, "errors_total": 0})
    monkeypatch.setattr(cli, "write_report", lambda report, path: None)
    assert cli.main(["mpls", "--validate-packets", "0", "-o", str(out)]) == 0
    assert seen["validate_packets"] is None and seen["packets"] == 200
    capsys.readouterr()
