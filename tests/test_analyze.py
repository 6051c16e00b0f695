"""The compile analyzer (repro.analyze): report byte-determinism,
clean layout / budget / verify checks of every app at every
optimization level, and one planted fault per check.

The oracle's sensitivity (``verify`` must *fail* on miscompiles) is
proven separately by tests/test_analyze_mutations.py; this file proves
the other direction -- no false positives on correct compiles -- and
that ``layout``, ``budget`` and ``verify``'s load error each fire
exactly once on the fault they exist for.
"""

from __future__ import annotations

import json

import pytest

from repro.analyze import budget, layout, run_analysis
from repro.analyze.core import report_text
from repro.apps import get_app
from repro.baker.packetmodel import META_RX_PORT
from repro.compiler import compile_baker
from repro.ir import instructions as I
from repro.options import LEVEL_ORDER, options_for

APPS = ("l3switch", "firewall", "mpls")

# A small but representative profiling trace: the full app x level
# matrix runs in seconds.
PACKETS, SEED = (120, 5)

_compiled = {}


def _fresh_compile(app_name, level, **kw):
    """One compile; its ``decisions`` are the claims ``layout`` and
    ``budget`` check."""
    app = get_app(app_name)
    trace = app.make_trace(PACKETS, seed=SEED)
    return compile_baker(app.source, options_for(level), trace, **kw), trace


def _compile(app_name, level):
    key = (app_name, level)
    if key not in _compiled:
        _compiled[key] = _fresh_compile(app_name, level)
    return _compiled[key]


def _analyze(app_name, level):
    result, trace = _compile(app_name, level)
    return run_analysis(app_name, level, packets=PACKETS, seed=SEED,
                        result=result, trace=trace)


def _errors(section):
    return [f for f in section["findings"] if f["severity"] == "error"]


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
    result, trace = _fresh_compile("firewall", "SWC")
    again = run_analysis("firewall", "SWC", packets=PACKETS, seed=SEED,
                         result=result, trace=trace)
    assert report_text(again) == baseline


def test_report_is_valid_sorted_json():
    text = report_text(_analyze("mpls", "BASE"))
    assert text.endswith("\n")
    report = json.loads(text)
    assert report["kind"] == "analyze_report"
    assert report["version"] == 3
    assert list(report["passes"]) == ["budget", "layout", "verify"]
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- the full matrix validates clean --------------------------------------------


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("level", LEVEL_ORDER)
def test_matrix_validates_clean(app_name, level):
    """Every app at every O-level: all three checks, zero findings of any
    severity. This is the no-false-positives half of the differential
    oracle's contract and of the two ledger cross-checks."""
    report = _analyze(app_name, level)
    findings = [f for section in report["passes"].values()
                for f in section["findings"]]
    assert findings == [], "unexpected findings: %r" % findings[:3]
    assert report["ok"] is True
    assert report["errors_total"] == 0
    if options_for(level).soar:
        assert report["passes"]["layout"]["ledger_sites"] > 0


# -- each check fires on the fault it exists for ---------------------------------


def test_budget_pass_rederives_code_size():
    report = _analyze("firewall", "SWC")
    section = report["passes"]["budget"]
    result, _trace = _compile("firewall", "SWC")
    for name, row in section["images"].items():
        assert row["derived_code_size"] == result.images[name].code_size


def test_budget_catches_code_size_off_by_one():
    """An image whose ``code_size`` field is one word off its
    instruction list: exactly one error, naming the image."""
    result, _trace = _fresh_compile("firewall", "SWC")
    assert _errors(budget.check(result)) == []
    image = result.images[sorted(result.images)[0]]
    image.code_size += 1
    errors = _errors(budget.check(result))
    assert len(errors) == 1, errors
    assert errors[0]["subject"] == image.name
    assert "code_size claims" in errors[0]["detail"]


def test_layout_catches_rewritten_offset():
    """One resolved access whose ``c_offset_bits`` changed after SOAR
    announced it: exactly one error, naming the site."""
    result, _trace = _fresh_compile("mpls", "SWC")
    assert layout.check(result)["findings"] == []
    (image,) = result.images.values()
    victim = next(
        i for name in image.functions if name in result.mod.functions
        for i in result.mod.functions[name].all_instrs()
        if isinstance(i, (I.PktLoadWords, I.PktLoadField))
        and i.c_offset_bits is not None)
    victim.c_offset_bits += 32
    errors = _errors(layout.check(result))
    assert len(errors) == 1, errors
    assert "no matching soar ledger record" in errors[0]["detail"]
    assert "offset_bits=%d" % victim.c_offset_bits in errors[0]["detail"]


def test_compile_without_its_claims_is_an_error_per_access_and_image():
    """With its decisions gone a compile's claims are missing, not
    unchecked: one ``layout`` error per access SOAR annotated, one
    ``budget`` error per image."""
    result, _trace = _fresh_compile("mpls", "SWC")
    section = layout.check(result)
    n_accesses = sum(row["n_accesses"] for row in section["images"].values())
    assert n_accesses > 0 and section["findings"] == []
    result.decisions.clear()
    section = layout.check(result)
    assert section["ledger_sites"] == 0
    assert [f["severity"] for f in section["findings"]] == ["error"] * n_accesses
    errors = budget.check(result)["findings"]
    assert [(f["severity"], f["subject"]) for f in errors] == [
        ("error", image.name) for _, image in sorted(result.images.items())]
    assert all("no codesize ledger record" in f["detail"] for f in errors)


def test_decisions_do_not_depend_on_an_earlier_analysis():
    """``run_analysis`` switches nothing on: a compile after it records
    the decisions a compile before it did."""
    app = get_app("l3switch")
    trace = app.make_trace(PACKETS, seed=SEED)
    before = compile_baker(app.source, options_for("BASE"), trace)
    run_analysis("l3switch", "BASE", packets=PACKETS, seed=SEED)
    after = compile_baker(app.source, options_for("BASE"), trace)
    assert before.decisions and before.decisions == after.decisions


def test_verify_compares_metadata_words():
    """``verify`` compares every metadata word from ``rx_port`` up that
    PHR did not localize: all of firewall's at SOAR, ``flow_id``'s word
    no longer at PHR."""
    soar = _analyze("firewall", "SOAR")["passes"]["verify"]
    phr = _analyze("firewall", "PHR")["passes"]["verify"]
    assert soar["findings"] == [] and phr["findings"] == []
    assert soar["meta_words_compared"][0] == META_RX_PORT
    assert set(phr["meta_words_compared"]) < set(soar["meta_words_compared"])


def test_verify_closes_its_chip(monkeypatch):
    """The oracle's chip is unmapped when its run is done."""
    from repro.ixp.chip import IXP2400

    closed = []
    real_close = IXP2400.close
    monkeypatch.setattr(IXP2400, "close",
                        lambda chip: closed.append(chip) or real_close(chip))
    result, trace = _fresh_compile("mpls", "BASE")
    assert run_analysis("mpls", "BASE", packets=PACKETS, seed=SEED,
                        result=result, trace=trace)["ok"] is True
    assert len(closed) == 1


def test_verify_flags_compile_without_images():
    """``codegen=False`` leaves nothing to load; that is an error naming
    the aggregate, not a vacuous "ok" or a traceback."""
    result, trace = _fresh_compile("mpls", "BASE", codegen=False)
    report = run_analysis("mpls", "BASE", packets=PACKETS, seed=SEED,
                          result=result, trace=trace)
    errors = _errors(report["passes"]["verify"])
    assert len(errors) == 1, errors
    assert "no ME image for aggregate mpls_fwd" in errors[0]["detail"]
    assert report["ok"] is False and report["errors_total"] == 1


# -- CLI ------------------------------------------------------------------------


def test_cli_writes_report(tmp_path, capsys):
    from repro.analyze.__main__ import main

    out_path = tmp_path / "report.json"
    code = main(["mpls", "-O", "BASE", "--packets", "60",
                 "-o", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["ok"] is True
    assert sorted(report["passes"]) == ["budget", "layout", "verify"]
    capsys.readouterr()
    # The framework's selectors are gone, not hidden.
    for gone in (["--list"], ["mpls", "--pass", "verify"],
                 ["mpls", "--validate-packets", "6"]):
        with pytest.raises(SystemExit) as exc:
            main(gone)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --pass" in err
    assert "unrecognized arguments: --validate-packets" in err


def test_cli_level_aliases(capsys):
    from repro.analyze.__main__ import main

    code = main(["firewall", "-O3", "--packets", "40"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["level"] == "SWC"
    with pytest.raises(SystemExit):
        main(["firewall", "-O", "nonsense"])
    capsys.readouterr()


def test_analyze_cli_fails_fast(tmp_path, capsys, monkeypatch):
    """A bad argument is ``parser.error`` naming flag and value (exit 2)
    before anything is compiled or written: no ``KeyError`` /
    traceback, and no vacuous pass -- ``--packets 0`` used to validate
    zero packets and print "ok"."""
    from repro.analyze import __main__ as cli

    def no_analysis(*_args, **_kw):
        raise AssertionError("run_analysis reached with a bad argument")

    monkeypatch.setattr(cli, "run_analysis", no_analysis)
    out = tmp_path / "report.json"
    for argv, needle in (
            (["nosuchapp"], "unknown app 'nosuchapp'"),
            (["mpls", "--packets", "0"], "--packets must be >= 1, got 0"),
            (["mpls", "-O", "nonsense"],
             "unknown optimization level -O 'nonsense'")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["-o", str(out)])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err and needle in err, err
        assert "Traceback" not in err
        assert not out.exists(), argv
